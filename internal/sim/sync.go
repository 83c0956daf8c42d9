package sim

// waiter records a proc parked on a completion together with the wait
// sequence it armed, so the wake-up can verify the proc is still
// parked on that same wait (it may have timed out and moved on).
type waiter struct {
	p   *Proc
	seq uint64
}

// Completion is a one-shot event that procs can wait on. It is created
// un-fired; Fire releases all current and future waiters. Completions
// are the simulation analogue of a chan struct{} that is closed once.
//
// Completions may be pooled (GetCompletion/PutCompletion, or embedded
// in a pooled owner that calls reset). Every recycle bumps the
// generation counter, so references taken against an earlier life
// (FireIf callers) dissolve instead of acting on the reused object. Together with the proc-side
// waitSeq guard this makes reuse safe under kills and timeouts.
//
// Every simulated wait goes through one, and an MPI request embeds
// one, so the record is kept to 64 bytes (TestCompletionSize): the
// first two waiters sit inline, counted by n, and everything rarer —
// waiters past two and OnFire callbacks — sits behind one pointer.
type Completion struct {
	k     *Kernel
	gen   uint64
	fired bool
	n     uint8 // waiters held in w0
	w0    [2]waiter
	more  *spill
}

// spill holds a completion's waiters past the inline two, in insertion
// order, and its OnFire callbacks. It is made on the completion's first
// need and kept across its lives, which clear only its lengths; its own
// inline room for four more waiters and one callback (a traced request's
// hook) makes a first spill one allocation.
type spill struct {
	waiters []waiter // backed by w until it outgrows it
	cbs     []func() // backed by cb until it outgrows it
	w       [4]waiter
	cb      [1]func()
}

// spilled returns c's spill record, making it on first need.
func (c *Completion) spilled() *spill {
	if c.more == nil {
		s := &spill{}
		s.waiters, s.cbs = s.w[:0], s.cb[:0]
		c.more = s
	}
	return c.more
}

// drop forgets c's waiters and callbacks, keeping the spill record's
// capacity for the next life.
func (c *Completion) drop() {
	clear(c.w0[:c.n])
	c.n = 0
	if s := c.more; s != nil {
		clear(s.waiters)
		clear(s.cbs)
		s.waiters, s.cbs = s.waiters[:0], s.cbs[:0]
	}
}

// live reports whether w's proc is still parked on the wait w armed:
// unfinished, and armed on w.seq. Fire applies it to each waiter and
// the event loop to each popped evResumeIf; a waiter that fails it stays
// failed, since waitSeq only grows.
func (w waiter) live() bool {
	return !w.p.finished && w.p.waitArmed && w.p.waitSeq == w.seq
}

// addWaiter parks w on the completion: inline while there is room, in
// the spill record past that. A waiter that would be the first to spill
// first drops the stale waiters of the inline pair, the live ones keeping
// their order, so a wait that re-arms on the same completion slice after
// slice (a deadline-sliced wait) holds one waiter and never spills.
func (c *Completion) addWaiter(w waiter) {
	if int(c.n) == len(c.w0) && (c.more == nil || len(c.more.waiters) == 0) {
		c.n = 0
		for _, x := range c.w0 {
			if x.live() {
				c.w0[c.n] = x
				c.n++
			}
		}
		clear(c.w0[c.n:])
	}
	if int(c.n) < len(c.w0) {
		c.w0[c.n] = w
		c.n++
		return
	}
	s := c.spilled()
	s.waiters = append(s.waiters, w)
}

// NewCompletion returns an un-fired completion bound to k.
func (k *Kernel) NewCompletion() *Completion { return &Completion{k: k} }

// GetCompletion returns an un-fired completion from the kernel's free
// list (allocating only when the pool is empty). Return it with
// PutCompletion once no live reference can fire or wait on it.
func (k *Kernel) GetCompletion() *Completion {
	if n := len(k.compPool); n > 0 {
		c := k.compPool[n-1]
		k.compPool[n-1] = nil
		k.compPool = k.compPool[:n-1]
		return c
	}
	return &Completion{k: k}
}

// PutCompletion recycles c into the kernel's free list. The caller
// must own the only live handle; a stale FireIf is harmless (the
// generation bump dissolves it).
func (k *Kernel) PutCompletion(c *Completion) {
	c.reset(k)
	k.compPool = append(k.compPool, c)
}

// Init readies c for (re)use on kernel k: un-fired, no waiters or
// callbacks, generation bumped so references from a previous life
// dissolve. It is how pooled owners with embedded completions (mpi
// requests) recycle them; a zero-value embedded completion is
// initialized with the same call.
func (c *Completion) Init(k *Kernel) { c.reset(k) }

// reset returns c to the un-fired state for reuse, bumping the
// generation so events scheduled against the previous life dissolve.
// It also (re)binds the kernel, so zero-value embedded completions
// can be initialized with the same call.
func (c *Completion) reset(k *Kernel) {
	c.k = k
	c.gen++
	c.fired = false
	c.drop()
}

// Fired reports whether the completion has fired.
func (c *Completion) Fired() bool { return c.fired }

// Gen returns the completion's current generation. Callers that stash
// a reference across a possible recycle pair it with FireIf.
func (c *Completion) Gen() uint64 { return c.gen }

// Fire marks the completion done, wakes every waiter still parked on
// it, and runs registered callbacks in kernel context. Firing twice is
// a no-op.
func (c *Completion) Fire() {
	if c.fired {
		return
	}
	c.fired = true
	for _, w := range c.w0[:c.n] {
		c.wake(w)
	}
	if s := c.more; s != nil {
		for _, w := range s.waiters {
			c.wake(w)
		}
		for _, fn := range s.cbs {
			c.k.At(c.k.now, fn)
		}
	}
	c.drop()
}

// wake schedules w's resume if w is live. A stale waiter would dissolve
// when its event popped, so it is given none.
func (c *Completion) wake(w waiter) {
	if w.live() {
		c.k.atResumeIf(c.k.now, w.p, w.seq)
	}
}

// FireFrom is Fire: the acting proc mattered only to the
// parallel-lookahead kernel mode, which is gone (DESIGN.md §13). It
// stays only because bench/ladder.go, which a change may not edit,
// still calls it; it goes with that rung.
func (c *Completion) FireFrom(*Proc) { c.Fire() }

// FireIf fires the completion only if its generation still equals
// gen: a reference that survived a recycle becomes a no-op instead of
// spuriously completing the object's next life.
func (c *Completion) FireIf(gen uint64) {
	if c.gen == gen {
		c.Fire()
	}
}

// OnFire registers fn to run (in kernel context) when the completion
// fires. If it has already fired, fn is scheduled immediately.
func (c *Completion) OnFire(fn func()) {
	if c.fired {
		c.k.At(c.k.now, fn)
		return
	}
	s := c.spilled()
	s.cbs = append(s.cbs, fn)
}

// Queue is a bounded-or-unbounded count of tokens passed between
// procs, the simulation analogue of a buffered channel of struct{}, for
// steps: a put to a full queue or a get from an empty one registers the
// proc to be resumed when it can go on, without parking it. A zero cap
// means unbounded. A token carries nothing — a data reader's batch is
// known to its consumer by its place in line — so the queue holds a
// count, and an owner embeds it by value, readied by Init.
type Queue struct {
	k       *Kernel
	tokens  int
	cap     int
	getters procLine
	putters procLine
}

// procLine is a FIFO of waiting procs. The first sits inline, so a
// queue between one producer and one consumer — a rank's data reader
// and its solver — never allocates for its waiters; the rest line up
// behind it in a fifo.
type procLine struct {
	first *Proc
	rest  fifo[*Proc]
}

func (l *procLine) push(p *Proc) {
	if l.first == nil && l.rest.len() == 0 {
		l.first = p
		return
	}
	l.rest.push(p)
}

// pop removes and returns the longest-waiting proc, or nil.
func (l *procLine) pop() *Proc {
	if p := l.first; p != nil {
		l.first = nil
		return p
	}
	if l.rest.len() > 0 {
		return l.rest.pop()
	}
	return nil
}

// fifo is a slice consumed through a head index, so that popping keeps
// the backing array: it is rewound when the last element leaves, and a
// list that never empties slides down over its consumed part before it
// would grow.
type fifo[T any] struct {
	s    []T
	head int
}

func (f *fifo[T]) len() int { return len(f.s) - f.head }

func (f *fifo[T]) push(v T) {
	if f.head > 0 && len(f.s) == cap(f.s) {
		n := copy(f.s, f.s[f.head:])
		clear(f.s[n:])
		f.s, f.head = f.s[:n], 0
	}
	f.s = append(f.s, v)
}

func (f *fifo[T]) pop() T {
	var zero T
	v := f.s[f.head]
	f.s[f.head] = zero
	if f.head++; f.head == len(f.s) {
		f.s, f.head = f.s[:0], 0
	}
	return v
}

// Init readies q on kernel k as an empty queue with the given capacity
// (0 = unbounded), with no waiters.
func (q *Queue) Init(k *Kernel, capacity int) {
	*q = Queue{k: k, cap: capacity}
}

// Len returns the number of queued tokens.
func (q *Queue) Len() int { return q.tokens }

// TryPut adds a token and reports true, or, with the queue at capacity,
// registers p as a putter and reports false: p is resumed when a TryGet
// makes room, and tries again then. It parks nothing, so a Step may call
// it.
func (q *Queue) TryPut(p *Proc) bool {
	if q.cap > 0 && q.tokens >= q.cap {
		q.putters.push(p)
		return false
	}
	q.tokens++
	q.wakeOne(&q.getters)
	return true
}

// TryGet takes a token and reports true, or, with the queue empty,
// registers p as a getter and reports false: p is resumed when a TryPut
// fills the queue, and tries again then.
func (q *Queue) TryGet(p *Proc) bool {
	if q.tokens == 0 {
		q.getters.push(p)
		return false
	}
	q.tokens--
	q.wakeOne(&q.putters)
	return true
}

// wakeOne wakes the longest-waiting proc of the line. Killed procs leave
// stale entries behind; they are skipped so a real waiter is not starved
// of its wake-up.
func (q *Queue) wakeOne(line *procLine) {
	for p := line.pop(); p != nil; p = line.pop() {
		if !p.finished {
			q.k.atResume(q.k.now, p)
			return
		}
	}
}

// Resource models a FIFO-served exclusive resource (a link, a DMA
// engine, a GPU stream) with a "busy until" horizon. Reservations do
// not require a proc: callers reserve a span and receive its start and
// end times; the caller is responsible for waiting if it wants
// blocking semantics. The zero value is idle; owners embed it by value,
// so a cluster's thousands of links and streams cost no allocation.
type Resource struct {
	busyUntil Time
	busyTotal Duration
}

// Reserve books the resource for d starting no earlier than `from` and
// no earlier than the end of all previous reservations. It returns the
// start and end times of the booked span.
func (r *Resource) Reserve(from Time, d Duration) (start, end Time) {
	start = from
	if r.busyUntil > start {
		start = r.busyUntil
	}
	end = start + d
	r.busyUntil = end
	r.busyTotal += d
	return start, end
}

// FreeAt returns the earliest time at or after `from` at which the
// resource is idle.
func (r *Resource) FreeAt(from Time) Time {
	if r.busyUntil > from {
		return r.busyUntil
	}
	return from
}

// BusyTotal returns the cumulative reserved time, for utilization
// reporting.
func (r *Resource) BusyTotal() Duration { return r.busyTotal }
