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
type Completion struct {
	k       *Kernel
	fired   bool
	firedAt Time
	gen     uint64
	waiters []waiter
	cbs     []func()

	// w0 is the inline backing array for waiters: almost every
	// completion has exactly one waiting proc, so the common case never
	// touches the heap even for completions that are not pooled.
	w0 [2]waiter
}

// addWaiter parks w on the completion, pointing the waiter list at the
// inline backing array on first use.
func (c *Completion) addWaiter(w waiter) {
	if c.waiters == nil {
		c.waiters = c.w0[:0]
	}
	c.waiters = append(c.waiters, w)
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
	c.firedAt = 0
	for i := range c.waiters {
		c.waiters[i] = waiter{}
	}
	c.waiters = c.waiters[:0]
	for i := range c.cbs {
		c.cbs[i] = nil
	}
	c.cbs = c.cbs[:0]
}

// Fired reports whether the completion has fired.
func (c *Completion) Fired() bool { return c.fired }

// FiredAt returns the virtual time at which the completion fired; it
// is only meaningful when Fired is true.
func (c *Completion) FiredAt() Time { return c.firedAt }

// Gen returns the completion's current generation. Callers that stash
// a reference across a possible recycle pair it with FireIf.
func (c *Completion) Gen() uint64 { return c.gen }

// Fire marks the completion done at the current virtual time, wakes
// all waiters, and runs registered callbacks in kernel context. Firing
// twice is a no-op.
func (c *Completion) Fire() {
	if c.fired {
		return
	}
	c.fired = true
	c.firedAt = c.k.now
	waiters := c.waiters
	for i, w := range waiters {
		c.k.atResumeIf(c.k.now, w.p, w.seq)
		waiters[i] = waiter{}
	}
	c.waiters = waiters[:0]
	cbs := c.cbs
	for i, fn := range cbs {
		c.k.At(c.k.now, fn)
		cbs[i] = nil
	}
	c.cbs = cbs[:0]
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
	c.cbs = append(c.cbs, fn)
}

// Queue is an unbounded-or-bounded FIFO of values passed between
// procs, the simulation analogue of a buffered channel. A zero cap
// means unbounded.
type Queue struct {
	k       *Kernel
	items   fifo[any]
	cap     int
	getters fifo[*Proc]
	putters fifo[*Proc]
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

// NewQueue returns a queue with the given capacity (0 = unbounded).
func (k *Kernel) NewQueue(capacity int) *Queue {
	return &Queue{k: k, cap: capacity}
}

// Len returns the number of queued items.
func (q *Queue) Len() int { return q.items.len() }

// Put appends v, blocking p while the queue is at capacity.
func (q *Queue) Put(p *Proc, v any) {
	for q.cap > 0 && q.items.len() >= q.cap {
		q.putters.push(p)
		p.park()
	}
	q.items.push(v)
	q.wakeOne(&q.getters)
}

// Get removes and returns the oldest item, blocking p while empty.
func (q *Queue) Get(p *Proc) any {
	for q.items.len() == 0 {
		q.getters.push(p)
		p.park()
	}
	v := q.items.pop()
	q.wakeOne(&q.putters)
	return v
}

// wakeOne wakes the longest-waiting proc of the list. Killed procs leave
// stale entries behind; they are skipped so a real waiter is not starved
// of its wake-up.
func (q *Queue) wakeOne(waiting *fifo[*Proc]) {
	for waiting.len() > 0 {
		if p := waiting.pop(); !p.finished {
			q.k.wakeAt(p, q.k.now)
			return
		}
	}
}

// Resource models a FIFO-served exclusive resource (a link, a DMA
// engine, a GPU stream) with a "busy until" horizon. Reservations do
// not require a proc: callers reserve a span and receive its start and
// end times; the caller is responsible for waiting if it wants
// blocking semantics.
type Resource struct {
	k         *Kernel
	busyUntil Time
	name      string
	busyTotal Duration
}

// NewResource returns an idle resource.
func (k *Kernel) NewResource(name string) *Resource {
	return &Resource{k: k, name: name}
}

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }

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
