package sim

// This file implements the event queue of the kernel's hot path. Two
// structures cooperate:
//
//   - nowRing: a FIFO ring buffer holding events scheduled for the
//     current instant (t == now). The overwhelming majority of events
//     in a message-heavy simulation are same-instant wake-ups
//     (completion fires, proc resumes), and for those insertion order
//     IS (time, seq) order, so a ring append/pop is exact.
//
//   - calendarQueue: a Brown-style calendar queue for future events
//     (t > now), with power-of-two bucket counts and a cached minimum.
//     Events map to bucket (t/width) & mask; a bucket lists the
//     instants due in it in ascending time, and an instant holds its
//     events in seq order (almost always the order they were
//     scheduled), so the queue as a whole pops in exact (time, seq)
//     order.
//
// Events are small by-value records. The calendar keeps them in slots
// it owns: a drained slot returns to the queue's free list and the next
// instant that needs room takes it from there, wherever in the table it
// lies, so the storage ever allocated follows the most events that were
// pending at once and the steady state allocates nothing per event.
//
// Ordering proof for the two-tier split (see DESIGN.md §12): a
// calendar event with at == now got its seq while now < at (a seq
// drawn at the current instant for the current instant goes to the
// ring), hence strictly earlier, hence smaller than every ring event's.
// That holds for the one kind of event inserted with a seq drawn
// before the insert, a deadline timer carried to its reserved key,
// which may arrive at an instant the clock has already reached. So
// popping the calendar while its minimum is <= now, then the ring, then
// advancing to the calendar minimum reproduces the exact global
// (at, seq) order of a single heap.

// evKind discriminates the typed event payloads. A small closed enum
// replaces the old closure-per-event representation: the dominant
// kinds carry only a pointer and an integer, so scheduling them
// allocates nothing.
type evKind uint8

const (
	// evFunc runs an arbitrary deferred function (cold paths,
	// user-facing Kernel.At).
	evFunc evKind = iota
	// evResume unconditionally resumes a parked proc.
	evResume
	// evResumeIf resumes a proc only if it is still parked on the
	// guarded wait armed with aux (see Kernel.atResumeIf).
	evResumeIf
	// evTimer is a proc's deadline timer (see Proc.armDeadline and
	// Kernel.fireTimer).
	evTimer
	// evRun invokes a Runnable payload — a pooled record scheduled by
	// a higher layer (e.g. an MPI transfer delivery) in place of a
	// closure.
	evRun
)

// Runnable is a schedulable event payload. Higher layers implement it
// on pooled records and schedule them with Kernel.AtRun so the hot
// path carries no closures.
type Runnable interface {
	RunEvent(k *Kernel)
}

// event is a typed, by-value event record. Exactly one payload field
// is meaningful, selected by kind. Events live by value inside the
// ring and calendar buckets; they are never heap-allocated
// individually.
type event struct {
	at   Time
	seq  uint64
	aux  uint64 // evResumeIf: armed wait seq
	p    *Proc
	fn   func()
	run  Runnable
	kind evKind
}

// nowRing is a FIFO ring of events due at the current instant.
type nowRing struct {
	buf  []event // power-of-two length
	head int
	n    int
}

func (r *nowRing) len() int { return r.n }

// push appends e; steady state touches only an existing slot.
func (r *nowRing) push(e event) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = e
	r.n++
}

// pop removes and returns the oldest event, zeroing the slot so the
// ring does not pin dead payloads.
func (r *nowRing) pop() event {
	e := r.buf[r.head]
	r.buf[r.head] = event{}
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return e
}

// grow doubles the ring (cold path: runs O(log n) times ever).
func (r *nowRing) grow() {
	size := 2 * len(r.buf)
	if size < 64 {
		size = 64
	}
	nb := make([]event, size)
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = nb
	r.head = 0
}

const minBuckets = 16

// slotEvents is how many events a slot holds. Most instants hold one
// event, and a run's peak of pending instants is what its calendar
// allocates, so slots are small: three events make one 256 bytes. A
// same-instant wave of a thousand resumes chains slots.
const slotEvents = 3

// slot is the calendar's unit of storage: up to slotEvents events due at
// one instant, in the order they were inserted. An instant with more
// events is a chain of slots through more; its head slot also carries
// the instant's place in its bucket. Slots belong to the queue, not to a
// bucket: a drained one goes to the free list with every event in it
// already zeroed by the pop that took it.
type slot struct {
	at   Time
	next *slot // head slot: the bucket's next instant, later in time; free slot: the free list
	more *slot // the instant's next slot
	last *slot // head slot: the instant's last slot, where insert appends
	h, n int32 // ev[h:n] are pending
	ev   [slotEvents]event
}

// calendarQueue holds future events bucketed by time. Resizing with
// the instant count, and reading the width off the instants about to
// pop, keep operations O(1) amortized; the cached minimum makes the
// peek in the kernel's pop rule free in the common case.
//
// A bucket is a list of instants in ascending time, and an instant is a
// FIFO of the events due at it: events of one instant arrive in seq
// order (the kernel stamps seq as it schedules), so appending keeps
// (at, seq) order and a same-instant wave of many events (a 1024-rank
// compute phase) costs O(1) per insert and per pop. The table is sized
// by instants, not events: a wave is one entry of one bucket.
type calendarQueue struct {
	buckets  []*slot
	mask     int
	width    Time
	count    int // pending events
	instants int // distinct times they are due at
	// lastAt is a lower bound on the queue minimum; the year-scan in
	// locate starts from its bucket.
	lastAt Time
	// Cached location of the global minimum (always the first instant
	// of cacheBucket). Invalidated by pop and resize; maintained by
	// insert.
	cacheOK     bool
	cacheBucket int
	cacheAt     Time

	free   *slot // drained slots, linked through next
	carved int   // slots allocated so far

	// links counts the instants find has stepped past, ever: the
	// walk-length gate of the tests reads it. walkDebt is the walk that
	// inserts made beyond walkFree links each since the width was last
	// read: a table's worth of it reads the width again (see insert).
	links    uint64
	walkDebt int
}

// walkFree is the walk an insert may make without running up debt.
const walkFree = 2

// find returns the link in at's bucket that holds at's instant, or the
// place it belongs: the first instant not earlier than at; and how many
// instants it stepped past to get there.
func (q *calendarQueue) find(at Time) (pp **slot, walked int) {
	pp = &q.buckets[int(at/q.width)&q.mask]
	for s := *pp; s != nil && s.at < at; s = *pp {
		pp = &s.next
		walked++
	}
	return pp, walked
}

// insert adds e to the instant it is due at, opening the instant if e
// is the first. Almost always e.seq exceeds that of every event already
// pending at e.at and e is appended; a deadline timer carried to its
// reserved key (Kernel.fireTimer) is the one event that may have to go
// in front of some of them. Table resize, slot allocation and that
// placement live in cold helpers.
func (q *calendarQueue) insert(e event) {
	if len(q.buckets) == 0 {
		q.retable(minBuckets, 1)
	}
	if e.at < q.lastAt {
		q.lastAt = e.at
	}
	pp, walked := q.find(e.at)
	q.links += uint64(walked)
	q.walkDebt = max(q.walkDebt+walked-walkFree, 0)
	s := *pp
	if s == nil || s.at != e.at {
		s = q.getSlot()
		s.at, s.next, s.last = e.at, *pp, s
		*pp = s
		q.instants++
		if q.cacheOK && e.at < q.cacheAt {
			// A new global minimum is the first instant of its bucket.
			q.cacheBucket, q.cacheAt = int(e.at/q.width)&q.mask, e.at
		}
	}
	t := s.last
	if t.n > 0 && t.ev[t.n-1].seq >= e.seq {
		e = placeInSeq(s, e)
	}
	if t.n == slotEvents {
		t.more = q.getSlot()
		t = t.more
		t.at = e.at
		s.last = t
	}
	t.ev[t.n] = e
	t.n++
	q.count++
	if q.instants > 2*len(q.buckets) {
		q.resize(2 * len(q.buckets))
	} else if q.walkDebt > len(q.buckets) {
		// The instants no longer spread over the table the way they did
		// when the width was read: the near ones have grown denser (a
		// phase of many short kernels after one of few long ones). Read
		// it again, at the same size.
		q.resize(len(q.buckets))
	}
}

// placeInSeq puts e where its seq belongs among the pending events of
// the instant headed by s and returns the instant's last event, which
// the caller appends: walking the instant in order, e trades places with
// every event of a larger seq, so each moves one position back. It is
// linear in the instant's events, and runs once per timer carried into
// an instant that already holds later events.
//
//go:noinline
func placeInSeq(s *slot, e event) event {
	for ; s != nil; s = s.more {
		for i := s.h; i < s.n; i++ {
			switch ev := &s.ev[i]; {
			case ev.seq == e.seq:
				panic("sim: calendar insert of a seq already pending")
			case ev.seq > e.seq:
				*ev, e = e, *ev
			}
		}
	}
	return e
}

// pop removes and returns the minimum event: the oldest of the first
// instant of the minimum's bucket. While that instant has more events
// the cache stays as it is; when it is drained and the bucket's next
// instant still lies inside the popped event's calendar month, that one
// is provably the new global minimum (same argument as locate's year
// scan), so the cache survives then too.
func (q *calendarQueue) pop() event {
	q.locate()
	b := q.cacheBucket
	s := q.buckets[b]
	e := s.ev[s.h]
	s.ev[s.h] = event{}
	s.h++
	q.count--
	if s.h < s.n {
		return e
	}
	if m := s.more; m != nil {
		// The instant goes on in its next slot, which takes over as head.
		m.next, m.last = s.next, s.last
		q.buckets[b] = m
		q.putSlot(s)
		return e
	}
	nx := s.next
	q.buckets[b] = nx
	q.putSlot(s)
	q.instants--
	if nx != nil && nx.at < (e.at/q.width+1)*q.width {
		q.cacheAt, q.lastAt = nx.at, nx.at
	} else {
		q.cacheOK = false
	}
	if q.instants < len(q.buckets)/4 && len(q.buckets) > minBuckets {
		q.resize(len(q.buckets) / 2)
	}
	return e
}

// minTime reports the (time) of the minimum event, if any.
func (q *calendarQueue) minTime() (Time, bool) {
	if q.count == 0 {
		return 0, false
	}
	q.locate()
	return q.cacheAt, true
}

// locate finds the global minimum and caches its bucket. The scan
// visits buckets in year order starting from lastAt's bucket: the
// first head instant lying inside the bucket's current year is the
// global minimum (all later buckets' events are provably later; see
// file comment). If a whole year holds nothing, fall back to a direct
// scan of bucket heads.
func (q *calendarQueue) locate() {
	if q.cacheOK || q.count == 0 {
		return
	}
	w := q.width
	year := q.lastAt / w
	i := int(year) & q.mask
	top := (year + 1) * w
	for range q.buckets {
		if s := q.buckets[i]; s != nil && s.at < top {
			q.cacheOK, q.cacheBucket, q.cacheAt = true, i, s.at
			q.lastAt = s.at
			return
		}
		i = (i + 1) & q.mask
		top += w
	}
	best := -1
	for bi, s := range q.buckets {
		if s != nil && (best < 0 || s.at < q.buckets[best].at) {
			best = bi
		}
	}
	q.cacheOK, q.cacheBucket, q.cacheAt = true, best, q.buckets[best].at
	q.lastAt = q.cacheAt
}

// getSlot takes a zeroed slot off the free list.
func (q *calendarQueue) getSlot() *slot {
	s := q.free
	if s == nil {
		s = q.carve()
	}
	q.free, s.next = s.next, nil
	return s
}

// putSlot gives a drained slot back. Its events are zero already: pop
// cleared each as it took it, and nothing beyond n was ever written.
func (q *calendarQueue) putSlot(s *slot) {
	s.more, s.last, s.h, s.n = nil, nil, 0, 0
	s.next, q.free = q.free, s
}

// carve allocates slots a block at a time, each block as large as all
// before it together (within bounds), and returns them as a free list.
//
//go:noinline
func (q *calendarQueue) carve() *slot {
	n := min(max(q.carved, 8), 256)
	q.carved += n
	block := make([]slot, n)
	for i := range block[:n-1] {
		block[i].next = &block[i+1]
	}
	return &block[0]
}

// retable sizes the bucket table, whose buckets are all empty (cold
// path). The backing array is kept across resizes.
//
//go:noinline
func (q *calendarQueue) retable(nbuckets int, width Time) {
	if cap(q.buckets) >= nbuckets {
		q.buckets = q.buckets[:nbuckets]
	} else {
		q.buckets = make([]*slot, nbuckets)
	}
	q.mask = nbuckets - 1
	q.width = width
	q.cacheOK = false
	q.walkDebt = 0
}

// headSample is how many of the earliest pending instants the bucket
// width is read from.
const headSample = 25

// headWidth is the bucket width for a queue whose earliest instants are
// head, ascending: three times their mean separation, leaving out
// separations more than twice the mean (Brown's estimate). It is the
// spacing of the instants about to be popped, which is what the queue
// spends its time on, whatever lies further out: a cloud of events far
// ahead wraps around the table and spreads over every bucket, while a
// width from the whole spread would crowd the near instants into a few
// buckets and make every insert there walk past them.
func headWidth(head []Time) Time {
	if len(head) < 2 {
		return 1
	}
	mean := (head[len(head)-1] - head[0]) / Time(len(head)-1)
	var sum Time
	k := 0
	for i := 1; i < len(head); i++ {
		if d := head[i] - head[i-1]; d <= 2*mean {
			sum += d
			k++
		}
	}
	return max(3*sum/Time(k), 1)
}

// resize rebuilds the table with nb buckets and the width headWidth
// reads off the earliest instants pending. Only the instants' places
// change; their events stay in their slots. The choice is a
// deterministic function of queue contents, so replays resize
// identically.
func (q *calendarQueue) resize(nb int) {
	var all *slot
	var head [headSample]Time // the earliest instants, ascending
	n := 0
	for bi, s := range q.buckets {
		for s != nil {
			if n < headSample || s.at < head[headSample-1] {
				i := min(n, headSample-1)
				for ; i > 0 && head[i-1] > s.at; i-- {
					head[i] = head[i-1]
				}
				head[i] = s.at
			}
			n++
			nx := s.next
			s.next, all = all, s
			s = nx
		}
		q.buckets[bi] = nil
	}
	q.retable(nb, headWidth(head[:min(n, headSample)]))
	for s := all; s != nil; {
		nx := s.next
		pp, walked := q.find(s.at)
		q.links += uint64(walked)
		s.next, *pp = *pp, s
		s = nx
	}
}
