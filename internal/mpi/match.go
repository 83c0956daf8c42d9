package mpi

// matchTable is a rank's message-matching state: for every (communicator,
// sender, tag) with something outstanding, either the receives posted and
// not yet matched or the sends that arrived before their receive — never
// both, because each side looks for the other before it queues — in FIFO
// order, which is MPI's non-overtaking rule.
//
// It is an open-addressed table (linear probing, power-of-two size, at
// most half full) whose entries hold the three integers themselves:
// finding one costs an integer mix and a probe or two, with no struct
// hashed through the runtime and nothing allocated. An entry lives only
// while its queue is non-empty. The match that empties it deletes it, by
// backward shift, so there are no tombstones either, and the table stays
// as small as the number of keys outstanding at once however many tags a
// run goes through.
type matchTable struct {
	slots []matchSlot // nil until the first message
	used  int
}

// matchSlot is one key's queue; a free slot has both lists empty.
type matchSlot struct {
	comm, src int32
	tag       int
	recvs     reqQueue // posted receives
	sends     psQueue  // unexpected sends
}

// reqQueue and psQueue are intrusive FIFO lists: match queues chain
// pooled records through their next pointers, so posting and matching
// never allocate.
type reqQueue struct{ head, tail *Request }

type psQueue struct{ head, tail *pendingSend }

func (e *matchSlot) free() bool { return e.recvs.head == nil && e.sends.head == nil }

// home is where a key's probe sequence starts.
func (t *matchTable) home(comm, src int32, tag int) int {
	h := uint64(uint32(comm))<<32 | uint64(uint32(src))
	h = (h ^ uint64(tag)*0x9e3779b97f4a7c15) * 0xbf58476d1ce4e5b9
	return int(h>>32) & (len(t.slots) - 1)
}

// find returns the index of the key's entry: the one holding its queue,
// or a free one, stamped with the key, where its queue would start. The
// index is good until the next find.
func (t *matchTable) find(comm, src, tag int) int {
	if 2*(t.used+1) > len(t.slots) {
		t.grow()
	}
	c, s := int32(comm), int32(src)
	for i := t.home(c, s, tag); ; i = (i + 1) & (len(t.slots) - 1) {
		e := &t.slots[i]
		if e.free() {
			e.comm, e.src, e.tag = c, s, tag
			return i
		}
		if e.comm == c && e.src == s && e.tag == tag {
			return i
		}
	}
}

// grow doubles the table and puts every entry where it now belongs.
//
//go:noinline
func (t *matchTable) grow() {
	old := t.slots
	t.slots = make([]matchSlot, max(2*len(old), 8))
	for i := range old {
		if e := &old[i]; !e.free() {
			j := t.home(e.comm, e.src, e.tag)
			for !t.slots[j].free() {
				j = (j + 1) & (len(t.slots) - 1)
			}
			t.slots[j] = *e
		}
	}
}

// remove deletes the entry at gap, whose queue has just emptied, and
// closes the hole it would leave in the probe sequences running over it.
func (t *matchTable) remove(gap int) {
	t.used--
	mask := len(t.slots) - 1
	for i := (gap + 1) & mask; !t.slots[i].free(); i = (i + 1) & mask {
		// The entry at i may fall back into the gap if the gap lies on
		// its way from home.
		e := &t.slots[i]
		if (i-t.home(e.comm, e.src, e.tag))&mask >= (i-gap)&mask {
			t.slots[gap] = *e
			gap = i
		}
	}
	t.slots[gap] = matchSlot{}
}

// popRecv removes the oldest receive posted for the entry's key, or
// returns nil.
func (t *matchTable) popRecv(i int) *Request {
	q := &t.slots[i].recvs
	req := q.head
	if req == nil {
		return nil
	}
	if q.head, req.next = req.next, nil; q.head == nil {
		q.tail = nil
		t.remove(i)
	}
	return req
}

// pushRecv appends a posted receive to the entry.
func (t *matchTable) pushRecv(i int, req *Request) {
	q := &t.slots[i].recvs
	req.next = nil
	if q.tail == nil {
		t.used++
		q.head, q.tail = req, req
	} else {
		q.tail.next = req
		q.tail = req
	}
}

// popSend removes the oldest unexpected send for the entry's key, or
// returns nil.
func (t *matchTable) popSend(i int) *pendingSend {
	q := &t.slots[i].sends
	ps := q.head
	if ps == nil {
		return nil
	}
	if q.head, ps.next = ps.next, nil; q.head == nil {
		q.tail = nil
		t.remove(i)
	}
	return ps
}

// pushSend appends an unexpected send to the entry.
func (t *matchTable) pushSend(i int, ps *pendingSend) {
	q := &t.slots[i].sends
	ps.next = nil
	if q.tail == nil {
		t.used++
		q.head, q.tail = ps, ps
	} else {
		q.tail.next = ps
		q.tail = ps
	}
}
