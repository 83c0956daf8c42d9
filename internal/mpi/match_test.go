package mpi

import (
	"math/rand"
	"sort"
	"testing"

	"scaffe/internal/gpu"
	"scaffe/internal/sim"
	"scaffe/internal/topology"
)

// matchOp is one side of one message in a matching script: rank `on`
// posts it at virtual time `at`.
type matchOp struct {
	at         sim.Time
	send       bool
	on         int // world rank posting the op
	comm       int // index into the script's communicators
	peer       int // group rank of the other side in that communicator
	src, dst   int // world ranks of the message's ends
	tag, elems int
	id         int // sends: the payload; receives: the op's index among receives
}

// refMatch is the matcher nobody could get wrong: one list of everything
// outstanding, in arrival order, and the first entry that fits wins. It
// returns, per receive, the id of the send it was paired with.
func refMatch(ops []matchOp, recvs int) []int {
	paired := make([]int, recvs)
	var pending []matchOp
next:
	for _, op := range ops {
		for i, other := range pending {
			if other.send != op.send && other.comm == op.comm && other.src == op.src && other.dst == op.dst && other.tag == op.tag {
				pending = append(pending[:i], pending[i+1:]...)
				if op.send {
					paired[other.id] = op.id
				} else {
					paired[op.id] = other.id
				}
				continue next
			}
		}
		pending = append(pending, op)
	}
	if len(pending) != 0 {
		panic("unbalanced script")
	}
	return paired
}

// TestMatchingAgainstReferenceMatcher posts random balanced scripts of
// sends and receives — several communicators, every pair of ranks, a few
// tags used over and over, eager and rendezvous sizes, each side of a
// message at a time of its own so that either may come first — and
// requires every receive to get exactly the send the reference matcher
// pairs it with. Since the reference is FIFO per (communicator, sender,
// receiver, tag), equal pairing is the non-overtaking rule.
func TestMatchingAgainstReferenceMatcher(t *testing.T) {
	const ranks, messages = 6, 600
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := newWorld(t, 2, 3, ranks)
		world := w.WorldComm()
		comms := []*Comm{world, world.Sub([]int{5, 3, 1, 0}), world.Sub([]int{2, 4, 5})}

		var ops []matchOp
		times := rng.Perm(4 * messages) // distinct, so the script has one order
		recvs := 0
		for m := 0; m < messages; m++ {
			ci := rng.Intn(len(comms))
			c := comms[ci]
			from := rng.Intn(c.Size())
			to := (from + 1 + rng.Intn(c.Size()-1)) % c.Size()
			// Whichever send a receive ends up with must fit it, so the size
			// goes with the tag: tag 3 is the rendezvous one.
			tag, elems := rng.Intn(4), 1
			if tag == 3 {
				elems = EagerLimit/4 + 1
			}
			msg := matchOp{comm: ci, src: c.WorldRank(from), dst: c.WorldRank(to), tag: tag, elems: elems}
			send, recv := msg, msg
			send.send, send.on, send.peer, send.id, send.at = true, msg.src, to, m, sim.Time(times[2*m]+1)
			recv.on, recv.peer, recv.id, recv.at = msg.dst, from, recvs, sim.Time(times[2*m+1]+1)
			recvs++
			ops = append(ops, send, recv)
		}
		sort.Slice(ops, func(i, j int) bool { return ops[i].at < ops[j].at })
		want := refMatch(ops, recvs)

		got := make([]int, recvs)
		bufs := make([]*gpu.Buffer, recvs)
		_, err := w.Run(func(r *Rank) {
			var reqs []*Request
			for _, op := range ops {
				if op.on != r.ID {
					continue
				}
				r.Proc.WaitUntil(op.at)
				buf := gpu.NewDataBuffer(op.elems)
				if op.send {
					buf.Data[0] = float32(op.id)
					reqs = append(reqs, r.Isend(comms[op.comm], op.peer, op.tag, buf, topology.ModeAuto))
				} else {
					bufs[op.id] = buf
					reqs = append(reqs, r.Irecv(comms[op.comm], op.peer, op.tag, buf))
				}
			}
			for _, req := range reqs {
				r.Wait(req)
			}
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i, b := range bufs {
			got[i] = int(b.Data[0])
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: receive %d got send %d, the reference matcher pairs it with send %d", seed, i, got[i], want[i])
			}
		}
		for _, r := range w.Ranks {
			if r.match.used != 0 {
				t.Errorf("seed %d: rank %d's match table still holds %d keys after every message was matched", seed, r.ID, r.match.used)
			}
		}
	}
}

// TestMatchTableFollowsOutstandingKeys: the table is sized by the keys
// outstanding at once, not by the tags a run has been through. A thousand
// messages over a hundred tags, matched as they go, leave it where the
// first ten did.
func TestMatchTableFollowsOutstandingKeys(t *testing.T) {
	w := newWorld(t, 2, 1, 2)
	c := w.WorldComm()
	var after10 [2]int
	_, err := w.Run(func(r *Rank) {
		buf := gpu.NewBuffer(8)
		for i := 0; i < 1000; i++ {
			// Three tags in flight at a time; the receiver is early on even
			// rounds and late on odd ones, so both queues are used.
			tags := []int{i % 100, (i + 1) % 100, (i + 50) % 100}
			var reqs []*Request
			if (r.ID == 0) == (i%2 == 0) {
				r.Sleep(10)
			}
			for _, tag := range tags {
				if r.ID == 0 {
					reqs = append(reqs, r.Isend(c, 1, tag, buf, topology.ModeAuto))
				} else {
					reqs = append(reqs, r.Irecv(c, 0, tag, buf))
				}
			}
			for _, req := range reqs {
				r.Wait(req)
			}
			c.Barrier(r)
			if i == 9 {
				after10[r.ID] = len(r.match.slots)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range w.Ranks {
		if len(r.match.slots) != after10[r.ID] || r.match.used != 0 {
			t.Errorf("rank %d: match table has %d slots (%d in use) after 1,000 messages over 100 tags; it had %d after the first 10",
				r.ID, len(r.match.slots), r.match.used, after10[r.ID])
		}
	}
	if after10[1] == 0 {
		t.Error("the receiver's match table was never used")
	}
}

// TestMatchTableAgainstMap drives the table alone, far past the handful
// of keys the scripts above keep outstanding: hundreds of live keys, so
// that probe sequences collide, wrap around and are closed up again by
// deletions, against a map of slices.
func TestMatchTableAgainstMap(t *testing.T) {
	type key struct{ comm, src, tag int }
	rng := rand.New(rand.NewSource(42))
	var tab matchTable
	ref := map[key][]*Request{}
	live := 0
	for op := 0; op < 200000; op++ {
		// Phases of net growth and net shrinkage.
		k := key{rng.Intn(4), rng.Intn(64), rng.Intn(8)}
		at := tab.find(k.comm, k.src, k.tag)
		if grow := (op/20000)%2 == 0; rng.Intn(100) < map[bool]int{true: 65, false: 35}[grow] {
			req := &Request{}
			tab.pushRecv(at, req)
			ref[k] = append(ref[k], req)
			live++
			continue
		}
		got := tab.popRecv(at)
		var want *Request
		if q := ref[k]; len(q) > 0 {
			want, ref[k] = q[0], q[1:]
			live--
		}
		if got != want {
			t.Fatalf("op %d: key %+v popped %p, want %p", op, k, got, want)
		}
	}
	keys := 0
	for _, q := range ref {
		if len(q) > 0 {
			keys++
		}
	}
	if tab.used != keys || 2*tab.used > len(tab.slots) {
		t.Errorf("table counts %d keys in %d slots; %d keys are outstanding", tab.used, len(tab.slots), keys)
	}
	if keys < 100 {
		t.Errorf("only %d keys outstanding at the end; the test wants a crowded table", keys)
	}
}
