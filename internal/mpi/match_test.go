package mpi

import (
	"math/rand"
	"sort"
	"testing"

	"scaffe/internal/fault"
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

// matchScript draws a random balanced script of messages on w —
// several communicators, every pair of ranks, a few tags used over and
// over, eager and rendezvous sizes, each side of a message at a time of
// its own so that either may come first, or, with sendsFirst, every send
// before its receive. It returns the ops in posting order, the
// communicators they index, and how many receives there are.
func matchScript(w *World, seed int64, sendsFirst bool) (ops []matchOp, comms []*Comm, recvs int) {
	const messages = 600
	rng := rand.New(rand.NewSource(seed))
	world := w.WorldComm()
	comms = []*Comm{world, world.Sub([]int{5, 3, 1, 0}), world.Sub([]int{2, 4, 5})}
	times := rng.Perm(4 * messages) // distinct, so the script has one order
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
		sendAt, recvAt := sim.Time(times[2*m]+1), sim.Time(times[2*m+1]+1)
		if sendsFirst && recvAt < sendAt {
			sendAt, recvAt = recvAt, sendAt
		}
		send.send, send.on, send.peer, send.id, send.at = true, msg.src, to, m, sendAt
		recv.on, recv.peer, recv.id, recv.at = msg.dst, from, recvs, recvAt
		recvs++
		ops = append(ops, send, recv)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].at < ops[j].at })
	return ops, comms, recvs
}

// runMatchScript has every rank post its ops of the script at their
// times, then await them all, and returns for each receive the id of the
// send whose payload landed in it, or -1 where none did. A revocation
// ends what is left of a rank's script.
func runMatchScript(w *World, ops []matchOp, comms []*Comm, recvs int) ([]int, error) {
	bufs := make([]*gpu.Buffer, recvs)
	_, err := w.RunSteps(func(r *Rank) sim.Stepper {
		var reqs []*Request
		var steps []scriptOp
		var at sim.Time // when the last op was posted
		revoked := false
		for _, op := range ops {
			if op.on != r.ID {
				continue
			}
			steps = append(steps, sleep(op.at-at), revocable(do(func() {
				buf := gpu.NewDataBuffer(op.elems)
				if op.send {
					buf.Data[0] = float32(op.id)
					reqs = append(reqs, r.Isend(comms[op.comm], op.peer, op.tag, buf, topology.ModeAuto))
				} else {
					buf.Data[0] = -1
					bufs[op.id] = buf
					reqs = append(reqs, r.Irecv(comms[op.comm], op.peer, op.tag, buf))
				}
			}), &revoked))
			at = op.at
		}
		return script(r, append(steps, revocable(awaitAll(&reqs), &revoked))...)
	})
	got := make([]int, recvs)
	for i, b := range bufs {
		got[i] = -1
		if b != nil {
			got[i] = int(b.Data[0])
		}
	}
	return got, err
}

// TestMatchingAgainstReferenceMatcher posts random balanced scripts of
// sends and receives (matchScript) and requires every receive to get
// exactly the send the reference matcher pairs it with. Since the
// reference is FIFO per (communicator, sender, receiver, tag), equal
// pairing is the non-overtaking rule. Seeds past 8 post every message's
// send before its receive, so every message is an unexpected one and
// passes through a pending-send record, carved or recycled. Every seed
// ends with no request live on any rank.
func TestMatchingAgainstReferenceMatcher(t *testing.T) {
	const ranks = 6
	for seed := int64(1); seed <= 12; seed++ {
		w := newWorld(t, 2, 3, ranks)
		ops, comms, recvs := matchScript(w, seed, seed > 8)
		want := refMatch(ops, recvs)
		got, err := runMatchScript(w, ops, comms, recvs)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if w.Fault.Revoked() {
			t.Fatalf("seed %d: the idle plane revoked the world", seed)
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
			if n := r.LiveRequests(); n != 0 {
				t.Errorf("seed %d: rank %d ended with %d live requests", seed, r.ID, n)
			}
		}
	}
}

// wireSchedule arms, on every directed link of a ranks-rank world, a
// rule of each kind that takes n landings from a time drawn by rng
// within the scripts' span; a delay holds its landings for hold.
func wireSchedule(rng *rand.Rand, kinds []fault.Kind, ranks, n int, hold sim.Duration) fault.Schedule {
	var s fault.Schedule
	for src := 0; src < ranks; src++ {
		for dst := 0; dst < ranks; dst++ {
			if src == dst {
				continue
			}
			for _, kind := range kinds {
				s = append(s, fault.Event{At: sim.Time(rng.Intn(2400)), Kind: kind, Src: src, Dst: dst, N: n, For: hold})
			}
		}
	}
	return s
}

// TestMatchingUnderWireFaults runs the reference matcher's scripts over
// links that duplicate, delay and reorder landings, and over links that
// drop them. A landing's fate moves when a message arrives, never which
// send a receive was matched with: where every landing arrives, every
// receive gets exactly the send the reference matcher pairs it with. A
// drop starves its receive until the plane revokes the world, which ends
// every rank's script: the run ends complete or revoked, and every
// receive that was delivered got the reference's send — per key, the
// sends in the order they were posted.
func TestMatchingUnderWireFaults(t *testing.T) {
	const ranks = 6
	cases := []struct {
		name  string
		kinds []fault.Kind
	}{
		{"dup", []fault.Kind{fault.Dup}},
		{"delay", []fault.Kind{fault.Delay}},
		{"reorder", []fault.Kind{fault.Reorder}},
		{"dup-delay-reorder", []fault.Kind{fault.Reorder, fault.Delay, fault.Dup}},
		{"drop", []fault.Kind{fault.Drop}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lossy := tc.kinds[0] == fault.Drop
			var fates fault.Report
			delivered, receives, revoked := 0, 0, 0
			for seed := int64(1); seed <= 4; seed++ {
				w := newWorld(t, 2, 3, ranks)
				ops, comms, recvs := matchScript(w, seed, seed > 2)
				want := refMatch(ops, recvs)
				pl := fault.NewPlane(w.K, ranks, 20*sim.Microsecond)
				w.Fault = pl
				rng := rand.New(rand.NewSource(seed))
				pl.Arm(wireSchedule(rng, tc.kinds, ranks, 1+rng.Intn(4), 3*sim.Microsecond), fault.NopApplier{})
				got, err := runMatchScript(w, ops, comms, recvs)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				n := 0 // receives delivered
				for i := range want {
					if got[i] < 0 && lossy {
						continue
					}
					if got[i] != want[i] {
						t.Fatalf("seed %d: receive %d got send %d, the reference matcher pairs it with send %d", seed, i, got[i], want[i])
					}
					n++
				}
				if n < recvs && !pl.Revoked() {
					t.Errorf("seed %d: %d of %d receives delivered, and the world was not revoked", seed, n, recvs)
				}
				if !lossy && pl.Revoked() {
					t.Errorf("seed %d: a fabric that delivers every landing revoked the world", seed)
				}
				if pl.Revoked() {
					revoked++
				}
				delivered, receives = delivered+n, receives+recvs
				rep := pl.Report()
				fates.Dups += rep.Dups
				fates.Delays += rep.Delays
				fates.Reorders += rep.Reorders
				fates.Drops += rep.Drops
			}
			t.Logf("fates: %d dups, %d delays, %d reorders, %d drops; %d of %d receives delivered, %d worlds revoked",
				fates.Dups, fates.Delays, fates.Reorders, fates.Drops, delivered, receives, revoked)
			for _, kind := range tc.kinds {
				if n := map[fault.Kind]int{fault.Dup: fates.Dups, fault.Delay: fates.Delays, fault.Reorder: fates.Reorders, fault.Drop: fates.Drops}[kind]; n == 0 {
					t.Errorf("no landing met a %v fate", kind)
				}
			}
		})
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
	_, err := w.RunSteps(func(r *Rank) sim.Stepper {
		buf := gpu.NewBuffer(8)
		var ops []scriptOp
		for i := 0; i < 1000; i++ {
			// Three tags in flight at a time; the receiver is early on even
			// rounds and late on odd ones, so both queues are used.
			tags := []int{i % 100, (i + 1) % 100, (i + 50) % 100}
			var reqs []*Request
			if (r.ID == 0) == (i%2 == 0) {
				ops = append(ops, sleep(10))
			}
			ops = append(ops, do(func() {
				for _, tag := range tags {
					if r.ID == 0 {
						reqs = append(reqs, r.Isend(c, 1, tag, buf, topology.ModeAuto))
					} else {
						reqs = append(reqs, r.Irecv(c, 0, tag, buf))
					}
				}
			}), awaitAll(&reqs), barrier(c))
			if i == 9 {
				ops = append(ops, do(func() { after10[r.ID] = len(r.match.slots) }))
			}
		}
		return script(r, ops...)
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
