package mpi

import (
	"testing"

	"scaffe/internal/gpu"
	"scaffe/internal/sim"
	"scaffe/internal/topology"
)

func newWorld(t *testing.T, nodes, gpusPerNode, ranks int) *World {
	t.Helper()
	k := sim.New()
	c := topology.New(k, "test", nodes, gpusPerNode, topology.DefaultParams())
	return NewWorld(c, ranks)
}

func TestSendRecvDeliversPayload(t *testing.T) {
	w := newWorld(t, 2, 1, 2)
	c := w.WorldComm()
	var got []float32
	_, err := w.RunSteps(func(r *Rank) sim.Stepper {
		if r.ID == 0 {
			buf := gpu.WrapData([]float32{1, 2, 3})
			return script(r, send(c, 1, 7, buf, topology.ModeAuto))
		}
		buf := gpu.NewDataBuffer(3)
		return script(r, recv(c, 0, 7, buf), do(func() { got = append([]float32(nil), buf.Data...) }))
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("received %v, want %v", got, want)
		}
	}
}

func TestSendBeforeRecvEager(t *testing.T) {
	// Small message: sender completes immediately; receiver matches
	// from the unexpected queue later.
	w := newWorld(t, 2, 1, 2)
	c := w.WorldComm()
	var sendDone, recvDone sim.Time
	_, err := w.RunSteps(func(r *Rank) sim.Stepper {
		if r.ID == 0 {
			var req *Request
			return script(r,
				do(func() { req = r.Isend(c, 1, 1, gpu.WrapData([]float32{42}), topology.ModeAuto) }),
				await(&req),
				do(func() { sendDone = r.Now() }))
		}
		buf := gpu.NewDataBuffer(1)
		return script(r,
			sleep(sim.Second), // receiver is late
			recv(c, 0, 1, buf),
			do(func() {
				recvDone = r.Now()
				if buf.Data[0] != 42 {
					t.Errorf("payload = %v, want 42", buf.Data[0])
				}
			}))
	})
	if err != nil {
		t.Fatal(err)
	}
	if sendDone >= sim.Second {
		t.Errorf("eager send completed at %v; should not wait for the receiver", sendDone)
	}
	if recvDone < sim.Second {
		t.Errorf("recv completed at %v, before it was posted", recvDone)
	}
}

func TestRendezvousSenderWaits(t *testing.T) {
	// Large message: the sender must block until the receiver posts.
	w := newWorld(t, 2, 1, 2)
	c := w.WorldComm()
	var sendDone sim.Time
	_, err := w.RunSteps(func(r *Rank) sim.Stepper {
		if r.ID == 0 {
			buf := gpu.NewBuffer(8 << 20)
			return script(r, send(c, 1, 1, buf, topology.ModeAuto), do(func() { sendDone = r.Now() }))
		}
		return script(r, sleep(sim.Second), recv(c, 0, 1, gpu.NewBuffer(8<<20)))
	})
	if err != nil {
		t.Fatal(err)
	}
	if sendDone < sim.Second {
		t.Errorf("rendezvous send completed at %v; must wait for late receiver", sendDone)
	}
}

func TestRecvBeforeSend(t *testing.T) {
	w := newWorld(t, 2, 1, 2)
	c := w.WorldComm()
	var got float32
	_, err := w.RunSteps(func(r *Rank) sim.Stepper {
		if r.ID == 1 {
			buf := gpu.NewDataBuffer(1)
			return script(r, recv(c, 0, 3, buf), do(func() { got = buf.Data[0] }))
		}
		return script(r, sleep(10*sim.Millisecond), send(c, 1, 3, gpu.WrapData([]float32{5}), topology.ModeAuto))
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Errorf("payload = %v, want 5", got)
	}
}

func TestTagMatching(t *testing.T) {
	// Two messages with different tags must match their own receives
	// regardless of posting order.
	w := newWorld(t, 2, 1, 2)
	c := w.WorldComm()
	var a, b float32
	_, err := w.RunSteps(func(r *Rank) sim.Stepper {
		if r.ID == 0 {
			return script(r,
				send(c, 1, 100, gpu.WrapData([]float32{100}), topology.ModeAuto),
				send(c, 1, 200, gpu.WrapData([]float32{200}), topology.ModeAuto))
		}
		bufB := gpu.NewDataBuffer(1)
		bufA := gpu.NewDataBuffer(1)
		return script(r,
			recv(c, 0, 200, bufB), // posted in reverse tag order
			recv(c, 0, 100, bufA),
			do(func() { a, b = bufA.Data[0], bufB.Data[0] }))
	})
	if err != nil {
		t.Fatal(err)
	}
	if a != 100 || b != 200 {
		t.Errorf("tag matching delivered a=%v b=%v", a, b)
	}
}

func TestMessageOrderPreservedPerTag(t *testing.T) {
	w := newWorld(t, 2, 1, 2)
	c := w.WorldComm()
	var got []float32
	_, err := w.RunSteps(func(r *Rank) sim.Stepper {
		var ops []scriptOp
		if r.ID == 0 {
			for i := 1; i <= 3; i++ {
				ops = append(ops, send(c, 1, 9, gpu.WrapData([]float32{float32(i)}), topology.ModeAuto))
			}
		} else {
			for i := 0; i < 3; i++ {
				buf := gpu.NewDataBuffer(1)
				ops = append(ops, recv(c, 0, 9, buf), do(func() { got = append(got, buf.Data[0]) }))
			}
		}
		return script(r, ops...)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float32{1, 2, 3} {
		if got[i] != want {
			t.Fatalf("order = %v", got)
		}
	}
}

func TestSizeMismatchFailsRun(t *testing.T) {
	w := newWorld(t, 2, 1, 2)
	c := w.WorldComm()
	_, err := w.RunSteps(func(r *Rank) sim.Stepper {
		if r.ID == 0 {
			return script(r, send(c, 1, 1, gpu.NewDataBuffer(2), topology.ModeAuto))
		}
		return script(r, recv(c, 0, 1, gpu.NewDataBuffer(3)))
	})
	if err == nil {
		t.Fatal("expected error on message size mismatch")
	}
}

func TestCommSubAndRanks(t *testing.T) {
	w := newWorld(t, 2, 2, 4)
	c := w.WorldComm()
	sub := c.Sub([]int{2, 0})
	if sub.Size() != 2 {
		t.Fatalf("sub size = %d, want 2", sub.Size())
	}
	if sub.WorldRank(0) != 2 || sub.WorldRank(1) != 0 {
		t.Errorf("sub group = [%d %d], want [2 0]", sub.WorldRank(0), sub.WorldRank(1))
	}
	if sub.GroupRank(2) != 0 || sub.GroupRank(0) != 1 || sub.GroupRank(3) != -1 {
		t.Errorf("GroupRank mapping wrong")
	}
	if !sub.Contains(w.Ranks[0]) || sub.Contains(w.Ranks[1]) {
		t.Error("Contains mapping wrong")
	}
}

func TestSplitChains(t *testing.T) {
	w := newWorld(t, 4, 4, 16)
	c := w.WorldComm()
	chains, leaders := c.SplitChains(8)
	if len(chains) != 2 {
		t.Fatalf("chains = %d, want 2", len(chains))
	}
	if chains[0].Size() != 8 || chains[1].Size() != 8 {
		t.Errorf("chain sizes = %d,%d, want 8,8", chains[0].Size(), chains[1].Size())
	}
	if leaders.Size() != 2 || leaders.WorldRank(0) != 0 || leaders.WorldRank(1) != 8 {
		t.Errorf("leaders = %v ranks", leaders.Size())
	}
	// Uneven split.
	chains2, leaders2 := c.SplitChains(5)
	if len(chains2) != 4 || chains2[3].Size() != 1 || leaders2.Size() != 4 {
		t.Errorf("uneven split: %d chains, last %d, %d leaders",
			len(chains2), chains2[len(chains2)-1].Size(), leaders2.Size())
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	w := newWorld(t, 2, 2, 4)
	c := w.WorldComm()
	var after [4]sim.Time
	_, err := w.RunSteps(func(r *Rank) sim.Stepper {
		return script(r,
			sleep(sim.Duration(r.ID)*sim.Millisecond), // skewed arrival
			barrier(c),
			do(func() { after[r.ID] = r.Now() }))
	})
	if err != nil {
		t.Fatal(err)
	}
	// No rank may leave the barrier before the last arrival (3ms).
	for i, ts := range after {
		if ts < 3*sim.Millisecond {
			t.Errorf("rank %d left barrier at %v, before last arrival", i, ts)
		}
	}
}

func TestBcastDeliversToAll(t *testing.T) {
	w := newWorld(t, 2, 2, 4)
	c := w.WorldComm()
	var got [4]float32
	_, err := w.RunSteps(func(r *Rank) sim.Stepper {
		buf := gpu.NewDataBuffer(4)
		if r.ID == 0 {
			buf.Fill(3.5)
		}
		return script(r, bcast(c, 0, buf, topology.ModeAuto), do(func() { got[r.ID] = buf.Data[0] }))
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != 3.5 {
			t.Errorf("rank %d got %v, want 3.5", i, v)
		}
	}
}

func TestBcastNonZeroRoot(t *testing.T) {
	w := newWorld(t, 2, 2, 4)
	c := w.WorldComm()
	var got [4]float32
	_, err := w.RunSteps(func(r *Rank) sim.Stepper {
		buf := gpu.NewDataBuffer(1)
		if r.ID == 2 {
			buf.Fill(9)
		}
		return script(r, bcast(c, 2, buf, topology.ModeAuto), do(func() { got[r.ID] = buf.Data[0] }))
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != 9 {
			t.Errorf("rank %d got %v, want 9", i, v)
		}
	}
}

func TestIbcastOverlapsCompute(t *testing.T) {
	// The whole point of the offloaded engine: a rank that posts
	// Ibcast and then computes should find the data already delivered
	// when it calls Wait, paying (almost) nothing.
	w := newWorld(t, 2, 1, 2)
	c := w.WorldComm()
	var waitCost sim.Duration
	_, err := w.RunSteps(func(r *Rank) sim.Stepper {
		buf := gpu.NewDataBuffer(1 << 20 / 4)
		if r.ID == 0 {
			buf.Fill(1)
			return script(r, bcast(c, 0, buf, topology.ModeAuto))
		}
		var req *Request
		var before sim.Time
		return script(r,
			do(func() { req = r.Ibcast(c, 0, buf, topology.ModeAuto) }),
			sleep(100*sim.Millisecond), // long compute
			do(func() { before = r.Now() }),
			await(&req),
			do(func() { waitCost = r.Now() - before }))
	})
	if err != nil {
		t.Fatal(err)
	}
	if waitCost != 0 {
		t.Errorf("Wait after long compute cost %v; Ibcast should have progressed in hardware", waitCost)
	}
}

func TestIbcastMatchingBySequence(t *testing.T) {
	// Two back-to-back Ibcasts on one comm must pair up by call order
	// even though ranks post at different times.
	w := newWorld(t, 2, 1, 2)
	c := w.WorldComm()
	var first, second float32
	_, err := w.RunSteps(func(r *Rank) sim.Stepper {
		b1 := gpu.NewDataBuffer(1)
		b2 := gpu.NewDataBuffer(1)
		var q1, q2 *Request
		post := do(func() {
			q1 = r.Ibcast(c, 0, b1, topology.ModeAuto)
			q2 = r.Ibcast(c, 0, b2, topology.ModeAuto)
		})
		if r.ID == 0 {
			b1.Fill(1)
			b2.Fill(2)
			return script(r, post, await(&q1), await(&q2))
		}
		return script(r,
			sleep(5*sim.Millisecond),
			post, await(&q1), await(&q2),
			do(func() { first, second = b1.Data[0], b2.Data[0] }))
	})
	if err != nil {
		t.Fatal(err)
	}
	if first != 1 || second != 2 {
		t.Errorf("sequence matching delivered %v,%v want 1,2", first, second)
	}
}

func TestBcastLargeComm(t *testing.T) {
	w := newWorld(t, 4, 4, 13) // non-power-of-two
	c := w.WorldComm()
	ok := true
	_, err := w.RunSteps(func(r *Rank) sim.Stepper {
		buf := gpu.NewDataBuffer(64)
		if r.ID == 0 {
			buf.Fill(7)
		}
		return script(r, bcast(c, 0, buf, topology.ModeAuto), do(func() {
			for _, v := range buf.Data {
				if v != 7 {
					ok = false
				}
			}
		}))
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("binomial bcast failed to deliver to all 13 ranks")
	}
}

func TestSendToSelfFailsRun(t *testing.T) {
	w := newWorld(t, 1, 2, 2)
	c := w.WorldComm()
	_, err := w.RunSteps(func(r *Rank) sim.Stepper {
		if r.ID == 0 {
			return script(r, send(c, 0, 1, gpu.NewBuffer(4), topology.ModeAuto))
		}
		return script(r)
	})
	if err == nil {
		t.Fatal("expected error on self-send")
	}
}

func TestWorldTooManyRanksPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic when ranks exceed GPUs")
		}
	}()
	k := sim.New()
	c := topology.New(k, "t", 1, 2, topology.DefaultParams())
	NewWorld(c, 3)
}

func TestOnCompleteFiresAtCompletionTime(t *testing.T) {
	// Rendezvous-sized Isend: the hook must fire when the transfer
	// finishes (after the late receiver arrives), the instant the wait
	// for the request ends.
	w := newWorld(t, 2, 1, 2)
	c := w.WorldComm()
	var hookAt, completedAt sim.Time
	_, err := w.RunSteps(func(r *Rank) sim.Stepper {
		if r.ID == 0 {
			var req *Request
			return script(r,
				do(func() {
					req = r.Isend(c, 1, 7, gpu.NewBuffer(1<<20), topology.ModeAuto)
					req.OnComplete(func() { hookAt = r.Now() })
					if req.done.Fired() {
						t.Error("rendezvous send completed before the receiver posted")
					}
				}),
				await(&req),
				do(func() { completedAt = r.Now() }))
		}
		return script(r, sleep(500), recv(c, 0, 7, gpu.NewBuffer(1<<20)))
	})
	if err != nil {
		t.Fatal(err)
	}
	if hookAt < 500 {
		t.Errorf("hook fired at %v, before the receiver arrived at 500", hookAt)
	}
	if hookAt != completedAt {
		t.Errorf("hook time %v != completion time %v", hookAt, completedAt)
	}
}

func TestOnCompleteAfterCompletionRunsImmediately(t *testing.T) {
	// Eager send: already complete when the hook registers; the hook
	// still runs (scheduled for the current instant).
	w := newWorld(t, 1, 2, 2)
	c := w.WorldComm()
	fired := false
	_, err := w.RunSteps(func(r *Rank) sim.Stepper {
		if r.ID == 0 {
			var req *Request
			return script(r,
				do(func() {
					req = r.Isend(c, 1, 7, gpu.NewBuffer(64), topology.ModeAuto)
					if !req.done.Fired() {
						t.Error("eager send should complete immediately")
					}
					req.OnComplete(func() { fired = true })
				}),
				await(&req))
		}
		return script(r, recv(c, 0, 7, gpu.NewBuffer(64)))
	})
	if err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Error("hook on an already-completed request never ran")
	}
}

// TestNewWorldAllocsPerRank: a world's ranks, devices and match tables
// are carved from one block each, so building one costs the same dozen
// allocations at any size — well under one per rank at 16 ranks, and a
// tenth of that at 160. One allocation per rank anywhere would cross
// the bound.
func TestNewWorldAllocsPerRank(t *testing.T) {
	const budget = 1.0
	var total [2]float64
	for i, ranks := range []int{16, 160} {
		c := topology.New(sim.New(), "test", ranks/16, 16, topology.DefaultParams())
		total[i] = testing.AllocsPerRun(20, func() { NewWorld(c, ranks) })
		t.Logf("%d ranks: %.0f allocations", ranks, total[i])
		if per := total[i] / float64(ranks); per >= budget {
			t.Errorf("NewWorld of %d ranks made %.0f allocations, %.2f per rank; budget %.0f", ranks, total[i], per, budget)
		}
	}
	if total[0] != total[1] {
		t.Errorf("NewWorld made %.0f allocations at 16 ranks and %.0f at 160; want the same", total[0], total[1])
	}
}
