package mpi

import (
	"testing"

	"scaffe/internal/gpu"
	"scaffe/internal/sim"
	"scaffe/internal/topology"
)

// Second-round semantics tests: timing properties of the runtime that
// the co-designs rely on, beyond basic correctness.

func TestIbcastRootCompletesAfterItsSends(t *testing.T) {
	// The root's request must not fire before its direct tree sends
	// finish (it may not reuse the buffer earlier); and for a large
	// buffer that completion is meaningfully later than the post.
	w := newWorld(t, 4, 1, 4)
	c := w.WorldComm()
	var rootDone, posted sim.Time
	_, err := w.RunSteps(func(r *Rank) sim.Stepper {
		buf := gpu.NewBuffer(32 << 20)
		var req *Request
		return script(r,
			do(func() {
				req = r.Ibcast(c, 0, buf, topology.ModeAuto)
				if r.ID == 0 {
					posted = r.Now()
				}
			}),
			await(&req),
			do(func() {
				if r.ID == 0 {
					rootDone = r.Now()
				}
			}))
	})
	if err != nil {
		t.Fatal(err)
	}
	if rootDone <= posted {
		t.Errorf("root Ibcast completed instantly (%v); must wait for its sends", rootDone)
	}
}

func TestIbcastLeafLatencyGrowsWithDepth(t *testing.T) {
	// Binomial delivery: a deeper leaf receives later than the root's
	// first child.
	w := newWorld(t, 8, 1, 8)
	c := w.WorldComm()
	arrivals := make([]sim.Time, 8)
	_, err := w.RunSteps(func(r *Rank) sim.Stepper {
		buf := gpu.NewBuffer(8 << 20)
		return script(r, bcast(c, 0, buf, topology.ModeAuto), do(func() { arrivals[r.ID] = r.Now() }))
	})
	if err != nil {
		t.Fatal(err)
	}
	// Rank 4 is a direct child; rank 7 is at depth 3 (4 -> 6 -> 7).
	if arrivals[7] <= arrivals[4] {
		t.Errorf("depth-3 leaf (%v) should receive after the depth-1 child (%v)", arrivals[7], arrivals[4])
	}
}

func TestTwoCommsAreIndependentTagSpaces(t *testing.T) {
	// The same tag on two communicators must not cross-match.
	w := newWorld(t, 2, 2, 4)
	world := w.WorldComm()
	sub1 := world.Sub([]int{0, 1})
	sub2 := world.Sub([]int{2, 3})
	var got1, got2 float32
	_, err := w.RunSteps(func(r *Rank) sim.Stepper {
		buf := gpu.NewDataBuffer(1)
		switch r.ID {
		case 0:
			return script(r, send(sub1, 1, 5, gpu.WrapData([]float32{10}), topology.ModeAuto))
		case 1:
			return script(r, recv(sub1, 0, 5, buf), do(func() { got1 = buf.Data[0] }))
		case 2:
			return script(r, send(sub2, 1, 5, gpu.WrapData([]float32{20}), topology.ModeAuto))
		default:
			return script(r, recv(sub2, 0, 5, buf), do(func() { got2 = buf.Data[0] }))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got1 != 10 || got2 != 20 {
		t.Errorf("cross-comm leakage: got %v and %v", got1, got2)
	}
}

func TestIntraNodeFasterThanInterNodeMessage(t *testing.T) {
	// Placement matters: IPC neighbors beat cross-node pipelining for
	// the same payload.
	elapsed := func(ranks func() (*World, int, int)) sim.Duration {
		w, from, to := ranks()
		c := w.WorldComm()
		var done sim.Time
		_, err := w.RunSteps(func(r *Rank) sim.Stepper {
			buf := gpu.NewBuffer(16 << 20)
			switch r.ID {
			case from:
				return script(r, send(c, to, 1, buf, topology.ModeAuto))
			case to:
				return script(r, recv(c, from, 1, gpu.NewBuffer(16<<20)), do(func() { done = r.Now() }))
			}
			return script(r)
		})
		if err != nil {
			t.Fatal(err)
		}
		return done
	}
	intra := elapsed(func() (*World, int, int) { return newWorld(t, 1, 2, 2), 0, 1 })
	inter := elapsed(func() (*World, int, int) { return newWorld(t, 2, 1, 2), 0, 1 })
	if intra >= inter {
		t.Errorf("intra-node message (%v) should beat inter-node (%v)", intra, inter)
	}
}

func TestBarrierSingleRank(t *testing.T) {
	w := newWorld(t, 1, 1, 1)
	c := w.WorldComm()
	_, err := w.RunSteps(func(r *Rank) sim.Stepper {
		return script(r, barrier(c)) // must not deadlock
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeviceAccessor(t *testing.T) {
	w := newWorld(t, 2, 2, 4)
	c := w.WorldComm()
	d := c.Device(3)
	if d.Node != 1 || d.Local != 1 {
		t.Errorf("rank 3 device = %v, want n1g1", d)
	}
}

// stepFunc is a sim.Stepper written as a function.
type stepFunc func(p *sim.Proc) bool

func (f stepFunc) Step(p *sim.Proc) bool { return f(p) }

func TestSpawnThreadSharesVirtualTime(t *testing.T) {
	w := newWorld(t, 1, 1, 1)
	var mainSaw, helperSaw sim.Time
	_, err := w.RunSteps(func(r *Rank) sim.Stepper {
		done := r.W.K.NewCompletion()
		slept := false
		return script(r,
			do(func() {
				r.SpawnThread("helper", stepFunc(func(p *sim.Proc) bool {
					if !slept {
						slept = true
						p.ArmUntil(p.Now() + 7*sim.Millisecond)
						return false
					}
					helperSaw = p.Now()
					done.Fire()
					return true
				}))
			}),
			awaitFire(done),
			do(func() { mainSaw = r.Now() }))
	})
	if err != nil {
		t.Fatal(err)
	}
	if mainSaw != helperSaw || mainSaw != 7*sim.Millisecond {
		t.Errorf("thread handshake at %v / %v, want 7ms", mainSaw, helperSaw)
	}
}
