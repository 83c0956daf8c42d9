package coll

import (
	"fmt"
	"strings"
	"testing"

	"scaffe/internal/fault"
	"scaffe/internal/gpu"
	"scaffe/internal/mpi"
	"scaffe/internal/sim"
)

// family is one reducer family: an Algorithm, or the ring allreduce.
type family struct {
	name  string
	tag   int // the tag of its calls
	build func(c *mpi.Comm, o Options) Reducer
}

// families lists every reducer family.
func families() []family {
	var fams []family
	for a := Algorithm(0); a.String() != "unknown"; a++ {
		fams = append(fams, family{a.String(), 10, func(c *mpi.Comm, o Options) Reducer { return NewReducer(c, a, o) }})
	}
	return append(fams, family{"ring", 100, func(c *mpi.Comm, o Options) Reducer { return NewRing(c, o) }})
}

// pinRun runs one payload-free collective of family f over p ranks (4
// GPUs a node), each rank's part a walk of its fragment, and renders its
// timing: the run's end, then the virtual time at which each rank's walk
// ended, in ns. With a quantum the
// world's plane is armed with it and never trips, and the line ends with
// the plane's deadline expiries.
func pinRun(t *testing.T, f family, p int, bytes int64, quantum sim.Duration) string {
	t.Helper()
	w := newWorld(t, (p+3)/4, 4, p)
	var pl *fault.Plane
	if quantum > 0 {
		pl = fault.NewPlane(w.K, p, quantum)
		w.Fault = pl
		pl.Arm(nil, fault.NopApplier{})
	}
	plan := reducePlan(f.build(w.WorldComm(), DefaultOptions()), nil)
	returned := make([]sim.Time, p)
	end, err := w.RunSteps(func(r *mpi.Rank) sim.Stepper {
		return &reduceCalls{r: r, plan: plan, bufs: []*gpu.Buffer{gpu.NewBuffer(bytes)}, tag: f.tag,
			ended: func(int) { returned[r.ID] = r.Now() }}
	})
	if err != nil {
		t.Fatalf("%s P=%d %d B: %v", f.name, p, bytes, err)
	}
	var b strings.Builder
	fmt.Fprint(&b, int64(end))
	for _, at := range returned {
		fmt.Fprint(&b, " ", int64(at))
	}
	if pl != nil {
		fmt.Fprint(&b, " retries=", pl.Report().Retries)
	}
	return b.String()
}

// TestReduceFamiliesPinned pins the event timing of every reducer family
// over communicator sizes that are powers of two and not, one to a node
// and many, and messages that go eager, pipelined and chunked: the run's
// end and every rank's return, recorded from the goroutine-blocking
// reducers before any of them ran as steps, and held since by the walks
// of their fragments. One armed row per family adds the deadline expiries
// an armed plane counts.
func TestReduceFamiliesPinned(t *testing.T) {
	check := func(key, got string) {
		t.Helper()
		want, ok := reducePins[key]
		if !ok {
			t.Errorf("%s: no pin; recorded %q", key, got)
		} else if got != want {
			t.Errorf("%s:\n got %s\nwant %s", key, got, want)
		}
	}
	for _, f := range families() {
		for _, p := range []int{2, 3, 8, 13, 33, 160} {
			for _, bytes := range []int64{4 << 10, 1 << 20, 64 << 20} {
				check(fmt.Sprintf("%s/%d/%d", f.name, p, bytes), pinRun(t, f, p, bytes, 0))
			}
		}
		check(f.name+"/armed", pinRun(t, f, 13, 1<<20, 50*sim.Microsecond))
	}
}
