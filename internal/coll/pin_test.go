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
	name string
	// call builds the family over c and returns one rank's part of it.
	call func(c *mpi.Comm, o Options) func(r *mpi.Rank, buf *gpu.Buffer)
}

// families lists every reducer family.
func families() []family {
	var fams []family
	for a := Algorithm(0); a.String() != "unknown"; a++ {
		fams = append(fams, family{a.String(), func(c *mpi.Comm, o Options) func(*mpi.Rank, *gpu.Buffer) {
			red := NewReducer(c, a, o)
			return func(r *mpi.Rank, buf *gpu.Buffer) { red.Reduce(r, buf, 10) }
		}})
	}
	return append(fams, family{"ring", func(c *mpi.Comm, o Options) func(*mpi.Rank, *gpu.Buffer) {
		ring := NewRing(c, o)
		return func(r *mpi.Rank, buf *gpu.Buffer) { ring.Allreduce(r, buf, 100) }
	}})
}

// pinRun runs one payload-free collective of family f over p ranks (4
// GPUs a node) and renders its timing: the run's end, then the virtual
// time at which each rank's call returned, in ns. With a quantum the
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
	call := f.call(w.WorldComm(), DefaultOptions())
	returned := make([]sim.Time, p)
	end, err := w.Run(func(r *mpi.Rank) {
		call(r, gpu.NewBuffer(bytes))
		returned[r.ID] = r.Now()
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
// reducers before any of them ran as steps. One armed row per family
// adds the deadline expiries an armed plane counts.
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
