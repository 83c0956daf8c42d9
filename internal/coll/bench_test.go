package coll

import (
	"bytes"
	"runtime"
	"strconv"
	"testing"

	"scaffe/internal/mpi"
	"scaffe/internal/sim"
)

// goroutineIDs is the set of the process's goroutines, by ID, as
// runtime.Stack lists them ("goroutine 7 [running]:" heads each).
func goroutineIDs() map[uint64]bool {
	buf := make([]byte, 1<<16)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	ids := map[uint64]bool{}
	for _, line := range bytes.Split(buf, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("goroutine ")); ok {
			if id, err := strconv.ParseUint(string(rest[:bytes.IndexByte(rest, ' ')]), 10, 64); err == nil {
				ids[id] = true
			}
		}
	}
	return ids
}

// TestLatencyDriversMakeNoGoroutine: the reduce and broadcast latency
// drivers run a 160-rank world with no goroutine switch at all, and
// start no goroutine: every goroutine alive mid-run or after the run was
// alive before it (one that exits meanwhile, an earlier test's, does not
// count). They end where the blocking drivers they replaced ended, and
// every resume those made is a step here, but the one that finishes each
// rank: end and resumes are the blocking drivers' end time and resume
// count.
func TestLatencyDriversMakeNoGoroutine(t *testing.T) {
	runs := []struct {
		name    string
		run     func(w *mpi.World) (sim.Duration, error)
		end     sim.Time
		resumes uint64
	}{
		{"HR 4KiB", func(w *mpi.World) (sim.Duration, error) {
			return ReduceLatency(w, Tuned, DefaultOptions(), 4<<10, 2)
		}, 1479192, 10271},
		{"HR 64MiB", func(w *mpi.World) (sim.Duration, error) {
			return ReduceLatency(w, Tuned, DefaultOptions(), 64<<20, 2)
		}, 154189658, 67661},
		{"CCB 1MiB", func(w *mpi.World) (sim.Duration, error) {
			return ReduceLatency(w, ChainChainBinomial, DefaultOptions(), 1<<20, 1)
		}, 3484666, 9075},
		{"Ibcast overlapped", func(w *mpi.World) (sim.Duration, error) {
			return IbcastLatency(w, 8<<20, 100*sim.Microsecond)
		}, 10581176, 3187},
	}
	for _, tc := range runs {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t, 10, 16, 160)
			// An event mid-run lists them on the event loop, where every
			// node action runs.
			var during map[uint64]bool
			before := goroutineIDs()
			w.K.At(1, func() { during = goroutineIDs() })
			lat, err := tc.run(w)
			if err != nil || lat <= 0 {
				t.Fatalf("latency %v, error %v", lat, err)
			}
			if r := w.K.Resumes(); r.Switches != 0 || r.Steps != tc.resumes-160 {
				t.Errorf("resumes %+v, want %d steps and no switch", r, tc.resumes-160)
			}
			if end := w.K.Now(); end != tc.end {
				t.Errorf("run ended at %d ns, want %d", int64(end), int64(tc.end))
			}
			after := goroutineIDs()
			if during == nil {
				t.Fatal("the mid-run event never ran")
			}
			for id := range during {
				if !before[id] {
					t.Errorf("goroutine %d started during the run", id)
				}
			}
			for id := range after {
				if !before[id] && !during[id] {
					t.Errorf("goroutine %d started during the run and outlived it", id)
				}
			}
		})
	}
}

// TestChainReleasesSendsAsTheyComplete bounds the heap a fresh 160-rank
// chain reduce of 64 MiB (64 chunks) takes, reducer and all: an interior
// rank releases each forwarded chunk's send once it has completed
// (mpi.Rank.Reap), so it holds a chunk or two of sends, not one request
// per chunk until the join. Measured: 0.44 MB; 2.14 MB when every send
// was kept to the join. The budget is 4 KiB per rank.
func TestChainReleasesSendsAsTheyComplete(t *testing.T) {
	const ranks, budget = 160, 160 * 4096
	w := newWorld(t, 10, 16, ranks)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ReduceLatency(w, Chain, DefaultOptions(), 64<<20, 5); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d bytes, %d objects", bytes, after.Mallocs-before.Mallocs)
	if bytes > budget {
		t.Errorf("a 64 MiB chain reduce over %d ranks took %d bytes, budget %d: sends are kept past their completion again", ranks, bytes, budget)
	}
	for _, r := range w.Ranks {
		if n := r.LiveRequests(); n != 0 {
			t.Errorf("rank %d ended with %d live requests", r.ID, n)
		}
	}
}
