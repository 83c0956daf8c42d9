package coll

import (
	"runtime"
	"testing"

	"scaffe/internal/mpi"
	"scaffe/internal/sim"
)

// settledGoroutines is the goroutine count once goroutines that earlier
// tests' runs let go have exited.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		runtime.Gosched()
		if m := runtime.NumGoroutine(); m != n {
			n, i = m, 0
		}
	}
	return n
}

// TestLatencyDriversMakeNoGoroutine: the reduce and broadcast latency
// drivers run a 160-rank world with no goroutine switch at all, and
// start no goroutine: mid-run there are as many as before the run. They
// end where the blocking drivers they replaced ended, and every resume
// those made is a step here, but the one that finishes each rank: end and
// resumes are the blocking drivers' end time and resume count.
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
			// An event mid-run counts them on the event loop, where every
			// node action runs.
			before, during := settledGoroutines(), -1
			w.K.At(1, func() { during = runtime.NumGoroutine() })
			lat, err := tc.run(w)
			if err != nil || lat <= 0 {
				t.Fatalf("latency %v, error %v", lat, err)
			}
			if r := w.K.Resumes(); r.Switches != 0 || r.SelfContinues != 0 || r.Steps != tc.resumes-160 {
				t.Errorf("resumes %+v, want %d steps and no switch", r, tc.resumes-160)
			}
			if end := w.K.Now(); end != tc.end {
				t.Errorf("run ended at %d ns, want %d", int64(end), int64(tc.end))
			}
			if during != before {
				t.Errorf("%d goroutines during the run, %d before it", during, before)
			}
		})
	}
}
