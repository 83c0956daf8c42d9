package core

import (
	"path/filepath"
	"runtime"
	"testing"

	"scaffe/internal/fault"
	"scaffe/internal/sim"
)

// TestTrainingRunMakesNoGoroutine: every proc of a training run — each
// rank's loop, each helper lane, each data reader, a rank respawned to
// rejoin — is a stepper with no goroutine, so a run makes no goroutine
// switch, and a timing-mode run starts no goroutine at all: sampled from
// a kernel callback halfway through, runtime.NumGoroutine() is what it
// was before the run. The runs are TestDesignRunsPinned's — every
// design fault-free and armed-untripped, a crash and rejoin, checksum
// retransmissions, a watchdog trip — and one real-mode schedule that
// crashes a rank, recovers without it, admits it back, retransmits a
// corrupted chunk and trips the watchdog.
func TestTrainingRunMakesNoGoroutine(t *testing.T) {
	runs := pinRuns(t)
	halfway := make([]sim.Time, len(runs))
	for i := range runs {
		halfway[i] = designPins[i].total / 2
	}
	dir := t.TempDir()
	drill := tinyRealConfig(4, 32, 24)
	drill.SnapshotEvery = 4
	drill.SnapshotPrefix = filepath.Join(dir, "calib")
	total := midRun(t, drill, 1)
	at := func(frac float64) sim.Time { return sim.Time(float64(total) * frac) }
	drill.SnapshotPrefix = filepath.Join(dir, "drill")
	drill.Integrity = IntegrityRecover
	drill.Faults = fault.Schedule{
		{At: at(0.2), Kind: fault.CorruptWire, Src: 1, Dst: 0, N: 1},
		{At: at(0.45), Kind: fault.Crash, Rank: 3},
		{At: at(0.72), Kind: fault.Join, Rank: 3},
		{At: at(0.73), Kind: fault.BitFlip, Rank: 0, Word: 64, Bit: 30},
	}
	runs = append(runs, pinRun{"crash-recover-join-retransmit-watchdog", func() Config { return drill }})
	halfway = append(halfway, at(0.5))

	for i, pr := range runs {
		cfg := pr.cfg()
		before, during := runtime.NumGoroutine(), -1
		res, _, err := run(cfg, func(k *sim.Kernel) {
			k.At(halfway[i], func() { during = runtime.NumGoroutine() })
		})
		if err != nil {
			t.Fatalf("%s: %v", pr.name, err)
		}
		if rs := res.Resumes; rs.Switches != 0 || rs.Steps == 0 {
			t.Errorf("%s: resumes %+v, want every one a step or a finish", pr.name, rs)
		}
		if cfg.RealNet == nil && during != before {
			t.Errorf("%s: %d goroutines halfway through the run, %d before it", pr.name, during, before)
		}
		if i == len(runs)-1 {
			f, in := res.Fault, res.Integrity
			if f.Crashes != 1 || len(f.Recoveries) != 1 || len(f.Joins) != 1 || in.Retransmitted == 0 || in.WatchdogTrips == 0 {
				t.Errorf("%s: the drill did not take every path: %v, %v", pr.name, f, in)
			}
		}
	}
}
