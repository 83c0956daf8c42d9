package experiments

import (
	"fmt"
	"os"
	"path/filepath"

	"scaffe/internal/coll"
	"scaffe/internal/core"
	"scaffe/internal/data"
	"scaffe/internal/fault"
	"scaffe/internal/layers"
	"scaffe/internal/models"
	"scaffe/internal/sim"
)

// Elastic sweeps membership churn rate against snapshot interval for
// the elastic scale-up extension: every crashed rank is later
// readmitted through the join path (announce, admit at an iteration
// boundary, catch-up replay from the latest snapshot), and each
// scenario is compared against the static-shrink baseline that absorbs
// the same crashes but never grows back. The interesting trade: a
// rejoin costs an extra rollback at admission time, but the grown
// world finishes the remaining iterations at the original sharding
// instead of limping along with fewer, more loaded ranks.
func Elastic(o Options) (*Table, error) {
	iters := o.iters(48)
	if iters < 16 {
		iters = 16
	}
	dir, err := os.MkdirTemp("", "scaffe-elastic")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	mk := func(name string, snapshotEvery int) core.Config {
		cfg := core.Config{
			Spec:        models.SpecFromNet(models.BuildTinyNet(1, 1)),
			RealNet:     models.BuildTinyNet,
			Dataset:     data.NewSynthetic("tiny", layers.Shape{C: 3, H: 8, W: 8}, 4, 1<<16, 11),
			GPUs:        4,
			Nodes:       2,
			GPUsPerNode: 2,
			GlobalBatch: 32,
			Iterations:  iters,
			Design:      core.SCOB,
			Reduce:      coll.Binomial,
			Source:      core.MemorySource,
			Seed:        7,
			BaseLR:      0.05,
			Momentum:    0.9,
		}
		if snapshotEvery > 0 {
			cfg.SnapshotEvery = snapshotEvery
			cfg.SnapshotPrefix = filepath.Join(dir, name)
		}
		return cfg
	}

	// Calibrate the virtual timescale with a fault-free run, so event
	// times derive from the config instead of hardcoding cluster speed.
	base, err := core.Run(mk("base", 0))
	if err != nil {
		return nil, err
	}
	baseT := base.TotalTime

	t := &Table{
		ID: "elastic",
		Title: fmt.Sprintf("Churn rate vs snapshot interval: elastic scale-up against the static-shrink baseline (tiny net, 4 GPUs, %d iterations)",
			iters),
		Columns: []string{"churn", "snapshot every", "joins", "mean admit",
			"final world", "elastic time", "static-shrink time", "vs static"},
	}

	// Crash ranks from the top so the root (and the loss record)
	// survives every scenario; each crash is followed by a rejoin of
	// the same rank before the next cycle begins.
	crashRanks := []int{3, 2}
	at := func(f float64) sim.Time { return sim.Time(float64(baseT) * f) }
	for _, cycles := range []int{1, 2} {
		var churn, shrinkOnly fault.Schedule
		for i := 0; i < cycles; i++ {
			crash := at(0.2 + float64(0.35*float64(i)))
			rejoin := at(0.35 + float64(0.35*float64(i)))
			churn = append(churn,
				fault.Event{At: crash, Kind: fault.Crash, Rank: crashRanks[i]},
				fault.Event{At: rejoin, Kind: fault.Join, Rank: crashRanks[i]})
			shrinkOnly = append(shrinkOnly,
				fault.Event{At: crash, Kind: fault.Crash, Rank: crashRanks[i]})
		}
		for _, every := range []int{iters / 12, iters / 6, iters / 3} {
			if every == 0 {
				every = 1
			}
			name := fmt.Sprintf("c%d-e%d", cycles, every)
			elCfg := mk(name+"-el", every)
			elCfg.Faults = churn
			el, err := core.Run(elCfg)
			if err != nil {
				return nil, fmt.Errorf("elastic experiment (%s): %w", name, err)
			}
			shCfg := mk(name+"-sh", every)
			shCfg.Faults = shrinkOnly
			sh, err := core.Run(shCfg)
			if err != nil {
				return nil, fmt.Errorf("elastic experiment (%s baseline): %w", name, err)
			}
			rep := el.Fault
			var admit sim.Duration
			for _, j := range rep.Joins {
				admit += j.AdmissionLatency()
			}
			if n := len(rep.Joins); n > 0 {
				admit /= sim.Duration(n)
			}
			delta := 100 * (float64(el.TotalTime) - float64(sh.TotalTime)) / float64(sh.TotalTime)
			t.AddRow(
				fmt.Sprintf("%d crash+rejoin", cycles),
				fmt.Sprintf("%d iters", every),
				fmt.Sprintf("%d", len(rep.Joins)),
				admit.String(),
				fmt.Sprintf("%d vs %d", rep.Survivors, sh.Fault.Survivors),
				el.TotalTime.String(), sh.TotalTime.String(),
				fmt.Sprintf("%+.1f%%", delta))
		}
	}
	t.Note("Every rejoin announces at the join desk, is admitted by the root at the next iteration boundary, and triggers a catch-up replay: all members roll back to the latest snapshot and the root tree-broadcasts parameters+momentum to the grown world (checksummed when the integrity plane is armed). Mean admit is announce-to-admission latency — dominated by waiting out the current iteration, not by the handshake itself.")
	t.Note("\"vs static\" compares against absorbing the same crashes without ever growing back. The rejoin's extra rollback is repaid over the remaining iterations by the grown world's lighter per-rank shard; at this tiny scale the replay dominates (small positive overhead, shrinking with the snapshot interval), while the baseline permanently runs on fewer, more loaded ranks and ends the training below its provisioned size.")
	return t, nil
}
