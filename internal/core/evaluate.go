package core

import (
	"fmt"

	"scaffe/internal/data"
	"scaffe/internal/mpi"
	"scaffe/internal/sched"
	"scaffe/internal/sim"
	"scaffe/internal/solver"
	"scaffe/internal/tensor"
)

// This file implements the real-mode solver extras: the testing phase
// (held-out accuracy, as Caffe reports during training), snapshotting,
// resume, and learning-rate policy selection.

// buildPolicy maps the config's Caffe-style policy fields onto a
// solver.LRPolicy.
func buildPolicy(cfg *Config) (solver.LRPolicy, error) {
	lr := cfg.BaseLR
	if lr == 0 {
		lr = 0.01
	}
	switch cfg.LRPolicy {
	case "", "fixed":
		return solver.Fixed{Base: lr}, nil
	case "step":
		if cfg.StepSize <= 0 {
			return nil, fmt.Errorf("core: step policy needs a positive StepSize")
		}
		gamma := cfg.Gamma
		if gamma == 0 {
			gamma = 0.1
		}
		return solver.Step{Base: lr, Gamma: gamma, StepSize: cfg.StepSize}, nil
	case "inv":
		return solver.Inv{Base: lr, Gamma: cfg.Gamma, Power: cfg.Power}, nil
	case "poly":
		return solver.Poly{Base: lr, Power: cfg.Power, MaxIter: cfg.Iterations}, nil
	}
	return nil, fmt.Errorf("core: unknown LR policy %q", cfg.LRPolicy)
}

// buildTestPass builds the root solver's testing phase (real mode): one
// timed node per test batch, each a forward pass over a held-out slice of
// the dataset (the tail region, which the training index order only
// reaches after wrapping) whose kernels are charged to the device, then
// the mean accuracy recorded.
func (st *runState) buildTestPass() *sched.Plan {
	cfg := st.cfg
	batches := cfg.TestBatches
	if batches <= 0 {
		batches = 2
	}
	f := sched.NewPlan()
	for tb := 0; tb < batches; tb++ {
		f.AddTimed(0, sched.ComputeForward, "", "", func(x *sched.Ctx) sim.Time {
			w := st.wl[x.R.ID]
			if tb == 0 {
				st.testCorrect = 0
			}
			ds := cfg.Dataset
			testStart := max(ds.Len()-batches*w.localBatch, 0)
			img, labels := data.BatchTensor(ds, testStart+tb*w.localBatch, w.localBatch)
			sh := ds.Shape()
			w.net.Forward(tensor.FromSlice(img, w.localBatch, sh.C, sh.H, sh.W), labels)
			st.testCorrect += tensor.Accuracy(w.net.Probs().Data, w.localBatch, ds.Classes(), labels)
			_, end := x.R.Dev.LaunchCompute(x.P.Now(), cfg.Spec.FwdFLOPs()*float64(w.localBatch))
			return end
		})
	}
	f.Add(0, sched.Generic, "", "", func(*sched.Ctx) {
		st.accuracies = append(st.accuracies, st.testCorrect/float64(batches))
	})
	f.Seal()
	return f
}

// maybeSnapshot writes the root solver's snapshot at its configured
// interval (real mode, after ApplyUpdate and any testing phase).
func (st *runState) maybeSnapshot(r *mpi.Rank, w *workload, iter int) {
	cfg := st.cfg
	if cfg.SnapshotEvery > 0 && (iter+1)%cfg.SnapshotEvery == 0 {
		if st.ft.SnapshotFailing(r.Now()) {
			// An injected snapshot-write failure: the write is skipped
			// (and counted); the previous snapshot stays the rollback
			// point, exactly as the crash-safe rename guarantees for a
			// real interrupted write.
			return
		}
		w.packParams()
		path := snapshotPath(cfg.SnapshotPrefix, iter)
		snap := &Snapshot{Model: cfg.Spec.Name, Iteration: iter, Params: append([]float32(nil), w.packedParams.Data...)}
		snap.History = st.sgds[r.ID].PackHistory(w.net, nil)
		if err := WriteSnapshot(path, snap); err != nil {
			if st.fileErr == nil {
				st.fileErr = err
			}
			return
		}
		st.noteSnapshot(path, iter)
	}
}

// noteSnapshot records a written snapshot, deduplicating paths (a
// post-rollback replay rewrites the snapshots of the replayed span).
func (st *runState) noteSnapshot(path string, iter int) {
	for _, p := range st.snapshots {
		if p == path {
			return
		}
	}
	st.snapshots = append(st.snapshots, path)
	st.snapIters = append(st.snapIters, iter)
}

// resume restores every replica's parameters from a snapshot file (all
// replicas, so designs without a parameter broadcast also start
// consistent).
func (st *runState) resume(path string) error {
	snap, err := ReadSnapshot(path)
	if err != nil {
		return err
	}
	if snap.Model != st.cfg.Spec.Name {
		return fmt.Errorf("core: snapshot is for model %q, training %q", snap.Model, st.cfg.Spec.Name)
	}
	if len(snap.Params) != st.cfg.Spec.TotalParams() {
		return fmt.Errorf("core: snapshot has %d parameters, model needs %d", len(snap.Params), st.cfg.Spec.TotalParams())
	}
	for i, w := range st.wl {
		if !w.real() {
			continue
		}
		w.net.UnpackParams(snap.Params)
		if len(snap.History) > 0 {
			st.sgds[i].LoadHistory(w.net, snap.History)
		}
	}
	return nil
}
