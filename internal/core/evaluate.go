package core

import (
	"fmt"

	"scaffe/internal/data"
	"scaffe/internal/mpi"
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

// testPass runs the root solver's evaluation: forward passes over a
// held-out slice of the dataset (the tail region, which the training
// index order only reaches after wrapping), recording mean accuracy.
// The kernel time of the forward passes is charged to the device.
func (st *runState) testPass(r *mpi.Rank, w *workload, iter int) {
	cfg := st.cfg
	batches := cfg.TestBatches
	if batches <= 0 {
		batches = 2
	}
	ds := cfg.Dataset
	classes := ds.Classes()
	span := batches * w.localBatch
	testStart := ds.Len() - span
	if testStart < 0 {
		testStart = 0
	}
	var correct float64
	for tb := 0; tb < batches; tb++ {
		img, labels := data.BatchTensor(ds, testStart+tb*w.localBatch, w.localBatch)
		sh := ds.Shape()
		input := tensor.FromSlice(img, w.localBatch, sh.C, sh.H, sh.W)
		w.net.Forward(input, labels)
		correct += tensor.Accuracy(w.net.Probs().Data, w.localBatch, classes, labels)
		// Charge the evaluation's forward kernels.
		flops := cfg.Spec.FwdFLOPs() * float64(w.localBatch)
		_, end := r.Dev.LaunchCompute(r.Now(), flops)
		r.Proc.WaitUntil(end)
	}
	st.accuracies = append(st.accuracies, correct/float64(batches))
}

// maybeEvaluate runs the testing phase and snapshotting at their
// configured intervals (root solver, after ApplyUpdate).
//
//scaffe:coldpath interval-gated testing and snapshotting (TestInterval/SnapshotEvery); off the per-iteration budget
func (st *runState) maybeEvaluate(r *mpi.Rank, w *workload, iter int) {
	cfg := st.cfg
	if !w.real() {
		return
	}
	if cfg.TestInterval > 0 && (iter+1)%cfg.TestInterval == 0 {
		st.testPass(r, w, iter)
	}
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
		snap := &Snapshot{Model: cfg.Spec.Name, Iteration: iter, Params: append([]float32(nil), w.paramData...)}
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
