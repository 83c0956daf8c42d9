package coll

import (
	"fmt"
	"testing"

	"scaffe/internal/fault"
	"scaffe/internal/gpu"
	"scaffe/internal/mpi"
	"scaffe/internal/sched"
	"scaffe/internal/sim"
)

// The two drills below take a 32-rank chunked chain's walk through the
// two hard cases of its steps: unwinding with Revoked, and waiting out a
// retransmission. Their expected values were recorded from the blocking
// chain the steps replaced.

type killApplier struct {
	fault.NopApplier
	w *mpi.World
}

func (a killApplier) KillRank(rank int, _ fault.Kind) { a.w.Ranks[rank].KillAll() }

// TestChainReduceRankKilledMidPipeline crashes rank 17 of a 32-rank
// chain while chunks are in flight on both sides of it. Every survivor's
// walk of its fragment must end with Revoked — downstream ranks out of a
// receive that never completes, upstream ranks out of a forward nobody
// takes — at the virtual times the deadline ladder gives.
func TestChainReduceRankKilledMidPipeline(t *testing.T) {
	const ranks, victim = 32, 17
	w := newWorld(t, 8, 4, ranks)
	c := w.WorldComm()
	pl := fault.NewPlane(w.K, ranks, 200*sim.Microsecond)
	w.Fault = pl
	pl.Arm(fault.Schedule{{At: 2 * sim.Millisecond, Kind: fault.Crash, Rank: victim}}, killApplier{w: w})
	o := DefaultOptions()
	o.Chunks = 16
	reduced := make([]bool, ranks)
	plan := reducePlan(NewReducer(c, Chain, o), func(x *sched.Ctx) { reduced[x.R.ID] = true })

	outcome := make([]string, ranks)
	end, err := w.RunSteps(func(r *mpi.Rank) sim.Stepper {
		return &reduceCalls{r: r, plan: plan, bufs: []*gpu.Buffer{gpu.NewBuffer(8 << 20)}, tag: 10, ended: func(int) {
			outcome[r.ID] = fmt.Sprint(!reduced[r.ID], "@", r.Now())
		}}
	})
	if err != nil {
		t.Fatal(err)
	}
	if outcome[victim] != "" {
		t.Errorf("the killed rank's walk ended: %s", outcome[victim])
	}
	got := fmt.Sprint(end, " ", pl.Report().Retries, " ", outcome)
	// Ranks 23..31 had drained their part of the pipeline before the
	// crash; 67 deadlines expired on a healthy pipeline before it.
	const want = "3.000ms 67 [true@3.000ms true@3.000ms true@3.000ms true@2.349ms true@2.349ms true@2.472ms true@2.299ms true@2.326ms true@2.326ms true@2.449ms true@2.276ms true@2.303ms true@2.303ms true@2.331ms true@2.454ms true@2.376ms true@2.272ms  true@2.335ms true@2.362ms true@2.458ms true@2.285ms true@2.313ms false@2.293ms false@2.216ms false@2.111ms false@2.034ms false@1.957ms false@1.880ms false@1.368ms false@1.291ms false@1.214ms]"
	if got != want {
		t.Errorf("drill ended\n%s\nwant\n%s", got, want)
	}
}

// TestChainReduceRetransmitMidPipeline corrupts the wire once on two
// links of a 32-rank chain with the integrity plane in recover mode.
// Each hit holds its stage for the retransmission and the pipeline
// resumes: the root still holds the exact sum, at the time the blocking
// chain produced it.
func TestChainReduceRetransmitMidPipeline(t *testing.T) {
	const ranks, elems = 32, 1 << 16
	w := newWorld(t, 8, 4, ranks)
	c := w.WorldComm()
	hits := map[[2]int]int{{20, 19}: 3, {1, 0}: 1} // link -> which delivery on it is damaged
	w.Integrity = &mpi.Integrity{
		Mode:        mpi.IntegrityRecover,
		RetryBudget: 2,
		WireCorrupt: func(src, dst int) bool {
			n, ok := hits[[2]int{src, dst}]
			if !ok {
				return false
			}
			hits[[2]int{src, dst}] = n - 1
			return n == 1
		},
	}
	o := DefaultOptions()
	o.Chunks = 8
	plan := reducePlan(NewReducer(c, Chain, o), nil)
	var result []float32
	end, err := w.RunSteps(func(r *mpi.Rank) sim.Stepper {
		buf := gpu.NewDataBuffer(elems)
		buf.Fill(float32(r.ID + 1))
		return &reduceCalls{r: r, plan: plan, bufs: []*gpu.Buffer{buf}, tag: 10, ended: func(int) {
			if r.ID == 0 {
				result = buf.Data
			}
		}}
	})
	if err != nil {
		t.Fatal(err)
	}
	expectSum(t, result, ranks)
	integ := w.Integrity
	got := fmt.Sprint(end, " ", integ.Verified, integ.Detected, integ.Retransmits, integ.Escalations)
	const want = "734.297us 248 2 2 0"
	if got != want {
		t.Errorf("drill ended %s, want %s", got, want)
	}
}
