package coll

import (
	"fmt"
	"testing"

	"scaffe/internal/gpu"
	"scaffe/internal/mpi"
	"scaffe/internal/sim"
)

// These are the tests of the blocking forms themselves —
// Reducer.Reduce and Ring.Allreduce on goroutine procs — against the
// walks of their fragments that every run makes instead. The forms and
// this file go together.

// TestBlockingReduceMatchesItsWalk: every family's blocking call takes
// its payload to the same sums, with the same run end and the same
// virtual time of each rank's return, as the walk of its fragment
// (pinRun's).
func TestBlockingReduceMatchesItsWalk(t *testing.T) {
	const p, elems = 13, 1 << 10
	for _, f := range families() {
		run := func(blocking bool) string {
			w := newWorld(t, (p+3)/4, 4, p)
			red := f.build(w.WorldComm(), DefaultOptions())
			returned := make([]sim.Time, p)
			bufs := make([]*gpu.Buffer, p)
			for i := range bufs {
				bufs[i] = gpu.NewDataBuffer(elems)
				bufs[i].Fill(float32(i + 1))
			}
			var end sim.Time
			var err error
			if blocking {
				end, err = w.Run(func(r *mpi.Rank) {
					if ring, ok := red.(*Ring); ok {
						ring.Allreduce(r, bufs[r.ID], f.tag)
					} else {
						red.Reduce(r, bufs[r.ID], f.tag)
					}
					returned[r.ID] = r.Now()
				})
			} else {
				plan := reducePlan(red, nil)
				end, err = w.RunSteps(func(r *mpi.Rank) sim.Stepper {
					return &reduceCalls{r: r, plan: plan, bufs: bufs[r.ID : r.ID+1], tag: f.tag,
						ended: func(int) { returned[r.ID] = r.Now() }}
				})
			}
			if err != nil {
				t.Fatalf("%s blocking %v: %v", f.name, blocking, err)
			}
			return fmt.Sprint(end, returned, bufs[0].Data[0], bufs[p-1].Data[elems-1])
		}
		if want, got := run(true), run(false); got != want {
			t.Errorf("%s: walked\n%s\nblocking\n%s", f.name, got, want)
		}
	}
}
