package mpi

import (
	"reflect"
	"testing"

	"scaffe/internal/gpu"
	"scaffe/internal/sim"
	"scaffe/internal/topology"
)

// These are the tests of the blocking forms themselves — World.Run,
// Rank.Send, Recv, Wait and Sleep, Comm.Barrier — against the steps that
// every run's ranks take instead (rankScript). The forms and this file
// go together.

// TestBlockingFormsMatchTheirSteps runs one exchange twice on a fresh
// world: through the blocking forms on goroutine procs, and as rank
// scripts. Each rank logs the time after every operation; the logs, the
// run's end and the number of resumes (a switch each on a goroutine, a
// step or the finish without one) must be equal.
func TestBlockingFormsMatchTheirSteps(t *testing.T) {
	const ranks = 4
	type result struct {
		log        [ranks][]sim.Time
		end        sim.Time
		resumes    uint64
		staleWakes uint64
	}
	run := func(blocking bool) result {
		w := newWorld(t, 2, 2, ranks)
		c := w.WorldComm()
		var res result
		mark := func(r *Rank) { res.log[r.ID] = append(res.log[r.ID], r.Now()) }
		next, prev := func(r *Rank) int { return (r.ID + 1) % ranks }, func(r *Rank) int { return (r.ID + ranks - 1) % ranks }
		small, large := func() *gpu.Buffer { return gpu.NewBuffer(64) }, func() *gpu.Buffer { return gpu.NewBuffer(4 << 20) }
		var end sim.Time
		var err error
		if blocking {
			end, err = w.Run(func(r *Rank) {
				r.Sleep(sim.Duration(r.ID) * sim.Microsecond)
				mark(r)
				if r.ID%2 == 0 { // eager, then rendezvous, to the next rank
					r.Send(c, next(r), 1, small(), topology.ModeAuto)
					mark(r)
					r.Send(c, next(r), 2, large(), topology.ModeAuto)
				} else {
					r.Recv(c, prev(r), 1, small())
					mark(r)
					r.Sleep(0)
					r.Recv(c, prev(r), 2, large())
				}
				mark(r)
				c.Barrier(r)
				mark(r)
				r.Wait(r.Ibcast(c, 0, large(), topology.ModeAuto))
				mark(r)
			})
		} else {
			end, err = w.RunSteps(func(r *Rank) sim.Stepper {
				at := do(func() { mark(r) })
				ops := []scriptOp{sleep(sim.Duration(r.ID) * sim.Microsecond), at}
				if r.ID%2 == 0 {
					ops = append(ops, send(c, next(r), 1, small(), topology.ModeAuto), at, send(c, next(r), 2, large(), topology.ModeAuto))
				} else {
					ops = append(ops, recv(c, prev(r), 1, small()), at, sleep(0), recv(c, prev(r), 2, large()))
				}
				return script(r, append(ops, at, barrier(c), at, bcast(c, 0, large(), topology.ModeAuto), at)...)
			})
		}
		if err != nil {
			t.Fatalf("blocking %v: %v", blocking, err)
		}
		rs := w.K.Resumes()
		res.end, res.resumes, res.staleWakes = end, rs.Switches+rs.Steps+rs.Finishes, rs.StaleWakes
		return res
	}
	want, got := run(true), run(false)
	if len(want.log[ranks-1]) != 5 || want.end == 0 {
		t.Fatalf("the blocking run logged %v and ended at %v", want.log, want.end)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("as steps: %+v\nblocking: %+v", got, want)
	}
}
