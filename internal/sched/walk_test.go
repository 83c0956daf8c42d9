package sched

import (
	"reflect"
	"strings"
	"testing"

	"scaffe/internal/gpu"
	"scaffe/internal/mpi"
	"scaffe/internal/sim"
)

// TestWalkRepeatsThePlan: a walk runs its plan the given number of times
// on a rank with no goroutine, Ctx.It counting the walks and a spliced
// fragment walked in place, with no goroutine switch, and the rank's proc
// finishes at the end of the last walk.
func TestWalkRepeatsThePlan(t *testing.T) {
	w := newWorld(3)
	frag := NewPlan()
	frag.AddTimed(0, Generic, "", "", func(x *Ctx) sim.Time { return x.R.Now() + sim.Time(10*(x.R.ID+1)) })
	frag.Seal()
	pl := NewPlan()
	seen := make([][][2]int64, w.Size())
	pl.Add(0, Generic, "", "", func(x *Ctx) {
		seen[x.R.ID] = append(seen[x.R.ID], [2]int64{int64(x.It), int64(x.R.Now())})
	})
	pl.AddSplice(Generic, "", "", func(x *Ctx) (*Plan, *gpu.Buffer, int) { return frag, x.Buf, x.Tag })
	pl.Seal()
	walks := make([]Walk, w.Size())
	end, err := w.RunSteps(func(r *mpi.Rank) sim.Stepper { return walks[r.ID].Start(r, pl, nil, 0, 3) })
	if err != nil {
		t.Fatal(err)
	}
	for id, got := range seen {
		d := int64(10 * (id + 1))
		if want := [][2]int64{{0, 0}, {1, d}, {2, 2 * d}}; !reflect.DeepEqual(got, want) {
			t.Errorf("rank %d walked (It, time) %v, want %v", id, got, want)
		}
	}
	if end != 90 {
		t.Errorf("run ended at %v, want 90ns", end)
	}
	if r := w.K.Resumes(); r.Switches != 0 {
		t.Errorf("resumes %+v, want no switch", r)
	}
	for _, r := range w.Ranks {
		if !r.Proc.Finished() {
			t.Errorf("rank %d's proc did not finish", r.ID)
		}
	}
}

// TestWalkEndsAtARevocation: the top of a lane's walk is the one place
// a revocation is caught. mpi.Revoked raised by a spliced fragment's
// node ends that rank's walk — its proc finishes there, and the run goes
// on — while any other panic fails the run, naming the rank.
func TestWalkEndsAtARevocation(t *testing.T) {
	for _, tc := range []struct {
		raise any
		fails bool
	}{{mpi.Revoked{}, false}, {"a bug", true}} {
		w := newWorld(4)
		walked := make([]int, w.Size())
		frag := NewPlan()
		frag.Add(0, Generic, "", "", func(x *Ctx) {
			if x.R.ID == 2 && x.It == 1 {
				panic(tc.raise)
			}
			walked[x.R.ID]++
		})
		frag.Seal()
		pl := NewPlan()
		pl.AddSplice(Generic, "", "", func(x *Ctx) (*Plan, *gpu.Buffer, int) { return frag, x.Buf, x.Tag })
		pl.AddTimed(0, Generic, "", "", func(x *Ctx) sim.Time { return x.R.Now() + 10 })
		pl.Seal()
		walks := make([]Walk, w.Size())
		_, err := w.RunSteps(func(r *mpi.Rank) sim.Stepper { return walks[r.ID].Start(r, pl, nil, 0, 3) })
		if tc.fails {
			if err == nil || !strings.Contains(err.Error(), `proc "rank2" panicked`) || !strings.Contains(err.Error(), "a bug") {
				t.Errorf("RunSteps returned %v, want rank2's panic", err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if want := []int{3, 3, 1, 3}; !reflect.DeepEqual(walked, want) {
			t.Errorf("walks done per rank %v, want %v", walked, want)
		}
		if !walks[2].revoked || walks[0].revoked || !w.Ranks[2].Proc.Finished() {
			t.Errorf("rank 2's walk revoked %v (rank 0's %v), its proc finished %v", walks[2].revoked, walks[0].revoked, w.Ranks[2].Proc.Finished())
		}
	}
}
