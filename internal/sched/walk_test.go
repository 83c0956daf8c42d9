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

// TestWalkHandBackPanics: a walk with no goroutine has nothing to hand
// work back to, so a Ctx.HandBack — here in a spliced fragment's node —
// fails the run, naming the rank.
func TestWalkHandBackPanics(t *testing.T) {
	w := newWorld(4)
	frag := NewPlan()
	frag.Add(0, Generic, "", "", func(x *Ctx) {
		if x.R.ID == 2 {
			x.HandBack(func() {})
		}
	})
	frag.Seal()
	pl := NewPlan()
	pl.AddSplice(Generic, "", "", func(x *Ctx) (*Plan, *gpu.Buffer, int) { return frag, x.Buf, x.Tag })
	pl.Seal()
	walks := make([]Walk, w.Size())
	_, err := w.RunSteps(func(r *mpi.Rank) sim.Stepper { return walks[r.ID].Start(r, pl, nil, 0, 2) })
	if err == nil || !strings.Contains(err.Error(), `proc "rank2" panicked`) || !strings.Contains(err.Error(), "HandBack") {
		t.Fatalf("RunSteps returned %v, want rank2's HandBack panic", err)
	}
}
