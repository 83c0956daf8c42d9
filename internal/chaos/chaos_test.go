package chaos

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"scaffe/internal/coll"
	"scaffe/internal/core"
	"scaffe/internal/sim"
)

// gateSpec derives the gate's i-th spec: seeds sweep the event count,
// the reducer family, and (every tenth spec) the ring-allreduce
// design, so the 200 schedules exercise every delivery path.
func gateSpec(seed int64) Spec {
	s := Default(seed)
	s.Events = 4 + int(seed%7)
	switch seed % 4 {
	case 1:
		s.Reduce = coll.Chain
	case 2:
		s.Reduce = coll.Rabenseifner
	}
	if seed%10 == 9 {
		s.Design = core.CNTKLike
	}
	return s
}

// TestChaosScheduleDeterministic pins generation purity: the same
// spec yields the same schedule, and the schedule passes the fault
// package's validation for every gate seed.
func TestChaosScheduleDeterministic(t *testing.T) {
	horizon := 100 * sim.Millisecond
	for seed := int64(1); seed <= 500; seed++ {
		s := gateSpec(seed)
		a := s.Schedule(horizon)
		b := s.Schedule(horizon)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: schedule not a pure function of the spec:\n%+v\n%+v", seed, a, b)
		}
		if len(a) == 0 {
			t.Fatalf("seed %d: empty schedule", seed)
		}
		if err := a.Validate(s.Ranks, 2); err != nil {
			t.Fatalf("seed %d: generated schedule invalid: %v\n%+v", seed, err, a)
		}
	}
}

// gatePin is what testdata/gate_pins.txt holds of one gate run: its
// outcome, and for a run that finished its end time, every counter of
// its fault report and a digest of the recovery and join records.
func gatePin(r *RunResult) string {
	if r.Res == nil {
		return r.Outcome.String()
	}
	f := r.Res.Fault
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v %+v", f.Recoveries, f.Joins)
	return fmt.Sprintf("%s total=%d %s bitflips=%d wire-corruptions=%d wire-revokes=%d join-requeues=%d records=%x",
		r.Outcome, int64(r.Res.TotalTime), f, f.BitFlips, f.WireCorruptions, f.WireRevokes, f.JoinRequeues, h.Sum64())
}

// gatePins reads the pinned gate runs, by seed.
func gatePins(t *testing.T) map[int64]string {
	t.Helper()
	f, err := os.Open("testdata/gate_pins.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pins := map[int64]string{}
	for sc := bufio.NewScanner(f); sc.Scan(); {
		seed, pin, _ := strings.Cut(sc.Text(), " ")
		n, err := strconv.ParseInt(seed, 10, 64)
		if err != nil {
			t.Fatalf("gate pin %q: %v", sc.Text(), err)
		}
		pins[n] = pin
	}
	return pins
}

// TestChaosGate is the no-wedge gate: 200 seeded schedules across the
// full event mix must all terminate finished or unrecovered inside the
// virtual-time ceiling with schedule-consistent counters — and every
// eighth spec must be bit-identical across GOMAXPROCS {1, 4, 16}. Every
// run must also end exactly as testdata/gate_pins.txt records it: the
// outcome, the end time, the fault report's counters and its records.
// The pins were taken while the ranks, helper lanes and readers still
// ran on goroutines; running them as steps must not move one.
func TestChaosGate(t *testing.T) {
	const specs = 200
	counts := map[Outcome]int{}
	pins := gatePins(t)
	for seed := int64(1); seed <= specs; seed++ {
		s := gateSpec(seed)
		var (
			r   *RunResult
			err error
		)
		if seed%8 == 0 {
			r, err = RunMatrix(s, []int{1, 4, 16})
		} else {
			r, err = Verify(s)
		}
		if err != nil {
			if r != nil {
				t.Fatalf("spec %s failed: %v\n%s", s, err, r.Summary())
			}
			t.Fatalf("spec %s failed: %v", s, err)
		}
		if got, want := gatePin(r), pins[seed]; got != want {
			t.Errorf("spec %s ended\n\t%s\nwant\n\t%s", s, got, want)
		}
		counts[r.Outcome]++
	}
	t.Logf("gate outcomes over %d specs: finished=%d unrecovered=%d", specs, counts[Finished], counts[Unrecovered])
	if counts[Wedged] != 0 {
		t.Errorf("wedged runs slipped through verification: %d", counts[Wedged])
	}
	if counts[Finished] == 0 {
		t.Error("no spec finished training — the mix is implausibly hostile")
	}
}

// TestChaosRealModeDeterministic runs a real-compute spec through the
// GOMAXPROCS matrix and pins repeat-determinism of the trained
// parameters: two runs of the same seeded chaos schedule must agree
// bit-for-bit.
func TestChaosRealModeDeterministic(t *testing.T) {
	s := Default(42)
	s.Real = true
	s.Iterations = 10
	if _, err := RunMatrix(s, []int{1, 4, 16}); err != nil {
		t.Fatal(err)
	}
	a, err := Verify(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Verify(s)
	if err != nil {
		t.Fatal(err)
	}
	if a.Outcome != b.Outcome {
		t.Fatalf("outcomes diverged: %s vs %s", a.Outcome, b.Outcome)
	}
	if a.Outcome == Finished && !reflect.DeepEqual(a.Res.FinalParams, b.Res.FinalParams) {
		t.Error("repeat run's final parameters diverged")
	}
}

// TestChaosArmedUntripped checks the zero-perturbation invariant for
// a sample of gate specs in both modes.
func TestChaosArmedUntripped(t *testing.T) {
	for _, seed := range []int64{3, 17, 64} {
		if err := ArmedUntripped(gateSpec(seed)); err != nil {
			t.Error(err)
		}
	}
	real := Default(5)
	real.Real = true
	if err := ArmedUntripped(real); err != nil {
		t.Error(err)
	}
}

// TestChaosCounterCheckRejects exercises the verifier itself: a
// report claiming more activity than its schedule budgets must fail.
func TestChaosCounterCheckRejects(t *testing.T) {
	s := Default(1)
	r, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckCounters(r); err != nil {
		t.Fatalf("honest run failed the counter check: %v", err)
	}
	r.Res.Fault.Crashes = 99
	if err := CheckCounters(r); err == nil {
		t.Error("inflated crash counter passed the check")
	}
}

// forgetCalibrations empties the calibration map, as at process start.
func forgetCalibrations() {
	horizons.Lock()
	clear(horizons.of)
	horizons.Unlock()
}

// mustVerify verifies a spec and returns its pin and summary, what a
// calibration must not move.
func mustVerify(t *testing.T, s Spec) string {
	t.Helper()
	r, err := Verify(s)
	if err != nil {
		t.Fatalf("spec %s: %v", s, err)
	}
	return r.Summary() + "\n" + gatePin(r)
}

// TestCalibrationOncePerShape: specs that differ only in seed, event
// count and weights share one fault-free run; a change to any one of the
// five fields that shape the run calibrates again; and a spec verified
// with an empty calibration map ends as it does with a filled one.
func TestCalibrationOncePerShape(t *testing.T) {
	base := Spec{Ranks: 4, Iterations: 3, Events: 4}

	forgetCalibrations()
	before := calibrations.Load()
	for seed := int64(1); seed <= 4; seed++ {
		s := base
		s.Seed, s.Events = seed, 2+int(seed)
		if seed == 4 {
			s.Weights = DefaultWeights()
			s.Weights.Drop = 7
		}
		mustVerify(t, s)
	}
	if got := calibrations.Load() - before; got != 1 {
		t.Errorf("4 specs of one shape ran %d fault-free calibrations, want 1", got)
	}

	for _, tc := range []struct {
		field string
		vary  func(*Spec)
	}{
		{"Ranks", func(s *Spec) { s.Ranks = 5 }},
		{"Iterations", func(s *Spec) { s.Iterations = 4 }},
		{"Real", func(s *Spec) { s.Real = true }},
		{"Design", func(s *Spec) { s.Design = core.SCOB }},
		{"Reduce", func(s *Spec) { s.Reduce = coll.Chain }},
	} {
		s := base
		tc.vary(&s)
		before := calibrations.Load()
		for seed := int64(1); seed <= 2; seed++ {
			s.Seed = seed
			mustVerify(t, s)
		}
		if got := calibrations.Load() - before; got != 1 {
			t.Errorf("changing %s: 2 specs ran %d calibrations, want 1", tc.field, got)
		}
	}

	for seed := int64(1); seed <= 3; seed++ {
		s := base
		s.Seed = seed
		forgetCalibrations()
		cold := mustVerify(t, s)
		if warm := mustVerify(t, s); warm != cold {
			t.Errorf("seed %d with an empty calibration map:\n\t%s\nwith a filled one:\n\t%s", seed, cold, warm)
		}
	}
}

// TestCalibrationConcurrent verifies specs of two shapes from many
// goroutines at once, on an empty calibration map: every run must end as
// it does when the specs run one after another.
func TestCalibrationConcurrent(t *testing.T) {
	var specs []Spec
	for seed := int64(1); seed <= 4; seed++ {
		a := Spec{Ranks: 4, Iterations: 3, Events: 4, Seed: seed}
		b := a
		b.Reduce = coll.Chain
		specs = append(specs, a, b)
	}
	forgetCalibrations()
	want := make([]string, len(specs))
	for i, s := range specs {
		want[i] = mustVerify(t, s)
	}

	forgetCalibrations()
	got := make([]string, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, s := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := Verify(s)
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = r.Summary() + "\n" + gatePin(r)
		}()
	}
	wg.Wait()
	for i, s := range specs {
		if errs[i] != nil {
			t.Errorf("spec %s: %v", s, errs[i])
		} else if got[i] != want[i] {
			t.Errorf("spec %s run concurrently:\n\t%s\nsequentially:\n\t%s", s, got[i], want[i])
		}
	}
}

// TestRunMatrixRechecksCalibration plants a wrong horizon for a shape:
// RunMatrix must notice at its second GOMAXPROCS that a fresh
// calibration disagrees with the stored one.
func TestRunMatrixRechecksCalibration(t *testing.T) {
	s := Spec{Ranks: 4, Iterations: 3, Events: 4, Seed: 1}
	forgetCalibrations()
	defer forgetCalibrations()
	h := s.shape()
	d, err := h.horizon()
	if err != nil {
		t.Fatal(err)
	}
	horizons.Lock()
	horizons.of[h] = d + 1
	horizons.Unlock()
	if _, err := RunMatrix(s, []int{1, 4}); err == nil || !strings.Contains(err.Error(), "calibrated at") {
		t.Errorf("RunMatrix over a wrong stored horizon: err = %v, want a calibration mismatch", err)
	}
}
