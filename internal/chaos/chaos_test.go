package chaos

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"os"
	"reflect"
	"strconv"
	"strings"
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
