package chaos

import (
	"errors"
	"strings"
	"testing"

	"scaffe/internal/coll"
	"scaffe/internal/core"
)

func TestParseSpec(t *testing.T) {
	s, err := ParseSpec(`
# comment
seed = 42
ranks = 4
iters = 12
events = 3
mode = real
design = scob
reduce = rabenseifner
weight.drop = 5   # trailing comment
weight.hang = 0
`)
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 42 || s.Ranks != 4 || s.Iterations != 12 || s.Events != 3 {
		t.Errorf("numeric fields wrong: %+v", s)
	}
	if !s.Real || s.Design != core.SCOB || s.Reduce != coll.Rabenseifner {
		t.Errorf("mode/design/reduce wrong: %+v", s)
	}
	w := DefaultWeights()
	w.Drop, w.Hang = 5, 0
	if s.Weights != w {
		t.Errorf("weights = %+v, want %+v", s.Weights, w)
	}
}

func TestParseSpecDefaults(t *testing.T) {
	s, err := ParseSpec("seed = 9\n")
	if err != nil {
		t.Fatal(err)
	}
	if s.Weights != (Weights{}) {
		t.Errorf("untouched weights should stay zero (withDefaults fills them): %+v", s.Weights)
	}
	d := s.withDefaults()
	if d.Ranks != 8 || d.Iterations != 8 || d.Events != 6 || d.Weights != DefaultWeights() {
		t.Errorf("withDefaults = %+v", d)
	}
}

func TestParseSpecRejects(t *testing.T) {
	for _, tc := range []struct{ text, want string }{
		{"ranks = 8\n", "must set seed"},
		{"seed = 1\nbogus = 2\n", "unknown key"},
		{"seed = 1\nranks = 0\n", "must be positive"},
		{"seed = 1\nranks = 1\n", "must be at least 2"},
		{"seed = 3\nranks = 1\niters = 2\n", "a peer and a link"},
		{"seed = 1\nmode = sideways\n", "want timing or real"},
		{"seed = 1\ndesign = hybrid\n", "unknown design"},
		{"seed = 1\nreduce = ring\n", "unknown reduce algorithm"},
		{"seed = 1\nweight.sdc = 1\n", "unknown weight family"},
		{"seed = 1\nweight.drop = -1\n", "non-negative"},
		{"seed = 1\njust words\n", "want key = value"},
		{"seed = 1\nweight.crash=0\nweight.hang=0\nweight.straggle=0\nweight.drop=0\nweight.dup=0\nweight.reorder=0\nweight.delay=0\nweight.partition=0\n", "every weight is zero"},
	} {
		if _, err := ParseSpec(tc.text); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseSpec(%q) err = %v, want containing %q", tc.text, err, tc.want)
		}
	}
}

// TestSpecDesignIsConfigValidationsDecision: the spec parser reads the
// design and reducer names every front end reads, so `reduce = hr` is a
// spec (it used to be rejected) and so is `design = caffe`; that no
// fault schedule runs on single-node Caffe is what Config validation
// says when the harness arms one.
func TestSpecDesignIsConfigValidationsDecision(t *testing.T) {
	s, err := ParseSpec("seed = 3\nranks = 4\niters = 2\nreduce = hr\n")
	if err != nil {
		t.Fatal(err)
	}
	if s.Reduce != coll.Tuned {
		t.Errorf("reduce = hr parsed as %v", s.Reduce)
	}
	if _, err := Verify(s); err != nil {
		t.Errorf("reduce = hr: %v", err)
	}
	s, err = ParseSpec("seed = 3\nranks = 4\niters = 2\ndesign = caffe\n")
	if err != nil {
		t.Fatal(err)
	}
	if r, err := Run(s); !errors.Is(err, core.ErrConfig) {
		t.Errorf("design = caffe under a fault schedule: result %v, err %v; want a configuration error", r, err)
	}
}

// TestChaosSmoke is scripts/check.sh's race-gated chaos drill: 25
// seeded specs spanning the reducer families, each verified against
// the termination and counter invariants. The script runs it at
// GOMAXPROCS 1, 4, and 16 under the race detector; the full 200-spec
// gate is TestChaosGate.
func TestChaosSmoke(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		r, err := Verify(gateSpec(seed))
		if err != nil {
			if r != nil {
				t.Fatalf("spec failed: %v\n%s", err, r.Summary())
			}
			t.Fatalf("spec seed=%d failed: %v", seed, err)
		}
	}
}

// TestSpecNeedsTwoRanks: a spec built in code with fewer than two ranks
// is an error from every entry point, returned before any calibration
// runs (the schedule generator would draw a link from an empty range).
func TestSpecNeedsTwoRanks(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(Spec) error
	}{
		{"Run", func(s Spec) error { _, err := Run(s); return err }},
		{"Verify", func(s Spec) error { _, err := Verify(s); return err }},
		{"RunMatrix", func(s Spec) error { _, err := RunMatrix(s, []int{1, 4}); return err }},
		{"ArmedUntripped", ArmedUntripped},
	} {
		for _, ranks := range []int{1, -3} {
			s := Spec{Ranks: ranks, Iterations: 2, Seed: 3}
			before := calibrations.Load()
			if err := tc.run(s); err == nil || !strings.Contains(err.Error(), "at least 2") {
				t.Errorf("%s with %d ranks: err = %v, want a spec error", tc.name, ranks, err)
			}
			if n := calibrations.Load() - before; n != 0 {
				t.Errorf("%s with %d ranks ran %d calibrations before failing", tc.name, ranks, n)
			}
		}
	}
}

// summarySpec is the spec a run's one-line summary replays: its fields
// up to the outcome, one per line, read by ParseSpec.
func summarySpec(t *testing.T, summary string) Spec {
	t.Helper()
	head, _, ok := strings.Cut(strings.TrimPrefix(summary, "chaos "), " outcome=")
	if !ok {
		t.Fatalf("summary %q has no outcome", summary)
	}
	s, err := ParseSpec(strings.Join(strings.Fields(head), "\n"))
	if err != nil {
		t.Fatalf("summary %q does not parse: %v", summary, err)
	}
	return s
}

// TestSpecSummaryRoundTrip: the one-line summary of every gate spec, of
// the benchmark's template and of specs with a non-default mix or real
// compute names the spec it came from.
func TestSpecSummaryRoundTrip(t *testing.T) {
	var specs []Spec
	for seed := int64(1); seed <= 200; seed++ {
		specs = append(specs, gateSpec(seed))
	}
	bench := Spec{Ranks: 32, Iterations: 16, Events: 8, Design: core.SCOBR, Reduce: coll.Tuned}
	for _, seed := range []int64{0, 1, 7} {
		bench.Seed = seed
		specs = append(specs, bench)
	}
	mixed := Default(-5)
	mixed.Real, mixed.Design, mixed.Reduce = true, core.SCOBR, coll.ChainChainBinomial
	mixed.Weights = DefaultWeights()
	mixed.Weights.Crash, mixed.Weights.Delay, mixed.Weights.Partition = 0, 0.125, 1e-3
	specs = append(specs, mixed, Spec{Seed: 11, Design: core.ParamServer, Reduce: coll.Rabenseifner})
	for _, s := range specs {
		r := &RunResult{Spec: s.withDefaults(), Outcome: Unrecovered}
		if got := summarySpec(t, r.Summary()); got.withDefaults() != s.withDefaults() {
			t.Errorf("summary %q replays\n\t%+v\nwant\n\t%+v", r.Summary(), got.withDefaults(), s.withDefaults())
		}
	}
}
