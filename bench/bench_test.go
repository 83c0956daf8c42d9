package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// declared is BENCHMARK.json as the driver reads it.
type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []e2eDecl   `json:"end_to_end"`
	PerLayer   []layerDecl `json:"per_layer"`
}

func readManifest(t *testing.T) (string, declared) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return string(raw), d
}

// TestManifestMatchesDeclarations keeps BENCHMARK.json equal to what
// `bench -manifest` prints, and inside the driver's limits.
func TestManifestMatchesDeclarations(t *testing.T) {
	raw, d := readManifest(t)
	if raw != manifest() {
		t.Fatal("BENCHMARK.json differs from `bench -manifest`; regenerate it")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q is malformed", n, u)
		}
	}
	for _, w := range d.Workloads {
		check(w.Name, "")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range d.EndToEnd {
		check(m.Name, m.Unit)
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range d.PerLayer {
		check(m.Name, m.Unit)
	}
	if n := len(d.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	// The driver makes 4 + 22 runs a workload and all must end in 3420 s.
	if d.RunSeconds < 1 || d.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", d.RunSeconds)
	}
}

func smokeRun(t *testing.T, workload string, trace bool, out string) *report {
	t.Helper()
	rep, err := runWorkload(options{workload: workload, seed: 1, smoke: true, trace: trace, outDir: out}, time.Now())
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d\n%s", workload, rep.Correct, rep.Attempted, rep.Failed, strings.Join(rep.text, "\n"))
	}
	return rep
}

// TestSmokeEmitsDeclaredMetrics runs every workload at -smoke size, traced
// and untraced, and checks that exactly the declared names come out, that
// virtual values repeat, that the span file is a tree and that the
// profile attribution sums to one.
func TestSmokeEmitsDeclaredMetrics(t *testing.T) {
	_, d := readManifest(t)
	out := t.TempDir()
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(d.Workloads), len(workloads))
	}
	for _, w := range d.Workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			a := smokeRun(t, w.Name, false, out)
			b := smokeRun(t, w.Name, false, out)
			if len(a.Metrics) != len(d.EndToEnd) {
				t.Errorf("untraced run printed %d metrics, want the %d end-to-end ones", len(a.Metrics), len(d.EndToEnd))
			}
			for _, m := range d.EndToEnd {
				v, ok := a.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("%s: missing or unit %q, want %q", m.Name, v.Unit, m.Unit)
				}
				if v.Value == 0 || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s = %v; an end-to-end metric is a finite number and never 0", m.Name, v.Value)
				}
				if strings.HasPrefix(m.Name, "virt_") && v.Value != b.Metrics[m.Name].Value {
					t.Errorf("%s differs between two runs: %v, %v", m.Name, v.Value, b.Metrics[m.Name].Value)
				}
			}

			tr := smokeRun(t, w.Name, true, out)
			if len(tr.Metrics) != len(d.PerLayer) {
				t.Errorf("traced run printed %d metrics, want the %d per-layer ones", len(tr.Metrics), len(d.PerLayer))
			}
			var shares float64
			for _, m := range d.PerLayer {
				v, ok := tr.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("%s: missing or unit %q, want %q", m.Name, v.Unit, m.Unit)
				}
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s = %v", m.Name, v.Value)
				}
				if strings.HasSuffix(m.Name, ".cpu_self_share") {
					shares += v.Value
				}
			}
			if math.Abs(shares-1) > 0.01 {
				t.Errorf("cpu_self_share values sum to %v, want 1", shares)
			}
			if line, err := json.Marshal(tr); err != nil || strings.Contains(string(line), "\n") {
				t.Errorf("result does not encode to one JSON line: %v", err)
			}
			checkSpanFile(t, filepath.Join(out, "spans-"+w.Name+".json"), w.Name)
		})
	}
}

func checkSpanFile(t *testing.T, path, workload string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var ct chromeTrace
	if err := json.Unmarshal(raw, &ct); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(ct.TraceEvents) == 0 {
		t.Fatalf("%s holds no spans", path)
	}
	ids := map[float64]bool{}
	for _, e := range ct.TraceEvents {
		ids[e.Args["id"].(float64)] = true
	}
	for _, e := range ct.TraceEvents {
		if p := e.Args["parent"].(float64); p != 0 && !ids[p] {
			t.Errorf("span %q names parent %v, which is not in the file", e.Name, p)
		}
		if e.Args["workload"] != workload || e.Dur < 0 || e.Name == "" {
			t.Errorf("span %+v is malformed", e)
		}
	}
}

// TestPinsGate checks the per-seed gate: a value worse than its pin by
// more than the tolerance fails, a better one and an unpinned seed pass.
func TestPinsGate(t *testing.T) {
	const w = "real-cifar10-4"
	loss, ms := pinnedFinalLoss[1], pinnedVirtMs[w]
	if loss == 0 || ms == 0 {
		t.Fatal("seed 1 of real-cifar10-4 is not pinned")
	}
	for _, c := range []struct {
		seed     int64
		loss, ms float64
		failures int
	}{
		{1, loss, ms, 0},
		{1, loss * 1.0005, ms, 0},
		{1, loss * 0.9, ms * 0.9, 0},
		{1, loss * 1.002, ms, 1},
		{1, loss * 1.002, ms * 1.00001, 2},
		{1000, loss * 2, ms, 0},
		{1000, loss, ms * 1.00001, 1},
	} {
		got := checkPins(w, c.seed, map[string]float64{"final_loss": c.loss, "virt_ms_per_op": c.ms})
		if len(got) != c.failures {
			t.Errorf("seed %d, loss %v, virtual ms %v: %d failures, want %d: %v", c.seed, c.loss, c.ms, len(got), c.failures, got)
		}
	}
}

func TestSampleLayer(t *testing.T) {
	for _, c := range []struct {
		want  string
		stack []string
	}{
		{"sim", []string{"scaffe/internal/sim.(*Kernel).Run", "main.main"}},
		{"data", []string{"scaffe/internal/pfs.(*FS).Read"}},
		{"gosched", []string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule"}},
		{"gosched", []string{"runtime.lock2", "runtime.chansend", "scaffe/internal/sim.(*Proc).park"}},
		{"gogc", []string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.newobject", "scaffe/internal/mpi.(*Rank).Isend"}},
		{"gogc", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2"}},
		{"mpi", []string{"runtime.memmove", "scaffe/internal/mpi.(*Rank).Isend"}},
		{"mpi", []string{"internal/runtime/maps.ctrlGroup.matchH2", "runtime.mapaccess2", "scaffe/internal/mpi.(*Rank).popPosted"}},
		{"other", []string{"scaffe/internal/gpu.(*Buffer).CopyFrom", "scaffe/internal/mpi.(*Rank).deliver"}},
		{"other", nil},
	} {
		if got := sampleLayer(c.stack); got != c.want {
			t.Errorf("sampleLayer(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins iqrShare to statistics.quantiles(xs, n=4),
// the spread the driver computes.
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} // quantiles: 2.75, 5.5, 8.25
	if got := iqrShare(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("iqrShare(1..10) = %v, want 1", got)
	}
	ys := []float64{2.1, 2.0, 2.4, 2.2, 2.3} // quantiles: 2.05, 2.2, 2.35
	if got, want := iqrShare(ys), 0.3/2.2; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
}
