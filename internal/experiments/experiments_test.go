package experiments

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"
)

// quick keeps experiment tests fast while preserving configuration
// shapes.
var quick = Options{Iterations: 2, MaxGPUs: 32}

func TestRegistryComplete(t *testing.T) {
	want := []string{"table1", "figure8", "figure9", "figure10", "figure11",
		"figure12", "figure13", "table2", "scobr", "costmodel",
		"weakscaling", "threelevel", "allreduce", "skew", "bucketing", "accuracy",
		"faults", "sdc", "elastic", "chaos"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Errorf("experiment %d = %s, want %s", i, all[i].ID, id)
		}
		if _, err := ByID(id); err != nil {
			t.Errorf("ByID(%s): %v", id, err)
		}
	}
	if _, err := ByID("figure99"); err == nil {
		t.Error("unknown id should error")
	}
}

// tableDigests reads testdata/table_digests.txt: one "<id> <sha256>"
// line per experiment, the SHA-256 of its quick-fidelity Markdown.
func tableDigests(t *testing.T) map[string]string {
	f, err := os.Open("testdata/table_digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	digests := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if id, sum, ok := strings.Cut(sc.Text(), " "); ok {
			digests[id] = sum
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return digests
}

// TestAllExperimentsProduceTables renders every table at quick fidelity
// and holds its bytes to the checked-in digest: the simulator is
// deterministic, so any change to a table's contents, notes included,
// shows here. A deliberate change re-records the line the failure
// prints.
func TestAllExperimentsProduceTables(t *testing.T) {
	digests := tableDigests(t)
	if len(digests) != len(All()) {
		t.Errorf("testdata/table_digests.txt has %d lines, the registry %d experiments", len(digests), len(All()))
	}
	for _, r := range All() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			tb, err := r.Run(quick)
			if err != nil {
				t.Fatal(err)
			}
			if len(tb.Rows) == 0 {
				t.Fatal("no rows")
			}
			for i, row := range tb.Rows {
				if len(row) != len(tb.Columns) {
					t.Errorf("row %d has %d cells, header has %d", i, len(row), len(tb.Columns))
				}
			}
			md := tb.Markdown()
			if !strings.Contains(md, "### "+r.ID) {
				t.Error("markdown missing header")
			}
			if !strings.Contains(md, "|") {
				t.Error("markdown missing table")
			}
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(md))); got != digests[r.ID] {
				t.Errorf("table bytes changed; digest line:\n%s %s\n%s", r.ID, got, md)
			}
		})
	}
}

func TestFigure12SpeedupShape(t *testing.T) {
	tb, err := Figure12(Options{MaxGPUs: 32})
	if err != nil {
		t.Fatal(err)
	}
	// Every row's OpenMPI column must exceed MV2, which must exceed HR
	// — the paper's ordering at every size: HR's speedup over MV2 is
	// above 1 and below its speedup over OpenMPI.
	speedup := func(cell string) float64 {
		var x float64
		if _, err := fmt.Sscanf(cell, "%fx", &x); err != nil {
			t.Fatalf("speedup cell malformed: %q", cell)
		}
		return x
	}
	for _, row := range tb.Rows {
		mv2, ompi := speedup(row[4]), speedup(row[5])
		if !(1 < mv2 && mv2 < ompi) {
			t.Errorf("%s: HR vs MV2 %.1fx, HR vs OpenMPI %.1fx; want 1 < HR-vs-MV2 < HR-vs-OpenMPI", row[0], mv2, ompi)
		}
	}
	if len(tb.Notes) == 0 {
		t.Error("figure12 should report its paper-vs-measured note")
	}
}

func TestFigure13ReportsImprovement(t *testing.T) {
	tb, err := Figure13(Options{Iterations: 3, MaxGPUs: 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		imp := row[len(row)-1]
		if !strings.HasSuffix(imp, "%") {
			t.Fatalf("improvement cell malformed: %q", imp)
		}
		if strings.HasPrefix(imp, "-") {
			t.Errorf("SC-OB regressed vs SC-B at %s GPUs: %s", row[0], imp)
		}
	}
}

func TestTable2HasBaselineAndThreeVariants(t *testing.T) {
	tb, err := Table2(Options{Iterations: 2, MaxGPUs: 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("table2 has %d rows, want 4", len(tb.Rows))
	}
	if tb.Rows[0][1] != "SC-B" || tb.Rows[3][0] != "CB-8" {
		t.Errorf("table2 rows mislabeled: %v", tb.Rows)
	}
}

func TestOptionsHelpers(t *testing.T) {
	o := Options{}
	if o.iters(7) != 7 {
		t.Error("default iters ignored")
	}
	o.Iterations = 3
	if o.iters(7) != 3 {
		t.Error("override iters ignored")
	}
	capped := Options{MaxGPUs: 32}.cap([]int{16, 32, 64})
	if len(capped) != 2 || capped[1] != 32 {
		t.Errorf("cap = %v", capped)
	}
	uncapped := Options{}.cap([]int{16, 64})
	if len(uncapped) != 2 {
		t.Errorf("uncapped = %v", uncapped)
	}
}

func TestMarkdownEscapesNothingButRenders(t *testing.T) {
	tb := &Table{ID: "x", Title: "t", Columns: []string{"a", "b"}}
	tb.AddRow("1", "2")
	tb.Note("hello %d", 42)
	md := tb.Markdown()
	for _, want := range []string{"### x — t", "| a | b |", "| 1 | 2 |", "> hello 42"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}

func TestSkewShowsChainSensitivity(t *testing.T) {
	tb, err := Skew(Options{MaxGPUs: 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("skew rows = %d", len(tb.Rows))
	}
	// At the largest slowdown, CC must have degraded at least as much
	// as CB (relative to their own baselines) — the skew-tolerance
	// claim of Section 5.
	last := tb.Rows[len(tb.Rows)-1]
	cc := strings.TrimSuffix(last[4], "x")
	cb := strings.TrimSuffix(last[5], "x")
	var ccf, cbf float64
	if _, err := fmt.Sscanf(cc, "%f", &ccf); err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Sscanf(cb, "%f", &cbf); err != nil {
		t.Fatal(err)
	}
	if ccf < cbf {
		t.Errorf("CC degradation (%v) should be >= CB degradation (%v) under a straggler", ccf, cbf)
	}
}

// TestAllreduceSyncPinned holds the allreduce experiment's
// synchronization step — barrier, HR reduce and root broadcast or the
// ring, barrier — to its latency in nanoseconds at 8 to 160 ranks, as
// the blocking per-rank loop it was first written as measured it.
func TestAllreduceSyncPinned(t *testing.T) {
	for _, pin := range []struct {
		ranks int
		ring  bool
		ns    int64
	}{
		{8, false, 30028718}, {8, true, 13174931}, {32, false, 54543828}, {32, true, 16692291},
		{64, false, 61907988}, {64, true, 19244909}, {160, false, 104901830}, {160, true, 26339749},
	} {
		got, err := syncLatency(pin.ranks, 64<<20, pin.ring)
		if err != nil {
			t.Fatal(err)
		}
		if int64(got) != pin.ns {
			t.Errorf("%d ranks, ring %v: %d ns, pinned %d", pin.ranks, pin.ring, int64(got), pin.ns)
		}
	}
}
