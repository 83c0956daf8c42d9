package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"scaffe/internal/sim"
)

func sample() *Recorder {
	t := New()
	t.Add(0, "forward", 0, 10*sim.Millisecond)
	t.Add(0, "aggregation", 10*sim.Millisecond, 25*sim.Millisecond)
	t.Add(1, "forward", 2*sim.Millisecond, 12*sim.Millisecond)
	t.Add(1, "backward", 12*sim.Millisecond, 30*sim.Millisecond)
	return t
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Add(0, "forward", 0, 10) // must not panic
	if r.Len() != 0 || r.Events() != nil {
		t.Error("nil recorder should be empty")
	}
}

func TestAddDropsEmptySpans(t *testing.T) {
	r := New()
	r.Add(0, "x", 10, 10)
	r.Add(0, "x", 10, 5)
	if r.Len() != 0 {
		t.Errorf("empty spans recorded: %d", r.Len())
	}
}

func TestEventDuration(t *testing.T) {
	e := Event{Start: 5, End: 12}
	if e.Duration() != 7 {
		t.Errorf("duration = %v", e.Duration())
	}
}

func TestChromeTraceJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := sample().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	first := evs[0]
	if first["name"] != "forward" || first["ph"] != "X" {
		t.Errorf("first event = %v", first)
	}
	if first["dur"].(float64) != 10000 { // 10ms in µs
		t.Errorf("dur = %v, want 10000", first["dur"])
	}
}

func TestGantt(t *testing.T) {
	g := sample().Gantt(40)
	if !strings.Contains(g, "rank0 ") || !strings.Contains(g, "rank1 ") {
		t.Errorf("gantt missing rank rows:\n%s", g)
	}
	if !strings.Contains(g, "F") || !strings.Contains(g, "A") || !strings.Contains(g, "B") {
		t.Errorf("gantt missing phase glyphs:\n%s", g)
	}
	if New().Gantt(40) != "(no trace)\n" {
		t.Error("empty recorder should render placeholder")
	}
}

func TestGanttUnknownPhaseGlyph(t *testing.T) {
	r := New()
	r.Add(0, "exotic-phase", 0, 10)
	if !strings.Contains(r.Gantt(20), "#") {
		t.Error("unknown phases should render as #")
	}
}

func TestPhaseTotals(t *testing.T) {
	totals := sample().PhaseTotals()
	if got := totals["forward"][0]; got != 10*sim.Millisecond {
		t.Errorf("rank0 forward total = %v", got)
	}
	if got := totals["backward"][1]; got != 18*sim.Millisecond {
		t.Errorf("rank1 backward total = %v", got)
	}
}

func TestAddNodeLabel(t *testing.T) {
	r := New()
	r.AddNode(0, "forward", "fwd:conv1", 0, 5)
	r.AddNode(0, "forward", "fwd:conv1", 5, 5) // zero-length dropped
	if r.Len() != 1 {
		t.Fatalf("got %d events, want 1", r.Len())
	}
	if e := r.Events()[0]; e.Label != "fwd:conv1" || e.Phase != "forward" {
		t.Errorf("event = %+v", e)
	}
	var nilRec *Recorder
	nilRec.AddNode(0, "x", "y", 0, 1) // must not panic
}

func TestSummaryOverlap(t *testing.T) {
	r := New()
	// Rank 0: backward 0..100, a wire span 40..80 fully hidden under
	// it, and a blocking aggregation 100..130 with no overlap.
	r.Add(0, "backward", 0, 100)
	r.AddNode(0, "bcast-wire", "bcast:conv1", 40, 80)
	r.Add(0, "aggregation", 100, 130)
	rows := r.Summary()
	if len(rows) != 1 || rows[0].Rank != 0 {
		t.Fatalf("rows = %+v", rows)
	}
	row := rows[0]
	if row.Compute != 100 {
		t.Errorf("compute = %v, want 100", row.Compute)
	}
	if row.Comm != 70 { // 40 wire + 30 aggregation
		t.Errorf("comm = %v, want 70", row.Comm)
	}
	if row.Overlap != 40 {
		t.Errorf("overlap = %v, want 40", row.Overlap)
	}
	if row.OverlapPct < 57.1 || row.OverlapPct > 57.2 {
		t.Errorf("overlap%% = %v, want ~57.14", row.OverlapPct)
	}
	if row.Phases["backward"] != 100 || row.Phases["aggregation"] != 30 {
		t.Errorf("phases = %v", row.Phases)
	}
}

func TestSummaryMultiRankOrderAndZeroComm(t *testing.T) {
	r := New()
	r.Add(3, "forward", 0, 10)
	r.Add(1, "forward", 0, 10)
	r.Add(1, "propagation", 10, 20)
	rows := r.Summary()
	if len(rows) != 2 || rows[0].Rank != 1 || rows[1].Rank != 3 {
		t.Fatalf("rows misordered: %+v", rows)
	}
	if rows[1].Comm != 0 || rows[1].OverlapPct != 0 {
		t.Errorf("rank3 should have zero comm: %+v", rows[1])
	}
	if rows[0].Overlap != 0 {
		t.Errorf("rank1 overlap = %v, want 0", rows[0].Overlap)
	}
	if New().Summary() != nil {
		t.Error("empty recorder should return nil summary")
	}
}

func TestMergeAndIntersect(t *testing.T) {
	merged := mergeSpans([]span{{5, 10}, {0, 6}, {12, 15}})
	if len(merged) != 2 || merged[0] != (span{0, 10}) || merged[1] != (span{12, 15}) {
		t.Fatalf("merged = %+v", merged)
	}
	if got := spanLen(merged); got != 13 {
		t.Errorf("spanLen = %v, want 13", got)
	}
	other := []span{{8, 13}}
	if got := intersectLen(merged, other); got != 3 { // 8..10 + 12..13
		t.Errorf("intersect = %v, want 3", got)
	}
}
