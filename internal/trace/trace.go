// Package trace records per-rank phase timelines of a training run and
// renders them as a Chrome trace (chrome://tracing / Perfetto JSON) or
// an ASCII Gantt chart — the visual counterpart of Figures 4–6's
// overlap diagrams.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"scaffe/internal/sim"
)

// Event is one recorded span.
type Event struct {
	// Rank is the MPI rank the span belongs to.
	Rank int
	// Phase names the activity ("propagation", "forward", ...).
	Phase string
	// Label optionally names the scheduler node that produced the span
	// ("fwd:conv1", "reduce:bucket2", ...); empty for phase-level spans.
	Label string
	// Start and End bound the span in virtual time.
	Start, End sim.Time
}

// Duration returns the span length.
func (e Event) Duration() sim.Duration { return e.End - e.Start }

// Recorder accumulates events. The zero value is ready to use; a nil
// *Recorder ignores Add calls, so callers can record unconditionally.
type Recorder struct {
	events []Event
}

// New returns an empty recorder.
func New() *Recorder { return &Recorder{} }

// Add records one span. Zero-length spans are dropped.
func (t *Recorder) Add(rank int, phase string, start, end sim.Time) {
	t.AddNode(rank, phase, "", start, end)
}

// AddNode records one span carrying a scheduler-node label in addition
// to its phase. Zero-length spans are dropped.
func (t *Recorder) AddNode(rank int, phase, label string, start, end sim.Time) {
	if t == nil || end <= start {
		return
	}
	t.events = append(t.events, Event{Rank: rank, Phase: phase, Label: label, Start: start, End: end})
}

// Span is an open interval created by Begin and closed by End. It
// exists so call sites that bracket a phase across statements (rather
// than a closure) keep the lint-checked Begin/End pairing explicit.
type Span struct {
	rec   *Recorder
	rank  int
	phase string
	label string
	start sim.Time
}

// Begin opens a span at the given virtual time. The returned span must
// reach End on every path (enforced by scaffe-lint's trace pass); a
// nil recorder returns a nil span whose End is a no-op, so callers
// never branch on tracing being enabled.
func (t *Recorder) Begin(rank int, phase, label string, start sim.Time) *Span {
	if t == nil {
		return nil
	}
	return &Span{rec: t, rank: rank, phase: phase, label: label, start: start}
}

// End closes the span at the given virtual time and records it.
// Zero-length spans are dropped, matching Add.
func (s *Span) End(end sim.Time) {
	if s == nil {
		return
	}
	s.rec.AddNode(s.rank, s.phase, s.label, s.start, end)
}

// Events returns the recorded spans in insertion order.
func (t *Recorder) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events
}

// Len returns the number of recorded spans.
func (t *Recorder) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// chromeEvent is the Trace Event Format "complete" record.
type chromeEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
}

// WriteChromeTrace emits the timeline in Chrome Trace Event Format
// (load in chrome://tracing or ui.perfetto.dev). Ranks map to
// processes.
func (t *Recorder) WriteChromeTrace(w io.Writer) error {
	evs := make([]chromeEvent, 0, t.Len())
	for _, e := range t.Events() {
		evs = append(evs, chromeEvent{
			Name: e.Phase,
			Ph:   "X",
			Ts:   e.Start.Microseconds(),
			Dur:  e.Duration().Microseconds(),
			Pid:  e.Rank,
			Tid:  0,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(evs)
}

// phaseGlyphs maps phase names to Gantt glyphs; unknown phases render
// as '#'.
var phaseGlyphs = map[string]byte{
	"data":        'd',
	"propagation": 'P',
	"forward":     'F',
	"backward":    'B',
	"aggregation": 'A',
	"update":      'U',
	"bcast-wire":  'w',
	"recovery":    'R',
	"rollback":    'r',
}

// Gantt renders an ASCII timeline, one row per rank, `width` columns
// spanning [0, horizon]. Later events overwrite earlier ones in a
// cell; idle time is '.'.
func (t *Recorder) Gantt(width int) string {
	evs := t.Events()
	if len(evs) == 0 || width < 10 {
		return "(no trace)\n"
	}
	var horizon sim.Time
	maxRank := 0
	for _, e := range evs {
		if e.End > horizon {
			horizon = e.End
		}
		if e.Rank > maxRank {
			maxRank = e.Rank
		}
	}
	rows := make([][]byte, maxRank+1)
	for i := range rows {
		rows[i] = []byte(strings.Repeat(".", width))
	}
	for _, e := range evs {
		g, ok := phaseGlyphs[e.Phase]
		if !ok {
			g = '#'
		}
		lo := int(int64(e.Start) * int64(width) / int64(horizon))
		hi := int(int64(e.End) * int64(width) / int64(horizon))
		if hi <= lo {
			hi = lo + 1
		}
		if hi > width {
			hi = width
		}
		for c := lo; c < hi; c++ {
			rows[e.Rank][c] = g
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "timeline: 0 .. %v (one row per rank)\n", horizon)
	keys := make([]string, 0, len(phaseGlyphs))
	for k := range phaseGlyphs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "  %c=%s", phaseGlyphs[k], k)
	}
	b.WriteString("\n")
	for rank, row := range rows {
		fmt.Fprintf(&b, "rank%-3d |%s|\n", rank, row)
	}
	return b.String()
}

// SummaryRow aggregates one rank's timeline: total time per phase plus
// how much of the rank's communication was hidden under compute — the
// quantitative counterpart of the paper's Figures 4–6 overlap diagrams.
type SummaryRow struct {
	// Rank is the MPI rank the row describes.
	Rank int
	// Phases maps phase name to total recorded time.
	Phases map[string]sim.Duration
	// Compute is the union length of forward/backward/update spans.
	Compute sim.Duration
	// Comm is the union length of propagation/aggregation spans plus
	// any wire-level spans (phase suffix "-wire").
	Comm sim.Duration
	// Overlap is the portion of Comm that coincides with Compute.
	Overlap sim.Duration
	// OverlapPct is Overlap/Comm as a percentage (0 when Comm is 0).
	OverlapPct float64
}

// computePhase reports whether a phase counts as GPU compute.
func computePhase(phase string) bool {
	return phase == "forward" || phase == "backward" || phase == "update"
}

// commPhase reports whether a phase counts as communication. Wire
// spans ("bcast-wire", ...) are the offloaded transfer itself; the
// plain phases are time the rank was blocked in MPI calls.
func commPhase(phase string) bool {
	return phase == "propagation" || phase == "aggregation" || strings.HasSuffix(phase, "-wire")
}

type span struct{ lo, hi sim.Time }

// mergeSpans sorts and unions overlapping intervals.
func mergeSpans(in []span) []span {
	if len(in) == 0 {
		return nil
	}
	sort.Slice(in, func(i, j int) bool { return in[i].lo < in[j].lo })
	out := in[:1]
	for _, s := range in[1:] {
		last := &out[len(out)-1]
		if s.lo <= last.hi {
			if s.hi > last.hi {
				last.hi = s.hi
			}
			continue
		}
		out = append(out, s)
	}
	return out
}

// spanLen sums the lengths of (disjoint) spans.
func spanLen(spans []span) sim.Duration {
	var d sim.Duration
	for _, s := range spans {
		d += s.hi - s.lo
	}
	return d
}

// intersectLen measures the overlap of two merged span sets.
func intersectLen(a, b []span) sim.Duration {
	var d sim.Duration
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo, hi := a[i].lo, a[i].hi
		if b[j].lo > lo {
			lo = b[j].lo
		}
		if b[j].hi < hi {
			hi = b[j].hi
		}
		if hi > lo {
			d += hi - lo
		}
		if a[i].hi < b[j].hi {
			i++
		} else {
			j++
		}
	}
	return d
}

// Summary computes per-rank phase totals and the fraction of
// communication hidden under compute. Rows are ordered by rank; ranks
// with no events are omitted.
func (t *Recorder) Summary() []SummaryRow {
	if t.Len() == 0 {
		return nil
	}
	byRank := make(map[int]*SummaryRow)
	compute := make(map[int][]span)
	comm := make(map[int][]span)
	for _, e := range t.Events() {
		row := byRank[e.Rank]
		if row == nil {
			row = &SummaryRow{Rank: e.Rank, Phases: make(map[string]sim.Duration)}
			byRank[e.Rank] = row
		}
		row.Phases[e.Phase] += e.Duration()
		if computePhase(e.Phase) {
			compute[e.Rank] = append(compute[e.Rank], span{e.Start, e.End})
		}
		if commPhase(e.Phase) {
			comm[e.Rank] = append(comm[e.Rank], span{e.Start, e.End})
		}
	}
	rows := make([]SummaryRow, 0, len(byRank))
	for rank, row := range byRank {
		cp := mergeSpans(compute[rank])
		cm := mergeSpans(comm[rank])
		row.Compute = spanLen(cp)
		row.Comm = spanLen(cm)
		row.Overlap = intersectLen(cp, cm)
		if row.Comm > 0 {
			row.OverlapPct = 100 * float64(row.Overlap) / float64(row.Comm)
		}
		rows = append(rows, *row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Rank < rows[j].Rank })
	return rows
}

// PhaseTotals sums the recorded time per phase per rank.
func (t *Recorder) PhaseTotals() map[string][]sim.Duration {
	out := make(map[string][]sim.Duration)
	maxRank := 0
	for _, e := range t.Events() {
		if e.Rank > maxRank {
			maxRank = e.Rank
		}
	}
	for _, e := range t.Events() {
		row := out[e.Phase]
		if row == nil {
			row = make([]sim.Duration, maxRank+1)
		}
		row[e.Rank] += e.Duration()
		out[e.Phase] = row
	}
	return out
}
