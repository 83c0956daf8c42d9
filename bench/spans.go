package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call from the benchmark into a layer.
type span struct {
	Name     string
	ID       int // from 1; 0 is "no span"
	Parent   int // the span open when this one began, 0 at the top
	Start    time.Duration
	End      time.Duration
	Workload string
}

// spans is the benchmark's in-memory span recorder: it wraps every call
// the benchmark makes into a layer during a traced run and is written
// out once, when the run ends. Only the benchmark's own goroutine uses
// it. A nil *spans records nothing, which is how untraced reps run.
type spans struct {
	workload string
	t0       time.Time
	all      []span
	open     []int // stack of open span IDs
}

func newSpans(workload string) *spans {
	return &spans{workload: workload, t0: time.Now()}
}

// begin opens a span under the innermost open one and returns its ID for
// end.
func (s *spans) begin(name string) int {
	if s == nil {
		return 0
	}
	parent := 0
	if n := len(s.open); n > 0 {
		parent = s.open[n-1]
	}
	id := len(s.all) + 1
	s.all = append(s.all, span{Name: name, ID: id, Parent: parent, Start: time.Since(s.t0), Workload: s.workload})
	s.open = append(s.open, id)
	return id
}

// end closes the span begin returned; spans close innermost first.
func (s *spans) end(id int) {
	if s == nil {
		return
	}
	s.all[id-1].End = time.Since(s.t0)
	s.open = s.open[:len(s.open)-1]
}

// do runs fn inside a span.
func (s *spans) do(name string, fn func()) {
	id := s.begin(name)
	fn()
	s.end(id)
}

// chromeEvent is one complete ("X") event of the Chrome trace format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

type chromeTrace struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

// write stores the spans as Chrome-trace JSON (load in chrome://tracing
// or Perfetto); id, parent and workload travel in each event's args.
func (s *spans) write(path string) error {
	ct := chromeTrace{TraceEvents: make([]chromeEvent, 0, len(s.all))}
	for _, sp := range s.all {
		ct.TraceEvents = append(ct.TraceEvents, chromeEvent{
			Name: sp.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(sp.Start) / float64(time.Microsecond),
			Dur:  float64(sp.End-sp.Start) / float64(time.Microsecond),
			Args: map[string]any{"id": sp.ID, "parent": sp.Parent, "workload": sp.Workload},
		})
	}
	b, err := json.Marshal(ct)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
