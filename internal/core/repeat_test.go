package core

import (
	"slices"
	"testing"

	"scaffe/internal/models"
	"scaffe/internal/trace"
)

// TestEveryDesignRepeatsItsTrace runs every design three times and wants
// the same trace each time, span for span. Go randomizes the order of
// every range over a map, so a map range that orders sends, spans or
// plan nodes shows here on almost every try, even where no pinned total
// moves: the parameter server's send order decides which worker waits
// longest, not when the run ends.
func TestEveryDesignRepeatsItsTrace(t *testing.T) {
	spec, err := models.ByName("cifar10-quick")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range designRuns {
		name := row.name
		cfg := timingConfig(spec, 8, 64, 2)
		cfg.Design, cfg.BucketBytes = row.design, row.bucket
		switch row.design {
		case ParamServer:
			cfg.GlobalBatch = 63 // seven workers
		case CaffeMT:
			cfg.Nodes, cfg.GPUsPerNode = 1, 16
		}
		var first []trace.Event
		for run := range 3 {
			cfg.Trace = trace.New()
			if _, err := Run(cfg); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if ev := cfg.Trace.Events(); run == 0 {
				if first = ev; len(first) == 0 {
					t.Fatalf("%s: the run recorded no spans", name)
				}
			} else if !slices.Equal(ev, first) {
				t.Errorf("%s: run %d recorded a different trace from run 0's (%d and %d spans)", name, run, len(ev), len(first))
			}
		}
	}
}
