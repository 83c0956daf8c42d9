package core

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"scaffe/internal/coll"
	"scaffe/internal/fault"
	"scaffe/internal/models"
	"scaffe/internal/sim"
)

// TestIntegrityValidation pins the plane's configuration rules: the
// corruption event kinds need the plane armed (and bitflip real
// compute), and the plane itself needs a root-broadcast design.
func TestIntegrityValidation(t *testing.T) {
	spec, _ := models.ByName("tiny")
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"bad mode", func(c *Config) { c.Integrity = IntegrityMode(9) }},
		{"bitflip without real net", func(c *Config) {
			c.Integrity = IntegrityRecover
			c.Faults = fault.Schedule{{Kind: fault.BitFlip, Rank: 0, Bit: 1}}
		}},
		{"bitflip without integrity", func(c *Config) {
			c.Faults = fault.Schedule{{Kind: fault.BitFlip, Rank: 0, Bit: 1}}
		}},
		{"corrupt-wire without integrity", func(c *Config) {
			c.Faults = fault.Schedule{{Kind: fault.CorruptWire, Src: 0, Dst: 1, N: 1}}
		}},
		{"integrity on Caffe", func(c *Config) {
			c.Design = CaffeMT
			c.Integrity = IntegrityDetect
		}},
		{"negative retransmit budget", func(c *Config) { c.RetransmitBudget = -1 }},
	}
	for _, tc := range cases {
		cfg := timingConfig(spec, 4, 16, 2)
		tc.mut(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: expected error, got nil", tc.name)
		}
	}
}

// TestParseIntegrityMode covers the CLI spellings.
func TestParseIntegrityMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want IntegrityMode
	}{{"off", IntegrityOff}, {"", IntegrityOff}, {"detect", IntegrityDetect}, {"recover", IntegrityRecover}} {
		got, err := ParseIntegrityMode(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseIntegrityMode(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseIntegrityMode("paranoid"); err == nil {
		t.Error("unknown mode should error")
	}
}

// TestIntegrityArmedUntrippedIsByteIdentical is the golden no-overhead
// check: arming the full integrity plane (checksummed receives,
// watchdog, last-good copies) without injecting anything must leave
// the run byte-identical to the unarmed one — same virtual end time,
// same losses, same final parameters.
func TestIntegrityArmedUntrippedIsByteIdentical(t *testing.T) {
	base, err := Run(tinyRealConfig(4, 32, 8))
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyRealConfig(4, 32, 8)
	cfg.Integrity = IntegrityRecover
	armed, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if armed.TotalTime != base.TotalTime {
		t.Errorf("armed-but-untripped plane changed the run: %v vs %v", armed.TotalTime, base.TotalTime)
	}
	if !reflect.DeepEqual(armed.Losses, base.Losses) {
		t.Error("armed-but-untripped plane changed the losses")
	}
	if !reflect.DeepEqual(armed.FinalParams, base.FinalParams) {
		t.Error("armed-but-untripped plane changed the final parameters")
	}
	ir := armed.Integrity
	if ir == nil || ir.Mode != IntegrityRecover {
		t.Fatalf("integrity report = %+v", ir)
	}
	if ir.Verified == 0 {
		t.Error("armed plane verified no transfers")
	}
	if ir.Detected != 0 || ir.Retransmitted != 0 || ir.WatchdogTrips != 0 || ir.Rollbacks != 0 || ir.Escalations != 0 {
		t.Errorf("clean run tripped the plane: %v", ir)
	}
	if base.Integrity != nil {
		t.Error("unarmed run carries an integrity report")
	}
}

// TestSDCDrillRecoversBitIdentically is the end-to-end acceptance
// drill in real-compute mode: parameter bit flips at the root plus
// wire corruption on the reduction links, every event detected, every
// repair exact — the corrupted run's losses and final parameters match
// the fault-free golden run bit for bit.
func TestSDCDrillRecoversBitIdentically(t *testing.T) {
	golden, err := Run(tinyRealConfig(4, 32, 12))
	if err != nil {
		t.Fatal(err)
	}
	gt := float64(golden.TotalTime)

	cfg := tinyRealConfig(4, 32, 12)
	cfg.Integrity = IntegrityRecover
	// Flips target the root's resident parameters (bit 30 lands in the
	// exponent, so the pre-update param scan always sees the blow-up);
	// wire events cover every link of the 4-rank binomial tree.
	cfg.Faults = fault.Schedule{
		{At: sim.Time(gt * 0.25), Kind: fault.BitFlip, Rank: 0, Word: 64, Bit: 30},
		{At: sim.Time(gt * 0.45), Kind: fault.BitFlip, Rank: 0, Word: 128, Bit: 30},
		{At: sim.Time(gt * 0.70), Kind: fault.BitFlip, Rank: 0, Word: 192, Bit: 30},
		{At: sim.Time(gt * 0.20), Kind: fault.CorruptWire, Src: 1, Dst: 0, N: 1},
		{At: sim.Time(gt * 0.50), Kind: fault.CorruptWire, Src: 3, Dst: 2, N: 1},
		{At: sim.Time(gt * 0.60), Kind: fault.CorruptWire, Src: 2, Dst: 0, N: 1},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ir := res.Integrity
	if ir == nil {
		t.Fatal("no integrity report")
	}
	if ir.Detected != 3 || ir.Retransmitted != 3 || ir.Escalations != 0 {
		t.Errorf("wire corruption not fully healed: %v", ir)
	}
	if ir.WatchdogTrips != 3 || ir.Rollbacks != 3 || ir.QuarantinedBatches != 0 {
		t.Errorf("bit flips not fully healed: %v", ir)
	}
	if res.Fault.BitFlips != 3 || res.Fault.WireCorruptions != 3 {
		t.Errorf("fault report = %v", res.Fault)
	}
	if !reflect.DeepEqual(res.Losses, golden.Losses) {
		t.Fatal("recovered losses differ from the fault-free golden run")
	}
	if len(res.FinalParams) != len(golden.FinalParams) {
		t.Fatalf("param count %d != %d", len(res.FinalParams), len(golden.FinalParams))
	}
	for i := range golden.FinalParams {
		if res.FinalParams[i] != golden.FinalParams[i] {
			t.Fatalf("param %d: recovered %v != golden %v (recovery is not bit-exact)",
				i, res.FinalParams[i], golden.FinalParams[i])
		}
	}
	if res.TotalTime <= golden.TotalTime {
		t.Error("repair took no virtual time")
	}
}

// TestWatchdogTripInLastIterationFinishes flips a root parameter inside
// the last iteration, after the other ranks' training loops have ended:
// the micro-rollback must resume those finished ranks for the replay
// (a world rebuilt without them is the root alone, and one rebuilt with
// them while they stay gone waits forever). Every root-broadcast design
// must end bit-identical to its fault-free golden.
func TestWatchdogTripInLastIterationFinishes(t *testing.T) {
	for _, d := range []Design{SCB, SCOB, SCOBR} {
		cfg := tinyRealConfig(4, 32, 6)
		cfg.Design = d
		golden, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Integrity = IntegrityRecover
		cfg.MaxVirtualTime = 4 * sim.Duration(golden.TotalTime)
		cfg.Faults = fault.Schedule{
			{At: sim.Time(float64(golden.TotalTime) * 0.95), Kind: fault.BitFlip, Rank: 0, Word: 64, Bit: 30},
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		if ir := res.Integrity; ir.WatchdogTrips != 1 || ir.Rollbacks != 1 {
			t.Errorf("%v: the flip did not take one micro-rollback: %v", d, ir)
		}
		if !reflect.DeepEqual(res.Losses, golden.Losses) {
			t.Errorf("%v: losses %v, golden %v", d, res.Losses, golden.Losses)
		}
		if !reflect.DeepEqual(res.FinalParams, golden.FinalParams) {
			t.Errorf("%v: final parameters differ from the fault-free golden run", d)
		}
	}
}

// TestSDCDetectModeObservesOnly pins detect-only semantics: corruption
// is counted but flows on — no retransmits, no rollbacks — and the run
// still completes. This is the behavior behind scaffe-train's exit
// code 4.
func TestSDCDetectModeObservesOnly(t *testing.T) {
	golden, err := Run(tinyRealConfig(4, 32, 12))
	if err != nil {
		t.Fatal(err)
	}
	gt := float64(golden.TotalTime)

	cfg := tinyRealConfig(4, 32, 12)
	cfg.Integrity = IntegrityDetect
	cfg.Faults = fault.Schedule{
		{At: sim.Time(gt * 0.3), Kind: fault.CorruptWire, Src: 1, Dst: 0, N: 1},
		{At: sim.Time(gt * 0.6), Kind: fault.CorruptWire, Src: 2, Dst: 0, N: 1},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ir := res.Integrity
	if ir.Detected != 2 {
		t.Errorf("detected %d corruptions, want 2", ir.Detected)
	}
	if ir.Retransmitted != 0 || ir.Rollbacks != 0 || ir.Escalations != 0 {
		t.Errorf("detect mode repaired something: %v", ir)
	}
	// Observe-only means the corrupted gradients really were applied.
	if reflect.DeepEqual(res.Losses, golden.Losses) {
		t.Error("detect mode losses identical to golden: the corruption did not flow on")
	}
	if len(res.Losses) != cfg.Iterations {
		t.Errorf("run did not complete: %d losses", len(res.Losses))
	}
}

// TestSDCQuarantineAfterExhaustedRetries forces the quarantine path:
// with IntegrityRetries negative the first watchdog trip condemns the
// batch, its update is skipped, and training continues.
func TestSDCQuarantineAfterExhaustedRetries(t *testing.T) {
	golden, err := Run(tinyRealConfig(4, 32, 12))
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyRealConfig(4, 32, 12)
	cfg.Integrity = IntegrityRecover
	cfg.IntegrityRetries = -1
	cfg.Faults = fault.Schedule{
		{At: sim.Time(float64(golden.TotalTime) * 0.5), Kind: fault.BitFlip, Rank: 0, Word: 96, Bit: 30},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ir := res.Integrity
	if ir.WatchdogTrips != 1 || ir.Rollbacks != 1 || ir.QuarantinedBatches != 1 {
		t.Errorf("quarantine path: %v", ir)
	}
	if len(res.Losses) != cfg.Iterations {
		t.Fatalf("run did not complete: %d losses", len(res.Losses))
	}
	for i, l := range res.Losses {
		if math.IsNaN(float64(l)) || math.IsInf(float64(l), 0) {
			t.Fatalf("loss %d = %v after quarantine", i, l)
		}
	}
}

// TestSDCScaleDrillDeterministic is the acceptance-scale drill: a
// 32-rank GoogLeNet run with 24 wire-corruption events across the
// chain-reduce links, all detected and retransmitted, bit-identical
// across trials and GOMAXPROCS settings.
func TestSDCScaleDrillDeterministic(t *testing.T) {
	mk := func() Config {
		cfg := timingConfig(models.GoogLeNet(), 32, 1024, 6)
		cfg.Nodes, cfg.GPUsPerNode = 8, 4
		cfg.Reduce = coll.Chain
		return cfg
	}
	base, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	bt := float64(base.TotalTime)

	cfg := mk()
	cfg.Integrity = IntegrityRecover
	// One corruption per chain link (k+1)->k, spread over the middle of
	// the run; every link carries checksummed chunks each iteration.
	for k := 0; k < 24; k++ {
		frac := 0.1 + 0.7*float64(k)/24
		cfg.Faults = append(cfg.Faults, fault.Event{
			At: sim.Time(bt * frac), Kind: fault.CorruptWire, Src: k + 1, Dst: k, N: 1,
		})
	}
	first, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ir := first.Integrity
	if ir.Detected != 24 || ir.Retransmitted != 24 || ir.Escalations != 0 {
		t.Fatalf("drill did not detect/heal all 24 events: %v", ir)
	}
	if ir.Verified == 0 {
		t.Error("no verified transfers")
	}
	if first.Fault.WireCorruptions != 24 {
		t.Errorf("fault report = %v", first.Fault)
	}

	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	for trial := 0; trial < 3; trial++ {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalTime != first.TotalTime {
			t.Fatalf("trial %d: total time %v != %v", trial, res.TotalTime, first.TotalTime)
		}
		if !reflect.DeepEqual(res.Integrity, first.Integrity) {
			t.Fatalf("trial %d: integrity report diverged:\n%+v\n%+v", trial, res.Integrity, first.Integrity)
		}
	}
}

// TestChunkRetryBudgetEscalates pins the escalation path: a wire that
// corrupts every transmission of a chunk (including retransmissions)
// exhausts the retry budget and revokes the communicator, handing the
// run to the full recovery path.
func TestChunkRetryBudgetEscalates(t *testing.T) {
	golden, err := Run(tinyRealConfig(4, 32, 12))
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyRealConfig(4, 32, 12)
	cfg.Integrity = IntegrityRecover
	cfg.RetransmitBudget = 1
	gt := float64(golden.TotalTime)
	// Three corruptions armed on one link: the retransmission of the
	// first consumes the second, exhausting the budget of 1.
	cfg.Faults = fault.Schedule{
		{At: sim.Time(gt * 0.4), Kind: fault.CorruptWire, Src: 1, Dst: 0, N: 1},
		{At: sim.Time(gt * 0.4), Kind: fault.CorruptWire, Src: 1, Dst: 0, N: 2},
		{At: sim.Time(gt * 0.4), Kind: fault.CorruptWire, Src: 1, Dst: 0, N: 3},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ir := res.Integrity
	if ir.Escalations == 0 {
		t.Fatalf("no escalation despite exhausted budget: %v", ir)
	}
	if len(res.Losses) != cfg.Iterations {
		t.Fatalf("run did not complete after escalation: %d losses", len(res.Losses))
	}
	for i, l := range res.Losses {
		if math.IsNaN(float64(l)) || math.IsInf(float64(l), 0) {
			t.Fatalf("loss %d = %v after escalation", i, l)
		}
	}
}
