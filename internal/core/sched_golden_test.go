package core

import (
	"testing"

	"scaffe/internal/coll"
	"scaffe/internal/data"
	"scaffe/internal/models"
	"scaffe/internal/sim"
)

// Golden equivalence: the DAG scheduler must reproduce the seed's
// hand-written per-design loops bit for bit. The constants below were
// captured from the loop implementation immediately before the sched
// refactor (cifar10-quick, synthetic CIFAR data, 4 training
// iterations); any drift in virtual time or losses means the graph no
// longer encodes the same schedule.

func goldenRealConfig(gpus int, d Design) Config {
	spec, err := models.ByName("cifar10-quick")
	if err != nil {
		panic(err)
	}
	return Config{
		Spec:        spec,
		RealNet:     models.BuildCIFAR10Quick,
		Dataset:     data.SyntheticCIFAR10(4096, 7),
		GPUs:        gpus,
		Nodes:       2,
		GPUsPerNode: 4,
		GlobalBatch: 32,
		Iterations:  4,
		Design:      d,
		Reduce:      coll.Binomial,
		Source:      MemorySource,
		Seed:        7,
		BaseLR:      0.01,
		Momentum:    0.9,
	}
}

func TestSchedulerGoldenEquivalence(t *testing.T) {
	golden := []struct {
		gpus   int
		design Design
		total  sim.Time
		losses []float32
	}{
		{4, SCB, 23683251, []float32{2.4990718, 2.2863834, 2.1974754, 2.4326906}},
		{4, SCOB, 23237177, []float32{2.4990718, 2.2863834, 2.1974754, 2.4326906}},
		{4, SCOBR, 22677313, []float32{2.4990718, 2.2863834, 2.1974754, 2.4326906}},
		{8, SCB, 23731178, []float32{2.5262697, 2.3438718, 2.2468104, 2.4665751}},
		{8, SCOB, 23457549, []float32{2.5262697, 2.3438718, 2.2468104, 2.4665751}},
		{8, SCOBR, 23366085, []float32{2.5262697, 2.3438718, 2.2468104, 2.4665751}},
	}
	for _, g := range golden {
		res, err := Run(goldenRealConfig(g.gpus, g.design))
		if err != nil {
			t.Fatalf("%v@%d: %v", g.design, g.gpus, err)
		}
		if res.TotalTime != g.total {
			t.Errorf("%v@%d total time = %d, seed loops gave %d", g.design, g.gpus, res.TotalTime, g.total)
		}
		if len(res.Losses) != len(g.losses) {
			t.Fatalf("%v@%d: %d losses, want %d", g.design, g.gpus, len(res.Losses), len(g.losses))
		}
		for i, l := range res.Losses {
			if l != g.losses[i] {
				t.Errorf("%v@%d loss[%d] = %v, seed loops gave %v", g.design, g.gpus, i, l, g.losses[i])
			}
		}
	}
}

func TestSchedulerGoldenTimingBaselines(t *testing.T) {
	// Timing-mode totals for every converted design, captured from the
	// seed loops (cifar10-quick, 3 iterations, seed 1).
	spec, err := models.ByName("cifar10-quick")
	if err != nil {
		t.Fatal(err)
	}
	golden := []struct {
		name  string
		total sim.Time
		mk    func() Config
	}{
		{"scb8", 18689684, func() Config { return timingConfig(spec, 8, 64, 3) }},
		{"scob8", 18198349, func() Config {
			cfg := timingConfig(spec, 8, 64, 3)
			cfg.Design = SCOB
			return cfg
		}},
		{"scobr8", 17160001, func() Config {
			cfg := timingConfig(spec, 8, 64, 3)
			cfg.Design = SCOBR
			return cfg
		}},
		{"cntk8", 17512746, func() Config {
			cfg := timingConfig(spec, 8, 64, 3)
			cfg.Design = CNTKLike
			return cfg
		}},
		{"ps8", 17874520, func() Config {
			cfg := timingConfig(spec, 8, 63, 3)
			cfg.Design = ParamServer
			return cfg
		}},
		{"caffe8", 18281183, func() Config {
			cfg := timingConfig(spec, 8, 64, 3)
			cfg.Design = CaffeMT
			cfg.Reduce = coll.Binomial
			cfg.Source = LMDBSource
			cfg.Nodes, cfg.GPUsPerNode = 1, 16
			return cfg
		}},
		{"lmdb16", 17745995, func() Config {
			cfg := timingConfig(spec, 16, 128, 3)
			cfg.Design = SCOBR
			cfg.Source = LMDBSource
			return cfg
		}},
	}
	for _, g := range golden {
		res, err := Run(g.mk())
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if res.TotalTime != g.total {
			t.Errorf("%s total = %d, seed loops gave %d", g.name, res.TotalTime, g.total)
		}
	}
}

func TestNormalizeDefaults(t *testing.T) {
	spec, err := models.ByName("cifar10-quick")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Spec: spec, GPUs: 20, GlobalBatch: 20, Iterations: 1}
	if err := cfg.validateAndDefault(); err != nil {
		t.Fatal(err)
	}
	if cfg.GPUsPerNode != 16 || cfg.Nodes != 2 {
		t.Errorf("cluster = %dx%d, want 2x16", cfg.Nodes, cfg.GPUsPerNode)
	}
	if cfg.BucketBytes != 0 {
		t.Errorf("BucketBytes = %d; nothing defaults it", cfg.BucketBytes)
	}

	// SC-OBR reduces per layer unless a bucket size is set.
	fcfg := Config{Spec: spec, GPUs: 4, GlobalBatch: 8, Iterations: 1, Design: SCOBR}
	if err := fcfg.validateAndDefault(); err != nil {
		t.Fatal(err)
	}
	if fcfg.BucketBytes != 0 {
		t.Errorf("SC-OBR BucketBytes = %d, want 0 (per layer)", fcfg.BucketBytes)
	}

	// Explicit values survive normalization.
	cfg2 := Config{Spec: spec, GPUs: 4, GlobalBatch: 8, Iterations: 1, Nodes: 1, GPUsPerNode: 8}
	if err := cfg2.validateAndDefault(); err != nil {
		t.Fatal(err)
	}
	if cfg2.Nodes != 1 || cfg2.GPUsPerNode != 8 {
		t.Errorf("explicit fields changed: %+v", cfg2)
	}

	// Invalid configs still fail before any defaulting applies.
	bad := Config{Spec: spec, GPUs: 0, GlobalBatch: 8, Iterations: 1}
	if err := bad.validateAndDefault(); err == nil {
		t.Error("zero GPUs should fail validation")
	}
}

func TestSCOBRFBeatsSCOBROnGoogLeNet(t *testing.T) {
	// On a many-small-layer model at scale, FireCaffe's 4 MiB gradient
	// buckets amortize the per-collective cost that per-layer SC-OBR
	// pays 50+ times per iteration. The name is that of the retired
	// SC-OBR-F design, which was SC-OBR at this bucket size.
	mk := func(bucket int64) Config {
		cfg := timingConfig(models.GoogLeNet(), 160, 1280, 3)
		cfg.Nodes, cfg.GPUsPerNode = 12, 16
		cfg.Design = SCOBR
		cfg.BucketBytes = bucket
		return cfg
	}
	scobr, err := Run(mk(0))
	if err != nil {
		t.Fatal(err)
	}
	fused, err := Run(mk(4 << 20))
	if err != nil {
		t.Fatal(err)
	}
	if fused.Phases.Aggregation >= scobr.Phases.Aggregation {
		t.Errorf("4 MiB buckets' aggregation (%v) should beat per-layer SC-OBR's (%v) on GoogLeNet at 160 GPUs",
			fused.Phases.Aggregation, scobr.Phases.Aggregation)
	}
	if fused.TotalTime >= scobr.TotalTime {
		t.Errorf("4 MiB buckets' total (%v) should beat per-layer SC-OBR (%v)", fused.TotalTime, scobr.TotalTime)
	}
}

func TestBucketedSCOBRLossesMatchPerLayer(t *testing.T) {
	// Bucketing changes when gradients are reduced, not their values:
	// real-mode training must converge identically.
	base, err := Run(goldenRealConfig(4, SCOBR))
	if err != nil {
		t.Fatal(err)
	}
	cfg := goldenRealConfig(4, SCOBR)
	cfg.BucketBytes = 64 << 10 // small enough to form several buckets on CIFAR
	fused, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fused.Losses) != len(base.Losses) {
		t.Fatalf("loss counts differ: %d vs %d", len(fused.Losses), len(base.Losses))
	}
	for i := range fused.Losses {
		if fused.Losses[i] != base.Losses[i] {
			t.Errorf("loss[%d]: 64 KiB buckets %v vs per layer %v", i, fused.Losses[i], base.Losses[i])
		}
	}
}
