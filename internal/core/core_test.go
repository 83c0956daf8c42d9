package core

import (
	"errors"
	"strings"
	"testing"

	"scaffe/internal/coll"
	"scaffe/internal/data"
	"scaffe/internal/gpu"
	"scaffe/internal/layers"
	"scaffe/internal/models"
	"scaffe/internal/tensor"
)

// tinyRealConfig returns a real-compute config on the tiny net.
func tinyRealConfig(gpus, batch, iters int) Config {
	net := models.BuildTinyNet(1, 1)
	return Config{
		Spec:        models.SpecFromNet(net),
		RealNet:     models.BuildTinyNet,
		Dataset:     data.NewSynthetic("tiny", layers.Shape{C: 3, H: 8, W: 8}, 4, 4096, 11),
		GPUs:        gpus,
		Nodes:       4,
		GPUsPerNode: 4,
		GlobalBatch: batch,
		Iterations:  iters,
		Design:      SCB,
		Reduce:      coll.Binomial,
		Source:      MemorySource,
		Seed:        7,
		BaseLR:      0.05,
		Momentum:    0.9,

		CaptureFinalParams: true,
	}
}

func timingConfig(spec *models.Spec, gpus, batch, iters int) Config {
	return Config{
		Spec:        spec,
		GPUs:        gpus,
		GlobalBatch: batch,
		Iterations:  iters,
		Design:      SCB,
		Reduce:      coll.Tuned,
		Source:      MemorySource,
		Seed:        1,
	}
}

// designRuns are the configurations the per-design tests run: every
// design, and SC-OBR a second time at FireCaffe's 4 MiB gradient buckets
// (Config.BucketBytes; 0 reduces per layer).
var designRuns = []struct {
	name   string
	design Design
	bucket int64
}{
	{"SC-B", SCB, 0}, {"SC-OB", SCOB, 0}, {"SC-OBR", SCOBR, 0}, {"SC-OBR/4MiB", SCOBR, 4 << 20},
	{"Caffe", CaffeMT, 0}, {"CNTK-like", CNTKLike, 0}, {"ParamServer", ParamServer, 0},
}

func TestValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"no spec", func(c *Config) { c.Spec = nil }},
		{"zero gpus", func(c *Config) { c.GPUs = 0 }},
		{"zero batch", func(c *Config) { c.GlobalBatch = 0 }},
		{"zero iters", func(c *Config) { c.Iterations = 0 }},
		{"indivisible batch", func(c *Config) { c.GlobalBatch = 7; c.GPUs = 4 }},
		{"bad design", func(c *Config) { c.Design = Design(42) }},
		{"ps one gpu", func(c *Config) { c.Design = ParamServer; c.GPUs = 1; c.GlobalBatch = 1 }},
		{"ps too many", func(c *Config) { c.Design = ParamServer; c.GPUs = 17; c.GlobalBatch = 17 * 16 }},
		{"caffe multinode", func(c *Config) { c.Design = CaffeMT; c.GPUs = 8; c.GPUsPerNode = 4; c.Nodes = 2 }},
	}
	for _, tc := range cases {
		spec, _ := models.ByName("tiny")
		cfg := timingConfig(spec, 4, 16, 2)
		tc.mut(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: expected error, got nil", tc.name)
		}
	}
}

// TestSimParallelValidation pins what is left of the option: a negative
// value is ErrConfig, any other is accepted and changes nothing.
func TestSimParallelValidation(t *testing.T) {
	spec, _ := models.ByName("tiny")
	cfg := timingConfig(spec, 4, 16, 2)
	cfg.SimParallel = -1
	if _, err := Run(cfg); !errors.Is(err, ErrConfig) {
		t.Fatalf("negative SimParallel: got %v, want ErrConfig", err)
	}
	want, err := Run(timingConfig(spec, 4, 16, 2))
	if err != nil {
		t.Fatal(err)
	}
	cfg.SimParallel = 8
	got, err := Run(cfg)
	if err != nil {
		t.Fatalf("SimParallel=8: %v", err)
	}
	if got.TotalTime != want.TotalTime || got.Resumes != want.Resumes {
		t.Errorf("SimParallel=8 ran %v with %+v, unset ran %v with %+v", got.TotalTime, got.Resumes, want.TotalTime, want.Resumes)
	}
}

// TestTimingModeAllDesignsRun runs every design through the one per-rank
// loop on a configuration that cannot trip (no schedule, no integrity
// plane, no eviction policy). Such a run has a plane nothing is wired
// to: it reports no fault outcome, and since its readers stop when their
// iterations are read, the kernel drains at the instant the last rank
// leaves the loop, which is the run's total.
func TestTimingModeAllDesignsRun(t *testing.T) {
	spec, err := models.ByName("cifar10-quick")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range designRuns {
		name := row.name
		cfg := timingConfig(spec, 8, 64, 3)
		cfg.Design, cfg.BucketBytes = row.design, row.bucket
		cfg.Source = LMDBSource
		if row.design == ParamServer {
			cfg.GlobalBatch = 63 // 7 workers
		}
		res, st, err := run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.TotalTime <= 0 {
			t.Errorf("%s: zero total time", name)
		}
		if res.SamplesPerSec <= 0 {
			t.Errorf("%s: zero throughput", name)
		}
		if now := st.k.Now(); st.doneAt != now || res.TotalTime != now || st.ranksLive != 0 {
			t.Errorf("%s: last rank left at %d (%d still in the loop), total %d, kernel drained at %d",
				name, st.doneAt, st.ranksLive, res.TotalTime, now)
		}
		if res.Fault != nil {
			t.Errorf("%s: a run that cannot trip reports a fault outcome: %v", name, res.Fault)
		}
	}
}

func TestCaffeMTSingleNode(t *testing.T) {
	spec, _ := models.ByName("cifar10-quick")
	cfg := timingConfig(spec, 8, 64, 3)
	cfg.Design = CaffeMT
	cfg.Nodes = 1
	cfg.GPUsPerNode = 16
	cfg.Source = LMDBSource
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Design != "Caffe" {
		t.Errorf("design label = %q", res.Design)
	}
}

func TestRealTrainingLossDecreases(t *testing.T) {
	cfg := tinyRealConfig(4, 32, 30)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Losses) != 30 {
		t.Fatalf("got %d losses, want 30", len(res.Losses))
	}
	first := avg(res.Losses[:5])
	last := avg(res.Losses[25:])
	if last >= first {
		t.Errorf("loss did not decrease: first5=%.4f last5=%.4f", first, last)
	}
}

func avg(xs []float32) float64 {
	var s float64
	for _, x := range xs {
		s += float64(x)
	}
	return s / float64(len(xs))
}

func TestDistributedMatchesSingleGPU(t *testing.T) {
	// The gradient-aggregation equivalence at the heart of data-
	// parallel training: N solvers on batch B/N each, summed gradients
	// scaled by 1/N, must match one solver on batch B up to float
	// reassociation.
	single, err := Run(tinyRealConfig(1, 16, 8))
	if err != nil {
		t.Fatal(err)
	}
	multi, err := Run(tinyRealConfig(4, 16, 8))
	if err != nil {
		t.Fatal(err)
	}
	if len(single.FinalParams) != len(multi.FinalParams) {
		t.Fatalf("param count mismatch: %d vs %d", len(single.FinalParams), len(multi.FinalParams))
	}
	a := tensor.FromSlice(single.FinalParams, len(single.FinalParams))
	b := tensor.FromSlice(multi.FinalParams, len(multi.FinalParams))
	if d := tensor.MaxAbsDiff(a, b); d > 1e-3 {
		t.Errorf("distributed vs single-GPU params diverge: max |Δ| = %g", d)
	}
}

func TestOverlappedDesignsMatchSCBNumerically(t *testing.T) {
	// SC-OB and SC-OBR change the communication schedule, not the
	// math: with the same reduce tree they must produce identical
	// parameters.
	base, err := Run(tinyRealConfig(4, 16, 6))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []Design{SCOB, SCOBR} {
		cfg := tinyRealConfig(4, 16, 6)
		cfg.Design = d
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		a := tensor.FromSlice(base.FinalParams, len(base.FinalParams))
		b := tensor.FromSlice(res.FinalParams, len(res.FinalParams))
		if diff := tensor.MaxAbsDiff(a, b); diff > 1e-6 {
			t.Errorf("%v params differ from SC-B: max |Δ| = %g", d, diff)
		}
	}
}

func TestCNTKMatchesSCBNumerically(t *testing.T) {
	// The host-staged allreduce computes the same sums; every replica
	// applies the same update.
	base, err := Run(tinyRealConfig(4, 16, 5))
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyRealConfig(4, 16, 5)
	cfg.Design = CNTKLike
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := tensor.FromSlice(base.FinalParams, len(base.FinalParams))
	b := tensor.FromSlice(res.FinalParams, len(res.FinalParams))
	if diff := tensor.MaxAbsDiff(a, b); diff > 1e-6 {
		t.Errorf("CNTK-like params differ from SC-B: max |Δ| = %g", diff)
	}
}

func TestSCOBFasterThanSCB(t *testing.T) {
	// Figure 13: overlapping propagation with the forward pass hides
	// broadcast latency for communication-heavy models.
	spec := models.GoogLeNet()
	base := timingConfig(spec, 32, 256, 3)
	base.Nodes, base.GPUsPerNode = 2, 16
	scb, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	ob := base
	ob.Design = SCOB
	scob, err := Run(ob)
	if err != nil {
		t.Fatal(err)
	}
	if scob.TotalTime >= scb.TotalTime {
		t.Errorf("SC-OB (%v) should beat SC-B (%v)", scob.TotalTime, scb.TotalTime)
	}
	if scob.Phases.Propagation >= scb.Phases.Propagation {
		t.Errorf("SC-OB propagation time (%v) should shrink vs SC-B (%v)",
			scob.Phases.Propagation, scb.Phases.Propagation)
	}
}

func TestSCOBRFasterThanSCOB(t *testing.T) {
	spec := models.GoogLeNet()
	base := timingConfig(spec, 32, 256, 3)
	base.Nodes, base.GPUsPerNode = 2, 16
	base.Design = SCOB
	scob, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	obr := base
	obr.Design = SCOBR
	scobr, err := Run(obr)
	if err != nil {
		t.Fatal(err)
	}
	if scobr.TotalTime >= scob.TotalTime {
		t.Errorf("SC-OBR (%v) should beat SC-OB (%v)", scobr.TotalTime, scob.TotalTime)
	}
}

func TestDeterministicRuns(t *testing.T) {
	spec, _ := models.ByName("cifar10-quick")
	cfg := timingConfig(spec, 16, 128, 3)
	cfg.Design = SCOBR
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalTime != b.TotalTime {
		t.Errorf("identical configs produced %v vs %v", a.TotalTime, b.TotalTime)
	}
}

func TestOOMDetection(t *testing.T) {
	spec := models.GoogLeNet()
	cfg := timingConfig(spec, 2, 2048, 1) // 1024 samples per GPU
	cfg.Nodes, cfg.GPUsPerNode = 1, 16
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("expected out-of-memory error for 1024 samples/GPU on GoogLeNet")
	}
	if !strings.Contains(err.Error(), "out of memory") {
		t.Errorf("error %q does not mention memory", err)
	}
}

// TestMemoryCheckEdge walks GoogLeNet's local batch across one GPU's
// 12 GiB: 159 samples fit (12,855,620,800 bytes), 160 do not
// (12,935,800,640). checkMemory must fail exactly when perRankMemory
// exceeds deviceMemory, with an ErrOutOfMemory naming both.
func TestMemoryCheckEdge(t *testing.T) {
	cfg := timingConfig(models.GoogLeNet(), 2, 2048, 1)
	for _, tc := range []struct {
		local int
		fits  bool
	}{{1, true}, {128, true}, {159, true}, {160, false}, {161, false}, {1024, false}} {
		need := perRankMemory(&cfg, tc.local)
		if fits := need <= deviceMemory; fits != tc.fits {
			t.Fatalf("local batch %d needs %d bytes: fits=%v, want %v", tc.local, need, fits, tc.fits)
		}
		err := checkMemory(cfg, tc.local)
		if tc.fits {
			if err != nil {
				t.Errorf("local batch %d (%d bytes): %v", tc.local, need, err)
			}
			continue
		}
		var oom *gpu.ErrOutOfMemory
		if !errors.As(err, &oom) {
			t.Fatalf("local batch %d (%d bytes): error %v (%T), want *gpu.ErrOutOfMemory", tc.local, need, err, err)
		}
		if oom.Requested != need || oom.Free != deviceMemory {
			t.Errorf("local batch %d: Requested=%d Free=%d, want %d and %d", tc.local, oom.Requested, oom.Free, need, int64(deviceMemory))
		}
	}
}

func TestWeakScaling(t *testing.T) {
	spec, _ := models.ByName("cifar10-quick")
	cfg := timingConfig(spec, 4, 32, 2)
	cfg.Weak = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.LocalBatch != 32 {
		t.Errorf("weak scaling local batch = %d, want 32", res.LocalBatch)
	}
	cfg.Weak = false
	res2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res2.LocalBatch != 8 {
		t.Errorf("strong scaling local batch = %d, want 8", res2.LocalBatch)
	}
}

func TestLMDBSourceSlowerBeyondSlotLimit(t *testing.T) {
	// The Figure 8 cliff: at 96+ readers LMDB batches cost much more
	// than at 64.
	spec, _ := models.ByName("cifar10-quick")
	run := func(gpus int) float64 {
		cfg := timingConfig(spec, gpus, gpus*4, 3)
		cfg.Nodes, cfg.GPUsPerNode = 12, 16
		cfg.Source = LMDBSource
		cfg.Weak = false
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.SamplesPerSec / float64(gpus)
	}
	perGPU64 := run(64)
	perGPU160 := run(160)
	if perGPU160 >= perGPU64*0.8 {
		t.Errorf("LMDB per-GPU throughput should collapse past 64 readers: 64->%.0f, 160->%.0f",
			perGPU64, perGPU160)
	}
}

func TestPhaseBreakdownSums(t *testing.T) {
	spec, _ := models.ByName("cifar10-quick")
	cfg := timingConfig(spec, 8, 64, 3)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases.Total() <= 0 {
		t.Error("phase breakdown is empty")
	}
	if res.Phases.Total() > res.TotalTime {
		t.Errorf("root blocked time (%v) exceeds wall time (%v)", res.Phases.Total(), res.TotalTime)
	}
	if res.TimePerIter() <= 0 {
		t.Error("TimePerIter must be positive")
	}
}

func TestDesignAndSourceStrings(t *testing.T) {
	if SCB.String() != "SC-B" || SCOBR.String() != "SC-OBR" || Design(99).String() != "unknown" {
		t.Error("design strings wrong")
	}
	if LMDBSource.String() != "lmdb" || SourceKind(99).String() != "unknown" {
		t.Error("source strings wrong")
	}
}

func TestBucketedSCOBRMatchesUnbucketed(t *testing.T) {
	// Gradient fusion must not change the math, only the schedule.
	base := tinyRealConfig(4, 16, 5)
	base.Design = SCOBR
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	bucketed := base
	bucketed.BucketBytes = 4 << 10 // force multi-layer buckets on the tiny net
	res, err := Run(bucketed)
	if err != nil {
		t.Fatal(err)
	}
	a := tensor.FromSlice(plain.FinalParams, len(plain.FinalParams))
	b := tensor.FromSlice(res.FinalParams, len(res.FinalParams))
	if d := tensor.MaxAbsDiff(a, b); d > 1e-6 {
		t.Errorf("bucketed params diverge: max |Δ| = %g", d)
	}
}

func TestBucketingUShape(t *testing.T) {
	// GoogLeNet's many small layers make per-layer reduces latency-
	// bound at 160 GPUs; megabyte buckets amortize the per-collective
	// cost, but fusing the whole model destroys backward overlap —
	// the U-shape behind PyTorch DDP's default bucket size.
	mk := func(bucket int64) Config {
		spec := models.GoogLeNet()
		cfg := timingConfig(spec, 160, 1280, 3)
		cfg.Nodes, cfg.GPUsPerNode = 12, 16
		cfg.Design = SCOBR
		cfg.BucketBytes = bucket
		return cfg
	}
	plain, err := Run(mk(0))
	if err != nil {
		t.Fatal(err)
	}
	fused, err := Run(mk(4 << 20))
	if err != nil {
		t.Fatal(err)
	}
	whole, err := Run(mk(1 << 30))
	if err != nil {
		t.Fatal(err)
	}
	if fused.TotalTime >= plain.TotalTime {
		t.Errorf("4MB bucketing (%v) should beat per-layer reduces (%v) at 160 GPUs",
			fused.TotalTime, plain.TotalTime)
	}
	if whole.TotalTime <= fused.TotalTime {
		t.Errorf("whole-model fusion (%v) should lose overlap vs 4MB buckets (%v)",
			whole.TotalTime, fused.TotalTime)
	}
}

func TestBucketCoverage(t *testing.T) {
	// Every parameter layer lands in exactly one bucket, and buckets
	// cover the full parameter range.
	spec := models.GoogLeNet()
	cfg := timingConfig(spec, 2, 2, 1)
	w := newLayout(&cfg, false)
	w.buildBuckets(spec, 8<<20)
	if len(w.buckets) < 2 {
		t.Fatalf("expected multiple buckets, got %d", len(w.buckets))
	}
	var total int64
	covered := make(map[int]bool)
	for _, b := range w.buckets {
		total += b.buf.Bytes
		for l := b.lo; l <= b.hi; l++ {
			if spec.Layers[l].ParamElems > 0 {
				if covered[l] {
					t.Fatalf("layer %d in two buckets", l)
				}
				covered[l] = true
			}
		}
	}
	if total != spec.ParamBytes() {
		t.Errorf("buckets cover %d bytes, model has %d", total, spec.ParamBytes())
	}
	if len(covered) != len(spec.ParamLayers()) {
		t.Errorf("buckets cover %d param layers, model has %d", len(covered), len(spec.ParamLayers()))
	}
	// Buckets complete in backward order: descending lo.
	for i := 1; i < len(w.buckets); i++ {
		if w.buckets[i].lo >= w.buckets[i-1].lo {
			t.Fatal("buckets not in backward order")
		}
	}
}
