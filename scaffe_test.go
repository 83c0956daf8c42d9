package scaffe

import (
	"testing"

	"scaffe/internal/sim"
)

func TestModelRegistry(t *testing.T) {
	for _, name := range []string{"lenet", "cifar10-quick", "alexnet", "caffenet", "googlenet", "tiny"} {
		spec, err := Model(name)
		if err != nil {
			t.Fatalf("Model(%s): %v", name, err)
		}
		if spec.TotalParams() <= 0 {
			t.Errorf("%s has no parameters", name)
		}
	}
	if _, err := Model("bogus"); err == nil {
		t.Error("unknown model should error")
	}
}

func TestMustModelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustModel should panic on unknown model")
		}
	}()
	MustModel("bogus")
}

func TestRealNetBuilder(t *testing.T) {
	for _, name := range []string{"lenet", "cifar10-quick", "tiny"} {
		b, err := RealNetBuilder(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		net := b(2, 1)
		if net.TotalParams() <= 0 {
			t.Errorf("%s built an empty net", name)
		}
	}
	if _, err := RealNetBuilder("googlenet"); err == nil {
		t.Error("googlenet should be timing-only")
	}
}

func TestSyntheticDatasets(t *testing.T) {
	for _, name := range []string{"lenet", "cifar10-quick", "tiny", "alexnet", "googlenet"} {
		ds, err := SyntheticDataset(name, 16, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ds.Len() != 16 {
			t.Errorf("%s dataset len = %d", name, ds.Len())
		}
	}
	if _, err := SyntheticDataset("bogus", 4, 1); err == nil {
		t.Error("unknown dataset should error")
	}
}

func TestTrainEndToEnd(t *testing.T) {
	res, err := Train(Config{
		Spec:        MustModel("cifar10-quick"),
		GPUs:        8,
		GlobalBatch: 64,
		Iterations:  3,
		Design:      SCOBR,
		Reduce:      ReduceHR,
		Source:      ImageData,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SamplesPerSec <= 0 || res.TotalTime <= 0 {
		t.Errorf("degenerate result: %+v", res)
	}
}

func TestTrainRealMode(t *testing.T) {
	builder, err := RealNetBuilder("tiny")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := SyntheticDataset("tiny", 1024, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Train(Config{
		Spec:        MustModel("tiny"),
		RealNet:     builder,
		Dataset:     ds,
		GPUs:        2,
		GlobalBatch: 16,
		Iterations:  4,
		Design:      SCB,
		Reduce:      ReduceBinomial,
		Source:      InMemory,
		Seed:        5,
		BaseLR:      0.05,

		CaptureFinalParams: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Losses) != 4 || len(res.FinalParams) == 0 {
		t.Errorf("real mode produced losses=%d params=%d", len(res.Losses), len(res.FinalParams))
	}
}

func TestReduceBenchOrdering(t *testing.T) {
	run := func(alg ReduceAlgorithm) sim.Duration {
		lat, err := ReduceBench(ReduceBenchConfig{
			Ranks: 32, Bytes: 32 << 20, Algorithm: alg, Trials: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return lat
	}
	hr := run(ReduceHR)
	mv2 := run(ReduceMV2)
	ompi := run(ReduceOpenMPI)
	if !(hr < mv2 && mv2 < ompi) {
		t.Errorf("expected HR < MV2 < OpenMPI, got %v, %v, %v", hr, mv2, ompi)
	}
}

// TestReduceBenchValidation: a configuration the drivers cannot measure
// is an error, not a wrong latency or a panic.
func TestReduceBenchValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  ReduceBenchConfig
	}{
		{"zero ranks", ReduceBenchConfig{Ranks: 0, Bytes: 1024, Algorithm: ReduceHR}},
		{"negative trials", ReduceBenchConfig{Ranks: 4, Bytes: 1024, Algorithm: ReduceHR, Trials: -1}},
		{"negative bytes", ReduceBenchConfig{Ranks: 4, Bytes: -1, Algorithm: ReduceHR}},
		{"more ranks than GPUs", ReduceBenchConfig{Ranks: 20, Nodes: 1, GPUsPerNode: 16, Bytes: 1024, Algorithm: ReduceHR}},
		{"negative GPUs per node", ReduceBenchConfig{Ranks: 4, GPUsPerNode: -1, Bytes: 1024, Algorithm: ReduceHR}},
		{"negative nodes", ReduceBenchConfig{Ranks: 4, Nodes: -1, Bytes: 1024, Algorithm: ReduceHR}},
		{"unknown algorithm", ReduceBenchConfig{Ranks: 4, Bytes: 1024, Algorithm: 99}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lat, err := ReduceBench(tc.cfg)
			if err == nil {
				t.Errorf("ReduceBench(%+v) = %v, want an error", tc.cfg, lat)
			}
		})
	}
	for _, tc := range []struct {
		ranks int
		bytes int64
	}{{1, 1024}, {4, -5}} {
		if res, err := IbcastOverlapBench(tc.ranks, tc.bytes); err == nil {
			t.Errorf("IbcastOverlapBench(%d, %d) = %+v, want an error", tc.ranks, tc.bytes, res)
		}
	}
}

func TestReduceBenchDeterministic(t *testing.T) {
	cfg := ReduceBenchConfig{Ranks: 16, Bytes: 8 << 20, Algorithm: ReduceCB}
	a, err := ReduceBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReduceBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("non-deterministic bench: %v vs %v", a, b)
	}
}

func TestReduceBenchSingleRank(t *testing.T) {
	lat, err := ReduceBench(ReduceBenchConfig{Ranks: 1, Bytes: 1 << 20, Algorithm: ReduceHR})
	if err != nil {
		t.Fatal(err)
	}
	if lat < 0 {
		t.Errorf("negative latency %v", lat)
	}
}

func TestIbcastOverlapBench(t *testing.T) {
	res, err := IbcastOverlapBench(16, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Overlap < 0.5 {
		t.Errorf("offloaded Ibcast hid only %.0f%% of an 8MB broadcast; expected substantial overlap", res.Overlap*100)
	}
	if res.OverlappedTime >= res.BlockingTime+res.ComputeTime {
		t.Error("overlapped run should beat the serialized sum")
	}
	if _, err := IbcastOverlapBench(1, 1024); err == nil {
		t.Error("single-rank overlap bench should error")
	}
}

// TestIbcastOverlapBenchPinned holds the overlap driver to its three
// durations, in virtual nanoseconds, exactly.
func TestIbcastOverlapBenchPinned(t *testing.T) {
	for _, pin := range []struct {
		ranks                         int
		bytes                         int64
		blocking, compute, overlapped sim.Duration
	}{
		{2, 4 << 10, 5409, 5409, 5409},
		{16, 8 << 20, 4217300, 4217300, 4217300},
		{17, 1 << 20, 562499, 562499, 562499},
		{160, 64 << 20, 67203288, 67203288, 67203288},
	} {
		res, err := IbcastOverlapBench(pin.ranks, pin.bytes)
		if err != nil {
			t.Fatal(err)
		}
		if res.BlockingTime != pin.blocking || res.ComputeTime != pin.compute || res.OverlappedTime != pin.overlapped {
			t.Errorf("%d ranks, %d bytes: blocking %d, compute %d, overlapped %d ns; pinned %d, %d, %d",
				pin.ranks, pin.bytes, int64(res.BlockingTime), int64(res.ComputeTime), int64(res.OverlappedTime),
				int64(pin.blocking), int64(pin.compute), int64(pin.overlapped))
		}
	}
}

func TestRabenseifnerViaPublicAPI(t *testing.T) {
	lat, err := ReduceBench(ReduceBenchConfig{Ranks: 16, Bytes: 16 << 20, Algorithm: ReduceRabenseifner, Trials: 1})
	if err != nil {
		t.Fatal(err)
	}
	bin, err := ReduceBench(ReduceBenchConfig{Ranks: 16, Bytes: 16 << 20, Algorithm: ReduceBinomial, Trials: 1})
	if err != nil {
		t.Fatal(err)
	}
	if lat >= bin {
		t.Errorf("Rabenseifner (%v) should beat binomial (%v) at 16MB", lat, bin)
	}
}
