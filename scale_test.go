package scaffe

import (
	"fmt"
	"runtime"
	"testing"

	"scaffe/internal/sim"
)

// TestScaleOut1024GoogLeNet is the scale-out acceptance drill for the
// pooled event kernel: a 1024-rank GoogLeNet run (64 nodes x 16 GPUs)
// must finish in single-digit wall seconds, stay under a generous
// virtual-time deadline (~3x the expected 338 virtual ms for two
// iterations — a pathological scheduling regression blows well past
// it), and replay bit-identically under a different GOMAXPROCS: the
// cooperative kernel's ordering must not depend on host parallelism.
func TestScaleOut1024GoogLeNet(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-rank scale-out skipped in short mode")
	}
	run := func() *Result {
		t.Helper()
		res, err := Train(Config{
			Spec: MustModel("googlenet"), GPUs: 1024, Nodes: 64, GPUsPerNode: 16,
			GlobalBatch: 4096, Iterations: 2,
			Design: SCOB, Reduce: ReduceHR, Source: InMemory, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	a := run()

	prev := runtime.GOMAXPROCS(1)
	b := run()
	runtime.GOMAXPROCS(prev)

	if a.TotalTime != b.TotalTime {
		t.Fatalf("virtual time differs across GOMAXPROCS: %d vs %d (must be bit-identical)",
			a.TotalTime, b.TotalTime)
	}
	if a.Iterations != b.Iterations {
		t.Fatalf("iterations differ across runs: %d vs %d", a.Iterations, b.Iterations)
	}
	for i := range a.Losses {
		if a.Losses[i] != b.Losses[i] {
			t.Fatalf("loss[%d] differs across runs: %v vs %v", i, a.Losses[i], b.Losses[i])
		}
	}
	if deadline := sim.Time(sim.Second); a.TotalTime > deadline {
		t.Fatalf("1024-rank run took %d virtual ns, over the %d deadline", a.TotalTime, deadline)
	}
}

// BenchmarkScaleSweep measures wall-clock cost and allocations of
// GoogLeNet training as the rank count grows past the paper's 160-GPU
// testbed. It is the one go-test benchmark kept beside the repository's
// benchmark (bench/run.sh): no bench/ladder.go rung times these shapes,
// and they regenerate EXPERIMENTS.md `scale`. scripts/check.sh runs it
// once so it cannot rot. Each point reports its rank count as a metric
// so a recorded run carries the scale alongside ns/op and allocs/op.
func BenchmarkScaleSweep(b *testing.B) {
	for _, ranks := range []int{160, 512, 1024, 4096} {
		b.Run(fmt.Sprintf("ranks-%d", ranks), func(b *testing.B) {
			var total sim.Time
			for i := 0; i < b.N; i++ {
				res, err := Train(Config{
					Spec: MustModel("googlenet"), GPUs: ranks,
					Nodes: (ranks + 15) / 16, GPUsPerNode: 16,
					GlobalBatch: 4 * ranks, Iterations: 2,
					Design: SCOB, Reduce: ReduceHR, Source: InMemory, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				total = res.TotalTime
			}
			b.ReportAllocs()
			b.ReportMetric(float64(ranks), "ranks")
			b.ReportMetric(total.Milliseconds(), "virtual-ms/op")
		})
	}
}
