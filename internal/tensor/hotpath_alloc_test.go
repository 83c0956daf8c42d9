package tensor

import "testing"

// These tests are the allocation gate for the real-compute kernels:
// GEMM, im2col/col2im and the element-wise ops a layer runs per
// iteration must be allocation-free in steady state (after warm-up
// spins up the persistent GEMM worker pool). Measuring the calls
// catches whatever makes them allocate — a construct in the body or an
// escape-analysis decision alike; core.TestSteadyStateIterationAllocBudget
// does the same for whole training iterations.

func requireZeroAllocs(t *testing.T, name string, fn func()) {
	t.Helper()
	fn() // warm up pools/one-time initialization
	if allocs := testing.AllocsPerRun(10, fn); allocs != 0 {
		t.Errorf("%s allocates %.1f times per call in steady state, want 0", name, allocs)
	}
}

func TestHotpathKernelsZeroAllocs(t *testing.T) {
	const m, n, k = 96, 96, 64 // above gemmParallelThreshold: exercises the worker pool
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	c := make([]float32, m*n)
	for i := range a {
		a[i] = float32(i%7) - 3
	}
	for i := range b {
		b[i] = float32(i%5) - 2
	}

	requireZeroAllocs(t, "Gemm(parallel)", func() {
		Gemm(false, false, m, n, k, 1, a, b, 0, c)
	})
	requireZeroAllocs(t, "Gemm(serial)", func() {
		Gemm(true, false, 8, 8, k, 1, a[:8*k], b[:k*8], 0.5, c[:64])
	})

	g := ConvGeom{InC: 3, InH: 16, InW: 16, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	img := make([]float32, 3*16*16)
	col := make([]float32, 3*3*3*g.OutH()*g.OutW())
	requireZeroAllocs(t, "Im2col", func() { Im2col(g, img, col) })
	requireZeroAllocs(t, "Col2im", func() { Col2im(g, col, img) })

	in := make([]float32, 1024)
	out := make([]float32, 1024)
	for i := range in {
		in[i] = float32(i%9) - 4
	}
	requireZeroAllocs(t, "ReLUForward", func() { ReLUForward(in, out) })
	requireZeroAllocs(t, "ReLUBackward", func() { ReLUBackward(in, out, out) })

	const batch, classes = 16, 10
	logits := make([]float32, batch*classes)
	grad := make([]float32, batch*classes)
	labels := make([]int, batch)
	for i := range logits {
		logits[i] = float32(i%11) * 0.1
	}
	requireZeroAllocs(t, "SoftmaxRow", func() { SoftmaxRow(logits[:classes]) })
	requireZeroAllocs(t, "SoftmaxCrossEntropy", func() {
		SoftmaxCrossEntropy(logits, batch, classes, labels, grad)
	})
}
