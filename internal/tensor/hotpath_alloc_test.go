package tensor_test

import (
	"math/rand"
	"runtime"
	"testing"

	"scaffe/internal/layers"
	"scaffe/internal/tensor"
)

// These tests are the allocation gate for the real-compute kernels:
// GEMM, im2col/col2im, the element-wise ops a layer runs per iteration,
// the Conv and Pool passes that fan out over tensor.ParallelFor and the
// first layer's parameter-only backward must be allocation-free in steady state (after warm-up spins up the
// persistent worker pool and grows its scratch). Measuring the calls
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
		tensor.Gemm(false, false, m, n, k, 1, a, b, 0, c)
	})
	requireZeroAllocs(t, "Gemm(serial)", func() {
		tensor.Gemm(true, false, 8, 8, k, 1, a[:8*k], b[:k*8], 0.5, c[:64])
	})

	g := tensor.ConvGeom{InC: 3, InH: 16, InW: 16, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	img := make([]float32, 3*16*16)
	col := make([]float32, 3*3*3*g.OutH()*g.OutW())
	requireZeroAllocs(t, "Im2col", func() { tensor.Im2col(g, img, col) })
	requireZeroAllocs(t, "Col2im", func() { tensor.Col2im(g, col, img) })

	in := make([]float32, 1024)
	out := make([]float32, 1024)
	for i := range in {
		in[i] = float32(i%9) - 4
	}
	requireZeroAllocs(t, "ReLUForward", func() { tensor.ReLUForward(in, out) })
	requireZeroAllocs(t, "ReLUBackward", func() { tensor.ReLUBackward(in, out, out) })

	const batch, classes = 16, 10
	logits := make([]float32, batch*classes)
	grad := make([]float32, batch*classes)
	labels := make([]int, batch)
	for i := range logits {
		logits[i] = float32(i%11) * 0.1
	}
	requireZeroAllocs(t, "SoftmaxRow", func() { tensor.SoftmaxRow(logits[:classes]) })
	requireZeroAllocs(t, "SoftmaxCrossEntropy", func() {
		tensor.SoftmaxCrossEntropy(logits, batch, classes, labels, grad)
	})

	// Conv and Pool split their batch over the worker pool; four
	// workers exercise the fan-out whatever the machine's core count.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewSource(1))
	shape := layers.Shape{C: 3, H: 16, W: 16}
	conv := layers.NewConv("conv", 8, 5, 1, 2)
	conv.Setup(shape, batch, rng)
	pool := layers.NewMaxPool("pool", 3, 2)
	pool.Setup(conv.OutShape(shape), batch, rng)
	x := tensor.New(batch, shape.C, shape.H, shape.W)
	for i := range x.Data {
		x.Data[i] = rng.Float32() - 0.5
	}
	requireZeroAllocs(t, "Conv+Pool forward/backward", func() {
		y := pool.Forward(conv.Forward(x))
		conv.Backward(pool.Backward(y))
	})

	// The first layer's parameter-only backward, as a training
	// iteration runs it.
	net := layers.NewNet("first", shape, batch, 1,
		layers.NewConv("conv", 8, 5, 1, 2), layers.NewMaxPool("pool", 3, 2),
		layers.NewInnerProduct("ip", classes), layers.NewSoftmaxLoss("loss"))
	net.Forward(x, labels)
	var dy *tensor.Tensor
	for i := len(net.Layers) - 1; i > 0; i-- {
		dy = net.BackwardLayer(i, dy)
	}
	requireZeroAllocs(t, "Net.BackwardParams", func() { net.BackwardParams(0, dy) })
}
