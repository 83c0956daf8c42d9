package models

import (
	"runtime"
	"testing"

	"scaffe/internal/data"
	"scaffe/internal/layers"
	"scaffe/internal/tensor"
)

// iterationNet bundles one real-compute net with a loaded batch, ready
// to run steady-state forward/backward iterations.
type iterationNet struct {
	net    *layers.Net
	input  *tensor.Tensor
	labels []int
}

func newIterationNet(build func(batch int, seed int64) *layers.Net, ds *data.Synthetic, batch int) *iterationNet {
	net := build(batch, 1)
	sh := ds.Shape()
	it := &iterationNet{
		net:    net,
		input:  tensor.New(batch, sh.C, sh.H, sh.W),
		labels: make([]int, batch),
	}
	data.BatchTensorInto(ds, 0, batch, it.input.Data, it.labels)
	return it
}

// step runs one full training iteration's compute (no solver update).
func (it *iterationNet) step() {
	it.net.ZeroGrads()
	it.net.Forward(it.input, it.labels)
	it.net.Backward()
}

// TestNetForwardBackwardZeroSteadyStateAllocs is the tentpole's
// regression gate: after one warm-up iteration, a full forward+backward
// pass over LeNet and CIFAR-10-quick must not allocate at all —
// activations, gradients and batch buffers are preallocated, and the
// im2col scratch is the worker pool's per-range storage.
func TestNetForwardBackwardZeroSteadyStateAllocs(t *testing.T) {
	cases := []struct {
		name  string
		build func(batch int, seed int64) *layers.Net
		ds    *data.Synthetic
	}{
		{"lenet", BuildLeNet, data.SyntheticMNIST(256, 1)},
		{"cifar10-quick", BuildCIFAR10Quick, data.SyntheticCIFAR10(256, 1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			it := newIterationNet(tc.build, tc.ds, 16)
			it.step() // warm up
			if allocs := testing.AllocsPerRun(5, it.step); allocs != 0 {
				t.Errorf("%s forward+backward allocates %.1f times per iteration in steady state, want 0", tc.name, allocs)
			}
		})
	}
}

// TestBatchLoadZeroSteadyStateAllocs checks the data plane the same
// way: refilling a persistent batch from a Filler dataset is
// allocation-free.
func TestBatchLoadZeroSteadyStateAllocs(t *testing.T) {
	ds := data.SyntheticCIFAR10(256, 1)
	img := make([]float32, 16*ds.Shape().Elems())
	labels := make([]int, 16)
	iter := 0
	load := func() {
		data.BatchTensorInto(ds, iter*16, 16, img, labels)
		iter++
	}
	load() // warm up the dataset's cached generator
	if allocs := testing.AllocsPerRun(5, load); allocs != 0 {
		t.Errorf("BatchTensorInto allocates %.1f times per batch in steady state, want 0", allocs)
	}
}

// netSetupBytes returns the heap bytes that building cifar10-quick at
// batch 16 and training it one iteration allocate: the net's parameters
// and blobs, the input-gradient blobs its first Backward makes included.
// A warm-up net grows the worker pool's scratch first, so that is not
// counted.
func netSetupBytes() uint64 {
	ds := data.SyntheticCIFAR10(16, 1)
	newIterationNet(BuildCIFAR10Quick, ds, 16).step()
	input, labels := tensor.New(16, 3, 32, 32), make([]int, 16)
	data.BatchTensorInto(ds, 0, 16, input.Data, labels)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	net := BuildCIFAR10Quick(16, 1)
	net.Forward(input, labels)
	net.Backward()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(net)
	return after.TotalAlloc - before.TotalAlloc
}

// TestNetSetupBytes bounds what one cifar10-quick rank allocates for
// its net at batch 16 (netSetupBytes) to the 8,928,704 bytes measured
// with in-place ReLUs, no input-gradient blob for the first layer and no
// window counts for the average pools, plus 2 %. Each blob out of place
// again, or conv1's gradient blob, costs more than that.
func TestNetSetupBytes(t *testing.T) {
	const budget = 8_928_704 * 102 / 100
	if got := netSetupBytes(); got > budget {
		t.Errorf("building cifar10-quick at batch 16 and training it one iteration allocated %d bytes, budget %d", got, budget)
	}
}
