package models

import (
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
