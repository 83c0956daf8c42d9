package models

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"scaffe/internal/layers"
	"scaffe/internal/tensor"
)

// blob is one named tensor copied out of a net.
type blob struct {
	name string
	data []float32
}

// passBlobs builds a fresh net at the given GOMAXPROCS and runs two
// forward/backward iterations layer by layer on a fixed random batch,
// copying out, per iteration, the loss, every layer's output, every
// layer's input gradient (the net's input gradient last) and every
// Grads() tensor.
func passBlobs(procs int, build func(int, int64) *layers.Net, batch int) []blob {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	net := build(batch, 1)
	rng := rand.New(rand.NewSource(5))
	x := tensor.New(batch, net.In.C, net.In.H, net.In.W)
	for i := range x.Data {
		x.Data[i] = rng.Float32()*2 - 1
	}
	classes := net.In
	for _, l := range net.Layers {
		classes = l.OutShape(classes)
	}
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = rng.Intn(classes.Elems())
	}

	var out []blob
	keep := func(name string, data []float32) {
		out = append(out, blob{name, append([]float32(nil), data...)})
	}
	for iter := 0; iter < 2; iter++ {
		net.ZeroGrads()
		act := x
		for i, l := range net.Layers {
			act = net.ForwardLayer(i, act, labels)
			keep(fmt.Sprintf("iter %d %s output", iter, l.Name()), act.Data)
		}
		keep(fmt.Sprintf("iter %d loss", iter), []float32{net.LossLayer().Loss()})
		var grad *tensor.Tensor
		for i := len(net.Layers) - 1; i >= 0; i-- {
			grad = net.BackwardLayer(i, grad)
			keep(fmt.Sprintf("iter %d %s input gradient", iter, net.Layers[i].Name()), grad.Data)
		}
		for _, l := range net.Layers {
			for j, g := range l.Grads() {
				keep(fmt.Sprintf("iter %d %s Grads()[%d]", iter, l.Name(), j), g.Data)
			}
		}
	}
	return out
}

// TestForwardBackwardBitIdenticalAcrossGOMAXPROCS pins the fan-out's
// partition rules: Conv and Pool split the batch (and Conv's weight
// gradient its columns) over the worker pool, and every value a pass
// produces must be the same bits at any worker count — more workers than
// samples included — as at GOMAXPROCS 1.
func TestForwardBackwardBitIdenticalAcrossGOMAXPROCS(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(int, int64) *layers.Net
	}{
		{"lenet", BuildLeNet}, {"cifar10-quick", BuildCIFAR10Quick}, {"tiny", BuildTinyNet},
	} {
		for _, batch := range []int{1, 5, 16} {
			t.Run(fmt.Sprintf("%s/batch%d", tc.name, batch), func(t *testing.T) {
				want := passBlobs(1, tc.build, batch)
				for _, procs := range []int{2, 3, 8} {
					got := passBlobs(procs, tc.build, batch)
					for i, w := range want {
						for j := range w.data {
							if math.Float32bits(got[i].data[j]) != math.Float32bits(w.data[j]) {
								t.Fatalf("GOMAXPROCS=%d: %s[%d] = %#x, GOMAXPROCS=1 %#x",
									procs, w.name, j, math.Float32bits(got[i].data[j]), math.Float32bits(w.data[j]))
							}
						}
					}
				}
			})
		}
	}
}
