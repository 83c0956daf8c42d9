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

// TestBackwardParamsMatchesBackwardLayer pins the parameter-only
// backward of the first layer: over two iterations, the gradients that
// Net.BackwardParams(0, …) and Net.Backward leave in every layer's
// Grads() are the same bits as those of a full BackwardLayer walk, which
// also computes the input gradient, at GOMAXPROCS 1 and 4.
func TestBackwardParamsMatchesBackwardLayer(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(int, int64) *layers.Net
	}{
		{"lenet", BuildLeNet}, {"cifar10-quick", BuildCIFAR10Quick}, {"tiny", BuildTinyNet},
	} {
		for _, procs := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/procs%d", tc.name, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				const batch = 5
				full, first, whole := tc.build(batch, 1), tc.build(batch, 1), tc.build(batch, 1)
				rng := rand.New(rand.NewSource(9))
				x := tensor.New(batch, full.In.C, full.In.H, full.In.W)
				for i := range x.Data {
					x.Data[i] = rng.Float32()*2 - 1
				}
				classes := full.In
				for _, l := range full.Layers {
					classes = l.OutShape(classes)
				}
				labels := make([]int, batch)
				for i := range labels {
					labels[i] = rng.Intn(classes.Elems())
				}
				for iter := 0; iter < 2; iter++ {
					for _, n := range []*layers.Net{full, first, whole} {
						n.ZeroGrads()
						n.Forward(x, labels)
					}
					var gFull, gFirst *tensor.Tensor
					for i := len(full.Layers) - 1; i > 0; i-- {
						gFull = full.BackwardLayer(i, gFull)
						gFirst = first.BackwardLayer(i, gFirst)
					}
					full.BackwardLayer(0, gFull)
					first.BackwardParams(0, gFirst)
					whole.Backward()
					for li, l := range full.Layers {
						for j, want := range l.Grads() {
							for _, n := range []*layers.Net{first, whole} {
								got := n.Layers[li].Grads()[j]
								for e := range want.Data {
									if math.Float32bits(got.Data[e]) != math.Float32bits(want.Data[e]) {
										t.Fatalf("iter %d %s Grads()[%d][%d] = %#x, BackwardLayer %#x", iter,
											l.Name(), j, e, math.Float32bits(got.Data[e]), math.Float32bits(want.Data[e]))
									}
								}
							}
						}
					}
				}
			})
		}
	}
}
