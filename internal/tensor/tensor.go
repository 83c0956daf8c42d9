// Package tensor provides the dense float32 math the real-compute
// training path uses: NCHW tensors, a parallel blocked GEMM, im2col
// convolution lowering, and the elementwise/softmax kernels Caffe's
// layers need. Everything is deterministic: parallel loops partition
// work statically and each partition writes disjoint outputs.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense row-major float32 array with an explicit shape.
type Tensor struct {
	Dims []int
	Data []float32
}

// New allocates a zeroed tensor of the given shape.
func New(dims ...int) *Tensor {
	n := 1
	for _, d := range dims {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dim in %v", dims))
		}
		n *= d
	}
	return &Tensor{Dims: append([]int(nil), dims...), Data: make([]float32, n)}
}

// FromSlice wraps data with the given shape (no copy).
func FromSlice(data []float32, dims ...int) *Tensor {
	t := &Tensor{Dims: append([]int(nil), dims...), Data: data}
	if t.Len() != len(data) {
		panic(fmt.Sprintf("tensor: shape %v needs %d elements, got %d", dims, t.Len(), len(data)))
	}
	return t
}

// Len returns the element count.
func (t *Tensor) Len() int {
	n := 1
	for _, d := range t.Dims {
		n *= d
	}
	return n
}

// Dim returns the i-th dimension.
func (t *Tensor) Dim(i int) int { return t.Dims[i] }

// Reshape returns a view with a new shape of equal length.
func (t *Tensor) Reshape(dims ...int) *Tensor {
	v := &Tensor{Dims: append([]int(nil), dims...), Data: t.Data}
	if v.Len() != t.Len() {
		panic(fmt.Sprintf("tensor: reshape %v -> %v changes length", t.Dims, dims))
	}
	return v
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	return &Tensor{Dims: append([]int(nil), t.Dims...), Data: append([]float32(nil), t.Data...)}
}

// Zero sets all elements to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets all elements to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// CopyFrom copies src's data (lengths must match).
func (t *Tensor) CopyFrom(src *Tensor) {
	if len(t.Data) != len(src.Data) {
		panic("tensor: CopyFrom length mismatch")
	}
	copy(t.Data, src.Data)
}

// SameShape reports whether two tensors have identical dims.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.Dims) != len(o.Dims) {
		return false
	}
	for i := range t.Dims {
		if t.Dims[i] != o.Dims[i] {
			return false
		}
	}
	return true
}

// Axpy computes t += alpha * x.
func (t *Tensor) Axpy(alpha float32, x *Tensor) {
	if len(t.Data) != len(x.Data) {
		panic("tensor: Axpy length mismatch")
	}
	for i, v := range x.Data {
		t.Data[i] += float32(alpha * v)
	}
}

// Scale multiplies all elements by alpha.
func (t *Tensor) Scale(alpha float32) {
	for i := range t.Data {
		t.Data[i] *= alpha
	}
}

// MaxAbsDiff returns the largest absolute element-wise difference
// between two equal-length tensors (test helper for numerics).
func MaxAbsDiff(a, b *Tensor) float64 {
	if len(a.Data) != len(b.Data) {
		panic("tensor: MaxAbsDiff length mismatch")
	}
	var m float64
	for i := range a.Data {
		if d := math.Abs(float64(a.Data[i] - b.Data[i])); d > m {
			m = d
		}
	}
	return m
}

// GaussianInit fills t with N(0, std) samples from rng.
func (t *Tensor) GaussianInit(rng *rand.Rand, std float64) {
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64() * std)
	}
}

// XavierInit fills t with the Caffe "xavier" filler: uniform in
// [-s, s] with s = sqrt(3 / fanIn).
func (t *Tensor) XavierInit(rng *rand.Rand, fanIn int) {
	s := float32(math.Sqrt(3.0 / float64(fanIn)))
	for i := range t.Data {
		t.Data[i] = (rng.Float32()*2 - 1) * s
	}
}
