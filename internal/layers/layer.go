// Package layers implements Caffe-style neural-network layers with two
// faces: a real-compute face (actual float32 forward/backward math,
// used by correctness tests and small-model training) and a cost-model
// face (parameter counts and FLOP counts, used by the simulated
// training engine for paper-scale models). The per-layer parameter
// geometry is what drives S-Caffe's multi-stage communication, so it
// matches the original networks exactly.
package layers

import (
	"fmt"
	"math/rand"

	"scaffe/internal/tensor"
)

// Shape is the per-sample activation shape in CHW order.
type Shape struct {
	C, H, W int
}

// Elems returns C*H*W.
func (s Shape) Elems() int { return s.C * s.H * s.W }

func (s Shape) String() string { return fmt.Sprintf("%dx%dx%d", s.C, s.H, s.W) }

// Layer is one computational layer. Setup must be called before
// Forward/Backward; the cost-model methods (ParamElems, FwdFLOPs,
// BwdFLOPs, OutShape) are usable on an un-setup layer given an input
// shape.
type Layer interface {
	// Name returns the layer's instance name (e.g. "conv1").
	Name() string
	// Kind returns the layer type (e.g. "Convolution").
	Kind() string
	// OutShape returns the output shape for an input shape.
	OutShape(in Shape) Shape
	// ParamElems returns the number of learnable parameters given the
	// input shape (weights + biases).
	ParamElems(in Shape) int
	// FwdFLOPs returns the forward-pass FLOPs for one sample.
	FwdFLOPs(in Shape) float64
	// BwdFLOPs returns the backward-pass FLOPs for one sample.
	BwdFLOPs(in Shape) float64

	// Setup binds the layer to an input shape and batch size,
	// allocating parameters (initialized from rng) and buffers —
	// including the output blob that Forward reuses, so steady-state
	// iterations allocate nothing. An element-wise layer (ReLU,
	// Dropout) works in place and allocates no blob.
	Setup(in Shape, batch int, rng *rand.Rand)
	// Forward computes the layer output for a batch input of shape
	// (batch, in.C, in.H, in.W). The returned tensor is the layer's
	// preallocated output blob, or, for an in-place layer, in itself
	// overwritten: either way it is overwritten by the next Forward
	// call, so callers must not retain it across iterations. An in-place
	// first layer overwrites the batch it is given, as a Caffe in-place
	// layer on the data blob does; no zoo net has one.
	Forward(in *tensor.Tensor) *tensor.Tensor
	// Backward consumes dLoss/dOut and returns dLoss/dIn, accumulating
	// parameter gradients. It must be called after Forward. The result
	// is a reused blob, made by the first Backward, or, for an in-place
	// layer, gradOut itself overwritten. Backward reads the layer's
	// input and its own state, not its output, which an in-place layer
	// after it may have overwritten; ReLU, whose output is its input,
	// is the one exception, argued on its Backward.
	Backward(gradOut *tensor.Tensor) *tensor.Tensor
	// Params returns the learnable tensors (possibly empty).
	Params() []*tensor.Tensor
	// Grads returns the gradient tensors matching Params.
	Grads() []*tensor.Tensor
}

// base carries the bookkeeping every layer shares, including the
// reused blobs Forward/Backward hand out. Caffe sizes every blob once
// and reuses it for the life of the net; doing the same keeps the
// training hot path allocation-free. Like Caffe, it makes no gradient
// blob for a layer that never propagates down: the first layer's is
// made only if something calls its Backward.
type base struct {
	name  string
	in    Shape
	batch int

	out    *tensor.Tensor // reused Forward result
	gradIn *tensor.Tensor // reused Backward result, made by gradInBlob
}

func (b *base) Name() string { return b.name }

func (b *base) setup(in Shape, batch int) {
	b.in = in
	b.batch = batch
}

// allocBlobs sizes the reusable output blob; layers that do not work
// in place call it from Setup once the output shape is known.
func (b *base) allocBlobs(out Shape) {
	b.out = tensor.New(b.batch, out.C, out.H, out.W)
}

// gradInBlob returns the reusable input-gradient blob, making it the
// first time a Backward needs it.
func (b *base) gradInBlob() *tensor.Tensor {
	if b.gradIn == nil {
		b.gradIn = tensor.New(b.batch, b.in.C, b.in.H, b.in.W)
	}
	return b.gradIn
}

func (b *base) checkIn(t *tensor.Tensor) {
	want := b.batch * b.in.Elems()
	if t.Len() != want {
		panic(fmt.Sprintf("layers: %s input has %d elements, want %d (batch %d x %v)",
			b.name, t.Len(), want, b.batch, b.in))
	}
}

// pass names the part of a Forward or Backward that a layer's Range,
// its tensor.ParallelFor body, is computing; the layer sets it before
// each fan-out.
type pass uint8

const (
	forwardPass pass = iota
	weightGradPass
	inputGradPass
)

// noParams is embedded by parameter-free layers.
type noParams struct{}

func (noParams) ParamElems(Shape) int     { return 0 }
func (noParams) Params() []*tensor.Tensor { return nil }
func (noParams) Grads() []*tensor.Tensor  { return nil }
