package layers

import (
	"math/rand"

	"scaffe/internal/tensor"
)

// InnerProduct is Caffe's fully-connected layer: out = in·W^T + b.
type InnerProduct struct {
	base
	OutN int

	weights *tensor.Tensor // OutN x InElems
	bias    *tensor.Tensor // OutN
	wGrad   *tensor.Tensor
	bGrad   *tensor.Tensor
	lastIn  *tensor.Tensor

	params []*tensor.Tensor // cached Params/Grads results so the
	grads  []*tensor.Tensor // per-iteration accessors don't allocate
}

// NewInnerProduct creates a fully-connected layer with outN outputs.
func NewInnerProduct(name string, outN int) *InnerProduct {
	return &InnerProduct{base: base{name: name}, OutN: outN}
}

// Kind implements Layer.
func (l *InnerProduct) Kind() string { return "InnerProduct" }

// OutShape implements Layer.
func (l *InnerProduct) OutShape(Shape) Shape { return Shape{C: l.OutN, H: 1, W: 1} }

// ParamElems implements Layer.
func (l *InnerProduct) ParamElems(in Shape) int { return l.OutN*in.Elems() + l.OutN }

// FwdFLOPs implements Layer.
func (l *InnerProduct) FwdFLOPs(in Shape) float64 { return 2 * float64(l.OutN*in.Elems()) }

// BwdFLOPs implements Layer.
func (l *InnerProduct) BwdFLOPs(in Shape) float64 { return 2 * l.FwdFLOPs(in) }

// Setup implements Layer.
func (l *InnerProduct) Setup(in Shape, batch int, rng *rand.Rand) {
	l.setup(in, batch)
	k := in.Elems()
	l.weights = tensor.New(l.OutN, k)
	l.weights.XavierInit(rng, k)
	l.bias = tensor.New(l.OutN)
	l.wGrad = tensor.New(l.OutN, k)
	l.bGrad = tensor.New(l.OutN)
	l.allocBlobs(l.OutShape(in))
	l.params = []*tensor.Tensor{l.weights, l.bias}
	l.grads = []*tensor.Tensor{l.wGrad, l.bGrad}
}

// Forward implements Layer.
func (l *InnerProduct) Forward(in *tensor.Tensor) *tensor.Tensor {
	l.checkIn(in)
	l.lastIn = in
	k := l.in.Elems()
	out := l.out
	// out (batch×OutN) = in (batch×k) · W^T (k×OutN)
	tensor.Gemm(false, true, l.batch, l.OutN, k, 1, in.Data, l.weights.Data, 0, out.Data)
	for b := 0; b < l.batch; b++ {
		row := out.Data[b*l.OutN : (b+1)*l.OutN]
		for j := range row {
			row[j] += l.bias.Data[j]
		}
	}
	return out
}

// Backward implements Layer.
func (l *InnerProduct) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	k := l.in.Elems()
	// dW (OutN×k) += g^T (OutN×batch) · in (batch×k)
	tensor.Gemm(true, false, l.OutN, k, l.batch, 1, gradOut.Data, l.lastIn.Data, 1, l.wGrad.Data)
	// db += column sums of g
	for b := 0; b < l.batch; b++ {
		row := gradOut.Data[b*l.OutN : (b+1)*l.OutN]
		for j, v := range row {
			l.bGrad.Data[j] += v
		}
	}
	// dIn (batch×k) = g (batch×OutN) · W (OutN×k)
	gradIn := l.gradIn
	tensor.Gemm(false, false, l.batch, k, l.OutN, 1, gradOut.Data, l.weights.Data, 0, gradIn.Data)
	return gradIn
}

// Params implements Layer.
func (l *InnerProduct) Params() []*tensor.Tensor { return l.params }

// Grads implements Layer.
func (l *InnerProduct) Grads() []*tensor.Tensor { return l.grads }
