package layers

import (
	"math/rand"

	"scaffe/internal/tensor"
)

// ReLU is the rectified-linear activation, computed out-of-place so
// the input activations stay available for other layers' backward
// passes.
type ReLU struct {
	base
	noParams
	lastIn *tensor.Tensor
}

// NewReLU creates a ReLU layer.
func NewReLU(name string) *ReLU { return &ReLU{base: base{name: name}} }

// Kind implements Layer.
func (l *ReLU) Kind() string { return "ReLU" }

// OutShape implements Layer.
func (l *ReLU) OutShape(in Shape) Shape { return in }

// FwdFLOPs implements Layer.
func (l *ReLU) FwdFLOPs(in Shape) float64 { return float64(in.Elems()) }

// BwdFLOPs implements Layer.
func (l *ReLU) BwdFLOPs(in Shape) float64 { return float64(in.Elems()) }

// Setup implements Layer.
func (l *ReLU) Setup(in Shape, batch int, _ *rand.Rand) {
	l.setup(in, batch)
	l.allocBlobs(in)
}

// Forward implements Layer.
func (l *ReLU) Forward(in *tensor.Tensor) *tensor.Tensor {
	l.checkIn(in)
	l.lastIn = in
	tensor.ReLUForward(in.Data, l.out.Data)
	return l.out
}

// Backward implements Layer.
func (l *ReLU) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	tensor.ReLUBackward(l.lastIn.Data, gradOut.Data, l.gradIn.Data)
	return l.gradIn
}

// Dropout zeroes a random fraction of activations during training and
// scales the survivors by 1/(1-ratio) (inverted dropout, as Caffe
// does).
type Dropout struct {
	base
	noParams
	Ratio float64

	rng  *rand.Rand
	mask []bool
}

// NewDropout creates a dropout layer with the given drop ratio.
func NewDropout(name string, ratio float64) *Dropout {
	return &Dropout{base: base{name: name}, Ratio: ratio}
}

// Kind implements Layer.
func (l *Dropout) Kind() string { return "Dropout" }

// OutShape implements Layer.
func (l *Dropout) OutShape(in Shape) Shape { return in }

// FwdFLOPs implements Layer.
func (l *Dropout) FwdFLOPs(in Shape) float64 { return float64(in.Elems()) }

// BwdFLOPs implements Layer.
func (l *Dropout) BwdFLOPs(in Shape) float64 { return float64(in.Elems()) }

// Setup implements Layer.
func (l *Dropout) Setup(in Shape, batch int, rng *rand.Rand) {
	l.setup(in, batch)
	l.rng = rng
	l.mask = make([]bool, batch*in.Elems())
	l.allocBlobs(in)
}

// Forward implements Layer.
func (l *Dropout) Forward(in *tensor.Tensor) *tensor.Tensor {
	l.checkIn(in)
	out := l.out
	scale := float32(1 / (1 - l.Ratio))
	for i, v := range in.Data {
		if l.rng.Float64() < l.Ratio {
			l.mask[i] = true
			out.Data[i] = 0
		} else {
			l.mask[i] = false
			out.Data[i] = v * scale
		}
	}
	return out
}

// Backward implements Layer.
func (l *Dropout) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	gradIn := l.gradIn
	scale := float32(1 / (1 - l.Ratio))
	for i, v := range gradOut.Data {
		if l.mask[i] {
			gradIn.Data[i] = 0 // blob is reused: clear dropped lanes explicitly
		} else {
			gradIn.Data[i] = v * scale
		}
	}
	return gradIn
}
