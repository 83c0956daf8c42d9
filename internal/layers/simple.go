package layers

import (
	"math/rand"

	"scaffe/internal/tensor"
)

// ReLU is the rectified-linear activation, computed in place as Caffe's
// reference nets declare it (top == bottom): Forward overwrites its
// input and Backward its gradOut. The backward mask reads the output,
// which is > 0 exactly where the input was.
type ReLU struct {
	base
	noParams
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

// Setup implements Layer; an in-place layer allocates nothing.
func (l *ReLU) Setup(in Shape, batch int, _ *rand.Rand) { l.setup(in, batch) }

// Forward implements Layer: it overwrites in with max(0, in).
func (l *ReLU) Forward(in *tensor.Tensor) *tensor.Tensor {
	l.checkIn(in)
	tensor.ReLUForward(in.Data, in.Data)
	l.out = in
	return in
}

// Backward implements Layer: it gates gradOut in place by the output's
// sign. A Dropout after this layer may since have zeroed or scaled the
// output in place, but only where its own Backward zeroed gradOut or by
// a positive factor, so the mask is unchanged where it matters.
func (l *ReLU) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	tensor.ReLUBackward(l.out.Data, gradOut.Data, gradOut.Data)
	return gradOut
}

// Dropout zeroes a random fraction of activations during training and
// scales the survivors by 1/(1-ratio) (inverted dropout, as Caffe
// does). Like ReLU it works in place: Forward overwrites its input and
// Backward its gradOut.
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

// Setup implements Layer; besides its mask, an in-place layer
// allocates nothing.
func (l *Dropout) Setup(in Shape, batch int, rng *rand.Rand) {
	l.setup(in, batch)
	l.rng = rng
	l.mask = make([]bool, batch*in.Elems())
}

// Forward implements Layer.
func (l *Dropout) Forward(in *tensor.Tensor) *tensor.Tensor {
	l.checkIn(in)
	scale := float32(1 / (1 - l.Ratio))
	for i, v := range in.Data {
		if l.rng.Float64() < l.Ratio {
			l.mask[i] = true
			in.Data[i] = 0
		} else {
			l.mask[i] = false
			in.Data[i] = v * scale
		}
	}
	return in
}

// Backward implements Layer.
func (l *Dropout) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	scale := float32(1 / (1 - l.Ratio))
	for i, v := range gradOut.Data {
		if l.mask[i] {
			gradOut.Data[i] = 0
		} else {
			gradOut.Data[i] = v * scale
		}
	}
	return gradOut
}
