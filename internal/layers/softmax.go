package layers

import (
	"math/rand"

	"scaffe/internal/tensor"
)

// SoftmaxLoss is Caffe's SoftmaxWithLoss: softmax over the class
// dimension followed by mean cross-entropy against integer labels. It
// terminates a Net; its Forward output is the per-class probability
// tensor and the scalar loss is read via Loss().
type SoftmaxLoss struct {
	base
	noParams

	labels []int
	probs  *tensor.Tensor
	grad   *tensor.Tensor // (prob − onehot) from the last Forward
	loss   float32
}

// NewSoftmaxLoss creates the loss layer.
func NewSoftmaxLoss(name string) *SoftmaxLoss { return &SoftmaxLoss{base: base{name: name}} }

// Kind implements Layer.
func (l *SoftmaxLoss) Kind() string { return "SoftmaxWithLoss" }

// OutShape implements Layer.
func (l *SoftmaxLoss) OutShape(in Shape) Shape { return in }

// FwdFLOPs implements Layer.
func (l *SoftmaxLoss) FwdFLOPs(in Shape) float64 { return 5 * float64(in.Elems()) }

// BwdFLOPs implements Layer.
func (l *SoftmaxLoss) BwdFLOPs(in Shape) float64 { return float64(in.Elems()) }

// Setup implements Layer.
func (l *SoftmaxLoss) Setup(in Shape, batch int, _ *rand.Rand) {
	l.setup(in, batch)
	l.allocBlobs(in)
	l.probs = l.out // softmax probabilities live in the output blob
	l.grad = tensor.New(batch, in.Elems())
}

// SetLabels provides the ground-truth labels for the next Forward.
func (l *SoftmaxLoss) SetLabels(labels []int) { l.labels = labels }

// Loss returns the mean cross-entropy of the last Forward.
func (l *SoftmaxLoss) Loss() float32 { return l.loss }

// Probs returns the class probabilities of the last Forward.
func (l *SoftmaxLoss) Probs() *tensor.Tensor { return l.probs }

// Forward implements Layer.
func (l *SoftmaxLoss) Forward(in *tensor.Tensor) *tensor.Tensor {
	l.checkIn(in)
	classes := l.in.Elems()
	if len(l.labels) != l.batch {
		panic("layers: SoftmaxLoss needs SetLabels before Forward")
	}
	copy(l.probs.Data, in.Data)
	l.loss = tensor.SoftmaxCrossEntropy(l.probs.Data, l.batch, classes, l.labels, l.grad.Data)
	return l.probs
}

// Backward implements Layer: it returns (prob − onehot)/batch, the
// gradient of the mean cross-entropy loss. The incoming gradient is
// ignored (this is the terminal layer).
func (l *SoftmaxLoss) Backward(_ *tensor.Tensor) *tensor.Tensor {
	out := l.gradInBlob()
	inv := 1 / float32(l.batch)
	for i, v := range l.grad.Data {
		out.Data[i] = v * inv
	}
	return out
}
