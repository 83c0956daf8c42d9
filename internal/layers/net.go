package layers

import (
	"fmt"
	"math/rand"

	"scaffe/internal/tensor"
)

// Net is a sequential network ending in a SoftmaxLoss layer, the
// real-compute analogue of a Caffe Net. It owns the per-layer
// parameter and gradient tensors that the distributed engine
// broadcasts and reduces.
type Net struct {
	Name   string
	In     Shape
	Batch  int
	Layers []Layer

	loss  *SoftmaxLoss
	rng   *rand.Rand
	probs *tensor.Tensor
}

// NewNet builds and sets up a network. The layer list must end with a
// *SoftmaxLoss. Parameter initialization draws from the given seed, so
// two nets built with the same seed start identical — the property the
// distributed-equivalence tests rely on.
func NewNet(name string, in Shape, batch int, seed int64, ls ...Layer) *Net {
	if len(ls) == 0 {
		panic("layers: empty net")
	}
	loss, ok := ls[len(ls)-1].(*SoftmaxLoss)
	if !ok {
		panic("layers: net must end with SoftmaxLoss")
	}
	n := &Net{Name: name, In: in, Batch: batch, Layers: ls, loss: loss, rng: rand.New(rand.NewSource(seed))}
	shape := in
	for _, l := range ls {
		l.Setup(shape, batch, n.rng)
		shape = l.OutShape(shape)
	}
	return n
}

// LossLayer returns the terminal SoftmaxLoss.
func (n *Net) LossLayer() *SoftmaxLoss { return n.loss }

// Forward runs the full forward pass and returns the loss.
func (n *Net) Forward(input *tensor.Tensor, labels []int) float32 {
	n.loss.SetLabels(labels)
	act := input
	for _, l := range n.Layers {
		act = l.Forward(act)
	}
	n.probs = act
	return n.loss.Loss()
}

// ForwardLayer runs a single layer (used by the distributed engine to
// interleave communication between layers). The caller threads the
// activation through.
func (n *Net) ForwardLayer(i int, act *tensor.Tensor, labels []int) *tensor.Tensor {
	if i == len(n.Layers)-1 {
		n.loss.SetLabels(labels)
	}
	out := n.Layers[i].Forward(act)
	if i == len(n.Layers)-1 {
		n.probs = out
	}
	return out
}

// Backward runs the full backward pass, accumulating parameter
// gradients. Like Caffe, whose data layer does not propagate down, it
// computes no gradient with respect to the net's input: the first layer
// runs BackwardParams, so it never makes an input-gradient blob.
func (n *Net) Backward() {
	var grad *tensor.Tensor
	for i := len(n.Layers) - 1; i > 0; i-- {
		grad = n.Layers[i].Backward(grad)
	}
	n.BackwardParams(0, grad)
}

// BackwardLayer runs a single layer's backward pass, threading the
// gradient. On the first layer it computes the net's input gradient,
// making that layer's gradient blob the first time.
func (n *Net) BackwardLayer(i int, grad *tensor.Tensor) *tensor.Tensor {
	return n.Layers[i].Backward(grad)
}

// paramBackwarder is a layer whose parameter gradients can be
// accumulated without its input gradient.
type paramBackwarder interface {
	backwardParams(gradOut *tensor.Tensor)
}

// BackwardParams accumulates layer i's parameter gradients exactly as
// BackwardLayer does but computes no input gradient, and makes no blob
// for one: the backward pass of a layer whose input is the data (Caffe's
// propagate_down = false). A layer without
// parameters does nothing; one with parameters must implement
// backwardParams, or BackwardParams panics.
func (n *Net) BackwardParams(i int, grad *tensor.Tensor) {
	l := n.Layers[i]
	if pb, ok := l.(paramBackwarder); ok {
		pb.backwardParams(grad)
	} else if len(l.Params()) > 0 {
		panic(fmt.Sprintf("layers: %s has parameters but no parameter-only backward", l.Name()))
	}
}

// Probs returns the class probabilities of the last forward pass.
func (n *Net) Probs() *tensor.Tensor { return n.probs }

// ZeroGrads clears all accumulated parameter gradients.
func (n *Net) ZeroGrads() {
	for _, l := range n.Layers {
		for _, g := range l.Grads() {
			g.Zero()
		}
	}
}

// ParamLayers returns indices of layers that carry parameters, in
// order — the units of S-Caffe's multi-stage communication.
func (n *Net) ParamLayers() []int {
	var idx []int
	shape := n.In
	for i, l := range n.Layers {
		if l.ParamElems(shape) > 0 {
			idx = append(idx, i)
		}
		shape = l.OutShape(shape)
	}
	return idx
}

// TotalParams returns the total learnable parameter count.
func (n *Net) TotalParams() int {
	total := 0
	for _, l := range n.Layers {
		for _, p := range l.Params() {
			total += p.Len()
		}
	}
	return total
}

// PackParams flattens all parameters into a single slice (the
// packed_comm_buffer of Figure 1).
func (n *Net) PackParams(dst []float32) []float32 {
	dst = dst[:0]
	for _, l := range n.Layers {
		for _, p := range l.Params() {
			dst = append(dst, p.Data...)
		}
	}
	return dst
}

// UnpackParams writes a packed parameter vector back into the layers.
func (n *Net) UnpackParams(src []float32) {
	off := 0
	for _, l := range n.Layers {
		for _, p := range l.Params() {
			copy(p.Data, src[off:off+p.Len()])
			off += p.Len()
		}
	}
	if off != len(src) {
		panic(fmt.Sprintf("layers: UnpackParams consumed %d of %d values", off, len(src)))
	}
}

// PackGrads flattens all gradients into a single slice (the
// packed_reduction_buffer of Figure 1).
func (n *Net) PackGrads(dst []float32) []float32 {
	dst = dst[:0]
	for _, l := range n.Layers {
		for _, g := range l.Grads() {
			dst = append(dst, g.Data...)
		}
	}
	return dst
}

// UnpackGrads writes a packed gradient vector back into the layers.
func (n *Net) UnpackGrads(src []float32) {
	off := 0
	for _, l := range n.Layers {
		for _, g := range l.Grads() {
			copy(g.Data, src[off:off+g.Len()])
			off += g.Len()
		}
	}
	if off != len(src) {
		panic(fmt.Sprintf("layers: UnpackGrads consumed %d of %d values", off, len(src)))
	}
}

// Summary returns a one-line-per-layer description with shapes and
// parameter counts.
func (n *Net) Summary() string {
	s := fmt.Sprintf("Net %q  input %v  batch %d\n", n.Name, n.In, n.Batch)
	shape := n.In
	total := 0
	for _, l := range n.Layers {
		out := l.OutShape(shape)
		p := l.ParamElems(shape)
		total += p
		s += fmt.Sprintf("  %-12s %-16s %v -> %v  params=%d\n", l.Name(), l.Kind(), shape, out, p)
		shape = out
	}
	s += fmt.Sprintf("  total params: %d\n", total)
	return s
}
