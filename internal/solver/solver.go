// Package solver implements Caffe's SGD solver: momentum, weight
// decay, and the standard learning-rate policies. In S-Caffe only the
// root solver applies updates (ApplyUpdate in Figure 1); the updated
// parameters reach the other solvers through the next data
// propagation.
package solver

import (
	"fmt"
	"math"

	"scaffe/internal/layers"
	"scaffe/internal/tensor"
)

// LRPolicy computes the learning rate for an iteration.
type LRPolicy interface {
	// LR returns the learning rate at iteration iter (0-based).
	LR(iter int) float64
}

// Fixed keeps the base learning rate constant.
type Fixed struct{ Base float64 }

// LR implements LRPolicy.
func (p Fixed) LR(int) float64 { return p.Base }

// Step multiplies the rate by Gamma every StepSize iterations
// (Caffe's "step" policy).
type Step struct {
	Base, Gamma float64
	StepSize    int
}

// LR implements LRPolicy.
func (p Step) LR(iter int) float64 {
	return p.Base * math.Pow(p.Gamma, float64(iter/p.StepSize))
}

// Inv is Caffe's "inv" policy: base · (1 + gamma·iter)^(−power).
type Inv struct {
	Base, Gamma, Power float64
}

// LR implements LRPolicy.
func (p Inv) LR(iter int) float64 {
	return p.Base * math.Pow(1+float64(p.Gamma*float64(iter)), -p.Power)
}

// Poly is Caffe's "poly" policy: base · (1 − iter/max)^power.
type Poly struct {
	Base, Power float64
	MaxIter     int
}

// LR implements LRPolicy.
func (p Poly) LR(iter int) float64 {
	f := 1 - float64(iter)/float64(p.MaxIter)
	if f < 0 {
		f = 0
	}
	return p.Base * math.Pow(f, p.Power)
}

// SGD is the stochastic-gradient-descent solver with momentum and L2
// weight decay.
type SGD struct {
	Policy      LRPolicy
	Momentum    float64
	WeightDecay float64

	history [][]*tensor.Tensor // per layer, per param: momentum buffers
}

// New returns an SGD solver with the given hyper-parameters.
func New(policy LRPolicy, momentum, weightDecay float64) *SGD {
	return &SGD{Policy: policy, Momentum: momentum, WeightDecay: weightDecay}
}

// Step applies one update to net's parameters from its accumulated
// gradients: v = µ·v − lr·(scale·g + λ·w); w += v. In distributed
// training, scale is 1/numSolvers so that summed per-solver mean
// gradients become the global mean (Caffe's multi-GPU normalization).
func (s *SGD) Step(net *layers.Net, iter int, scale float32) {
	s.ensureHistory(net)
	lr := float32(s.Policy.LR(iter))
	mu := float32(s.Momentum)
	wd := float32(s.WeightDecay)
	for li, l := range net.Layers {
		params, grads := l.Params(), l.Grads()
		for pi, p := range params {
			g := grads[pi]
			v := s.history[li][pi]
			if len(p.Data) != len(g.Data) || len(p.Data) != len(v.Data) {
				panic(fmt.Sprintf("solver: layer %d param %d shape drift", li, pi))
			}
			for i := range p.Data {
				v.Data[i] = float32(mu*v.Data[i]) - float32(lr*(float32(scale*g.Data[i])+float32(wd*p.Data[i])))
				p.Data[i] += v.Data[i]
			}
		}
	}
}

// ensureHistory lazily allocates the momentum buffers in net layer
// order (the same order as layers.Net.PackParams, so the packed forms
// below line up with packed parameter vectors).
func (s *SGD) ensureHistory(net *layers.Net) {
	if s.history != nil {
		return
	}
	for _, l := range net.Layers {
		var hs []*tensor.Tensor
		for _, p := range l.Params() {
			hs = append(hs, tensor.New(p.Dims...))
		}
		s.history = append(s.history, hs)
	}
}

// PackHistory appends the momentum buffers to dst[:0] in PackParams
// order and returns the result. A solver that has never stepped packs
// zeros (cold momentum).
func (s *SGD) PackHistory(net *layers.Net, dst []float32) []float32 {
	s.ensureHistory(net)
	dst = dst[:0]
	for li := range net.Layers {
		for _, v := range s.history[li] {
			dst = append(dst, v.Data...)
		}
	}
	return dst
}

// LoadHistory restores the momentum buffers from a vector packed by
// PackHistory; src must match the net's parameter count exactly.
func (s *SGD) LoadHistory(net *layers.Net, src []float32) {
	s.ensureHistory(net)
	off := 0
	for li := range net.Layers {
		for _, v := range s.history[li] {
			if off+len(v.Data) > len(src) {
				panic(fmt.Sprintf("solver: history vector too short: %d floats", len(src)))
			}
			copy(v.Data, src[off:off+len(v.Data)])
			off += len(v.Data)
		}
	}
	if off != len(src) {
		panic(fmt.Sprintf("solver: history vector has %d trailing floats", len(src)-off))
	}
}

// Reset drops the momentum state (a cold restart from initial
// parameters).
func (s *SGD) Reset() { s.history = nil }

// UpdateFLOPs returns the arithmetic cost of one update over n
// parameters (used by the timing engine for the ApplyUpdate phase).
func UpdateFLOPs(n int) float64 { return 4 * float64(n) }
