package layers

import (
	"math"
	"math/rand"

	"scaffe/internal/tensor"
)

// PoolMethod selects max or average pooling.
type PoolMethod int

const (
	// MaxPool takes the maximum of each window.
	MaxPool PoolMethod = iota
	// AvgPool takes the mean of each window (Caffe "AVE", used by the
	// CIFAR-10 quick solver and GoogLeNet).
	AvgPool
)

// Pool is a 2-D pooling layer. Like Caffe, the output size rounds up
// (ceil mode), so a 3/2 pool covers the whole input.
type Pool struct {
	base
	noParams
	Method         PoolMethod
	Kernel, Stride int
	Pad            int

	argmax  []int32 // winner index per output element (max pooling)
	lastIn  *tensor.Tensor
	gradOut *tensor.Tensor
	pass    pass // what Range computes
}

// NewMaxPool creates a max-pooling layer.
func NewMaxPool(name string, kernel, stride int) *Pool {
	return &Pool{base: base{name: name}, Method: MaxPool, Kernel: kernel, Stride: stride}
}

// NewAvgPool creates an average-pooling layer.
func NewAvgPool(name string, kernel, stride int) *Pool {
	return &Pool{base: base{name: name}, Method: AvgPool, Kernel: kernel, Stride: stride}
}

// Kind implements Layer.
func (p *Pool) Kind() string { return "Pooling" }

func (p *Pool) outHW(in Shape) (int, int) {
	oh := int(math.Ceil(float64(in.H+2*p.Pad-p.Kernel)/float64(p.Stride))) + 1
	ow := int(math.Ceil(float64(in.W+2*p.Pad-p.Kernel)/float64(p.Stride))) + 1
	if oh < 1 {
		oh = 1
	}
	if ow < 1 {
		ow = 1
	}
	return oh, ow
}

// OutShape implements Layer.
func (p *Pool) OutShape(in Shape) Shape {
	oh, ow := p.outHW(in)
	return Shape{C: in.C, H: oh, W: ow}
}

// FwdFLOPs implements Layer: one compare/add per window element.
func (p *Pool) FwdFLOPs(in Shape) float64 {
	out := p.OutShape(in)
	return float64(out.Elems() * p.Kernel * p.Kernel)
}

// BwdFLOPs implements Layer.
func (p *Pool) BwdFLOPs(in Shape) float64 { return p.FwdFLOPs(in) }

// Setup implements Layer.
func (p *Pool) Setup(in Shape, batch int, _ *rand.Rand) {
	p.setup(in, batch)
	out := p.OutShape(in)
	p.argmax = make([]int32, batch*out.Elems())
	p.allocBlobs(out)
}

// Range implements tensor.Ranger: it is the body of Pool's fan-outs
// over samples, run by Forward and Backward.
func (p *Pool) Range(lo, hi int, _ []float32) {
	if p.pass == forwardPass {
		p.forwardSamples(lo, hi)
	} else {
		p.backwardSamples(lo, hi)
	}
}

// Forward implements Layer. The batch is split over tensor.ParallelFor
// by samples.
func (p *Pool) Forward(in *tensor.Tensor) *tensor.Tensor {
	p.checkIn(in)
	p.lastIn = in
	p.pass = forwardPass
	tensor.ParallelFor(p.batch, 0, p)
	return p.out
}

// forwardSamples scans the windows of samples [lo, hi).
func (p *Pool) forwardSamples(lo, hi int) {
	out := p.OutShape(p.in)
	inSz := p.in.Elems()
	outSz := out.Elems()
	for b := lo; b < hi; b++ {
		src := p.lastIn.Data[b*inSz : (b+1)*inSz]
		dst := p.out.Data[b*outSz : (b+1)*outSz]
		am := p.argmax[b*outSz : (b+1)*outSz]
		for c := 0; c < p.in.C; c++ {
			chn := src[c*p.in.H*p.in.W:]
			o := c * out.H * out.W
			for oh := 0; oh < out.H; oh++ {
				for ow := 0; ow < out.W; ow++ {
					h0, w0 := oh*p.Stride-p.Pad, ow*p.Stride-p.Pad
					if p.Method == MaxPool {
						best := int32(-1)
						var bv float32
						for kh := 0; kh < p.Kernel; kh++ {
							ih := h0 + kh
							if ih < 0 || ih >= p.in.H {
								continue
							}
							for kw := 0; kw < p.Kernel; kw++ {
								iw := w0 + kw
								if iw < 0 || iw >= p.in.W {
									continue
								}
								v := chn[ih*p.in.W+iw]
								if best < 0 || v > bv {
									best, bv = int32(ih*p.in.W+iw), v
								}
							}
						}
						dst[o], am[o] = bv, best
					} else {
						var sum float32
						n := 0
						for kh := 0; kh < p.Kernel; kh++ {
							ih := h0 + kh
							if ih < 0 || ih >= p.in.H {
								continue
							}
							for kw := 0; kw < p.Kernel; kw++ {
								iw := w0 + kw
								if iw < 0 || iw >= p.in.W {
									continue
								}
								sum += chn[ih*p.in.W+iw]
								n++
							}
						}
						if n > 0 {
							dst[o] = sum / float32(n)
						} else {
							dst[o] = 0 // blob is reused: clear empty windows
						}
						am[o] = int32(n)
					}
					o++
				}
			}
		}
	}
}

// Backward implements Layer. The batch is split over tensor.ParallelFor
// by samples; a sample's gradient stays inside its own region.
func (p *Pool) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	p.gradOut = gradOut
	p.pass = inputGradPass
	tensor.ParallelFor(p.batch, 0, p)
	return p.gradIn
}

// backwardSamples scatters the gradient of samples [lo, hi) back onto
// the argmax (max) or the whole window (average).
func (p *Pool) backwardSamples(lo, hi int) {
	out := p.OutShape(p.in)
	inSz := p.in.Elems()
	outSz := out.Elems()
	for b := lo; b < hi; b++ {
		g := p.gradOut.Data[b*outSz : (b+1)*outSz]
		gi := p.gradIn.Data[b*inSz : (b+1)*inSz]
		clear(gi) // windows overlap, gradients accumulate
		am := p.argmax[b*outSz : (b+1)*outSz]
		for c := 0; c < p.in.C; c++ {
			chGrad := gi[c*p.in.H*p.in.W:]
			o := c * out.H * out.W
			for oh := 0; oh < out.H; oh++ {
				for ow := 0; ow < out.W; ow++ {
					if p.Method == MaxPool {
						if am[o] >= 0 {
							chGrad[am[o]] += g[o]
						}
					} else if am[o] > 0 {
						share := g[o] / float32(am[o])
						h0, w0 := oh*p.Stride-p.Pad, ow*p.Stride-p.Pad
						for kh := 0; kh < p.Kernel; kh++ {
							ih := h0 + kh
							if ih < 0 || ih >= p.in.H {
								continue
							}
							for kw := 0; kw < p.Kernel; kw++ {
								iw := w0 + kw
								if iw < 0 || iw >= p.in.W {
									continue
								}
								chGrad[ih*p.in.W+iw] += share
							}
						}
					}
					o++
				}
			}
		}
	}
}
