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

	argmax  []int32 // winner index per output element (max pooling only)
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
	if p.Method == MaxPool {
		p.argmax = make([]int32, batch*out.Elems())
	}
	p.allocBlobs(out)
}

// Range implements tensor.Ranger: it is the body of Pool's fan-outs
// over samples, run by Forward and Backward.
func (p *Pool) Range(lo, hi int, scratch []float32) {
	if p.pass == forwardPass {
		p.forwardSamples(lo, hi, scratch)
	} else {
		p.backwardSamples(lo, hi)
	}
}

// Forward implements Layer. The batch is split over tensor.ParallelFor
// by samples; max pooling takes one channel of scratch for its keys.
func (p *Pool) Forward(in *tensor.Tensor) *tensor.Tensor {
	p.checkIn(in)
	p.lastIn = in
	p.pass = forwardPass
	scratch := 0
	if p.Method == MaxPool {
		scratch = p.in.H * p.in.W
	}
	tensor.ParallelFor(p.batch, scratch, p)
	return p.out
}

// forwardSamples scans the windows of samples [lo, hi). Max pooling
// first writes each channel's order keys into keys.
func (p *Pool) forwardSamples(lo, hi int, keys []float32) {
	out := p.OutShape(p.in)
	inSz, outSz, chSz := p.in.Elems(), out.Elems(), p.in.H*p.in.W
	for b := lo; b < hi; b++ {
		src := p.lastIn.Data[b*inSz : (b+1)*inSz]
		dst := p.out.Data[b*outSz : (b+1)*outSz]
		var am []int32
		if p.Method == MaxPool {
			am = p.argmax[b*outSz : (b+1)*outSz]
		}
		for c := 0; c < p.in.C; c++ {
			chn := src[c*chSz : (c+1)*chSz]
			if p.Method == MaxPool {
				orderKeys(chn, keys)
			}
			o := c * out.H * out.W
			for oh := 0; oh < out.H; oh++ {
				hLo, hHi := p.window(oh, p.in.H)
				for ow := 0; ow < out.W; ow++ {
					wLo, wHi := p.window(ow, p.in.W)
					if p.Method == MaxPool {
						dst[o], am[o] = maxWindow(chn, keys, p.in.W, hLo, hHi, wLo, wHi)
					} else {
						dst[o] = avgWindow(chn, p.in.W, hLo, hHi, wLo, wHi)
					}
					o++
				}
			}
		}
	}
}

// window returns the input rows (or columns) [lo, hi) that output
// position o's window covers, clamped to [0, size); lo ≥ hi when the
// window lies wholly in the padding.
func (p *Pool) window(o, size int) (lo, hi int) {
	lo = o*p.Stride - p.Pad
	return max(lo, 0), min(lo+p.Kernel, size)
}

// nanKey is the order key of every NaN, above that of +Inf.
const nanKey = math.MaxInt32

// orderKeys writes the order key of each value of chn into keys: an
// int32 with the float's order, so that integer compares, which compile
// to conditional moves, can pick the maximum. A non-negative float keeps
// its bits and a negative −x gets −bits(x), so −0 and +0 both map to 0;
// every NaN maps to nanKey. A key is stored in a float32's bits, since
// the fan-out's scratch is float32; it is never read as a float.
func orderKeys(chn, keys []float32) {
	keys = keys[:len(chn)]
	for i, v := range chn {
		u := int32(math.Float32bits(v))
		neg := u >> 31
		k := u ^ (neg & 0x7fffffff) - neg
		nan := (0x7f800000 - u&0x7fffffff) >> 31 // all ones iff NaN
		keys[i] = math.Float32frombits(uint32(k&^nan | nanKey&nan))
	}
}

// maxWindow returns the maximum of a clamped window of a channel of
// width w and its index: the first maximum in scan order, −0 equal to
// +0; an empty window gives (0, −1). The scan compares order keys, with
// no branch on the data. A window holding a NaN takes maxWindowScalar,
// whose float compares give NaN its IEEE meaning.
func maxWindow(chn, keys []float32, w, hLo, hHi, wLo, wHi int) (float32, int32) {
	if hLo >= hHi || wLo >= wHi {
		return 0, -1
	}
	off := hLo*w + wLo
	best := off + argmaxKey(keys[off:], w, hHi-hLo, wHi-wLo)
	if int32(math.Float32bits(keys[best])) == nanKey {
		return maxWindowScalar(chn, w, hLo, hHi, wLo, wHi)
	}
	return chn[best], int32(best)
}

// argmaxKey returns the offset in keys of the first greatest key of a
// rows × cols window of row width w starting at keys[0]. Its compare
// compiles to two conditional moves; inlined into maxWindow, it ran out
// of registers and compiled to a branch, so it stays out of line.
//
//go:noinline
func argmaxKey(keys []float32, w, rows, cols int) int {
	best, bestKey := 0, int32(math.Float32bits(keys[0]))
	for r := 0; r < rows; r++ {
		for c, k := range keys[r*w : r*w+cols] {
			if k := int32(math.Float32bits(k)); k > bestKey {
				bestKey, best = k, r*w+c
			}
		}
	}
	return best
}

// maxWindowScalar is maxWindow by float compares: the first in-bounds
// value, replaced by every later one greater than it.
func maxWindowScalar(chn []float32, w, hLo, hHi, wLo, wHi int) (float32, int32) {
	best := int32(-1)
	var bv float32
	for ih := hLo; ih < hHi; ih++ {
		for iw := wLo; iw < wHi; iw++ {
			if v := chn[ih*w+iw]; best < 0 || v > bv {
				best, bv = int32(ih*w+iw), v
			}
		}
	}
	return bv, best
}

// avgWindow returns the mean of a clamped window in scan order; an
// empty window gives 0, which clears the reused blob.
func avgWindow(chn []float32, w, hLo, hHi, wLo, wHi int) float32 {
	if hLo >= hHi || wLo >= wHi {
		return 0
	}
	var sum float32
	for ih := hLo; ih < hHi; ih++ {
		for _, v := range chn[ih*w+wLo : ih*w+wHi] {
			sum += v
		}
	}
	return sum / float32((hHi-hLo)*(wHi-wLo))
}

// Backward implements Layer. The batch is split over tensor.ParallelFor
// by samples; a sample's gradient stays inside its own region.
func (p *Pool) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	p.gradOut = gradOut
	gradIn := p.gradInBlob()
	p.pass = inputGradPass
	tensor.ParallelFor(p.batch, 0, p)
	return gradIn
}

// backwardSamples scatters the gradient of samples [lo, hi) back onto
// the argmax (max) or the whole window (average), whose element count,
// like the one forward divided by, depends only on its position.
func (p *Pool) backwardSamples(lo, hi int) {
	out := p.OutShape(p.in)
	inSz, outSz, chSz := p.in.Elems(), out.Elems(), p.in.H*p.in.W
	for b := lo; b < hi; b++ {
		g := p.gradOut.Data[b*outSz : (b+1)*outSz]
		gi := p.gradIn.Data[b*inSz : (b+1)*inSz]
		clear(gi) // windows overlap, gradients accumulate
		var am []int32
		if p.Method == MaxPool {
			am = p.argmax[b*outSz : (b+1)*outSz]
		}
		for c := 0; c < p.in.C; c++ {
			chGrad := gi[c*chSz : (c+1)*chSz]
			o := c * out.H * out.W
			for oh := 0; oh < out.H; oh++ {
				hLo, hHi := p.window(oh, p.in.H)
				for ow := 0; ow < out.W; ow++ {
					if p.Method == MaxPool {
						if am[o] >= 0 {
							chGrad[am[o]] += g[o]
						}
					} else if wLo, wHi := p.window(ow, p.in.W); hLo < hHi && wLo < wHi {
						share := g[o] / float32((hHi-hLo)*(wHi-wLo))
						for ih := hLo; ih < hHi; ih++ {
							row := chGrad[ih*p.in.W+wLo : ih*p.in.W+wHi]
							for i := range row {
								row[i] += share
							}
						}
					}
					o++
				}
			}
		}
	}
}
