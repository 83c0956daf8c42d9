package layers

import (
	"math"
	"math/rand"

	"scaffe/internal/tensor"
)

// LRN is across-channel local response normalization (AlexNet-era):
// out[c] = in[c] · (k + α/n · Σ_{c'∈window} in[c']²)^{-β}.
type LRN struct {
	base
	noParams
	Size        int
	Alpha, Beta float64
	K           float64

	lastIn  *tensor.Tensor
	lastOut *tensor.Tensor
	scale   []float32 // (k + α/n·Σ in²) per element
}

// NewLRN creates an LRN layer with AlexNet's defaults for unset
// hyper-parameters.
func NewLRN(name string, size int, alpha, beta float64) *LRN {
	return &LRN{base: base{name: name}, Size: size, Alpha: alpha, Beta: beta, K: 1}
}

// Kind implements Layer.
func (l *LRN) Kind() string { return "LRN" }

// OutShape implements Layer.
func (l *LRN) OutShape(in Shape) Shape { return in }

// FwdFLOPs implements Layer.
func (l *LRN) FwdFLOPs(in Shape) float64 { return float64(in.Elems() * (l.Size + 3)) }

// BwdFLOPs implements Layer.
func (l *LRN) BwdFLOPs(in Shape) float64 { return float64(in.Elems() * (l.Size + 4)) }

// Setup implements Layer.
func (l *LRN) Setup(in Shape, batch int, _ *rand.Rand) {
	l.setup(in, batch)
	l.scale = make([]float32, batch*in.Elems())
	l.allocBlobs(in)
}

func (l *LRN) window(c int) (lo, hi int) {
	half := l.Size / 2
	lo = c - half
	hi = c + half
	if lo < 0 {
		lo = 0
	}
	if hi > l.in.C-1 {
		hi = l.in.C - 1
	}
	return
}

// Forward implements Layer.
func (l *LRN) Forward(in *tensor.Tensor) *tensor.Tensor {
	l.checkIn(in)
	l.lastIn = in
	out := l.out
	hw := l.in.H * l.in.W
	an := float32(l.Alpha / float64(l.Size))
	for b := 0; b < l.batch; b++ {
		off := b * l.in.Elems()
		for c := 0; c < l.in.C; c++ {
			lo, hi := l.window(c)
			for i := 0; i < hw; i++ {
				var ss float32
				for cc := lo; cc <= hi; cc++ {
					v := in.Data[off+cc*hw+i]
					ss += float32(v * v)
				}
				s := float32(l.K) + float32(an*ss)
				idx := off + c*hw + i
				l.scale[idx] = s
				out.Data[idx] = in.Data[idx] * float32(math.Pow(float64(s), -l.Beta))
			}
		}
	}
	l.lastOut = out
	return out
}

// Backward implements Layer.
func (l *LRN) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	gradIn := l.gradIn
	gradIn.Zero() // direct and cross terms accumulate below
	hw := l.in.H * l.in.W
	an := float32(l.Alpha / float64(l.Size))
	beta := float32(l.Beta)
	for b := 0; b < l.batch; b++ {
		off := b * l.in.Elems()
		for c := 0; c < l.in.C; c++ {
			lo, hi := l.window(c)
			for i := 0; i < hw; i++ {
				idx := off + c*hw + i
				s := l.scale[idx]
				pw := float32(math.Pow(float64(s), -l.Beta))
				// Direct term.
				gradIn.Data[idx] += float32(gradOut.Data[idx] * pw)
				// Cross terms: d out[c'] / d in[c] for c in the window
				// of c'. Iterate the symmetric window.
				for cc := lo; cc <= hi; cc++ {
					jdx := off + c*hw + i
					kdx := off + cc*hw + i
					scc := l.scale[kdx]
					pwc := float32(math.Pow(float64(scc), -l.Beta))
					gradIn.Data[jdx] += float32(gradOut.Data[kdx] *
						(-2 * beta * an * l.lastIn.Data[kdx] * l.lastIn.Data[jdx] * pwc / scc))
				}
			}
		}
	}
	return gradIn
}
