package layers

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"scaffe/internal/tensor"
)

// refPoolForward is Pool's forward pass as a scalar loop that tests
// every window element against the image bounds and keeps the running
// maximum with a float compare: the oracle for the branch-free scan.
func refPoolForward(p *Pool, in []float32) (out []float32, argmax []int32) {
	outSh := p.OutShape(p.in)
	out = make([]float32, p.batch*outSh.Elems())
	argmax = make([]int32, len(out))
	inSz, outSz := p.in.Elems(), outSh.Elems()
	for b := 0; b < p.batch; b++ {
		src := in[b*inSz : (b+1)*inSz]
		dst := out[b*outSz : (b+1)*outSz]
		am := argmax[b*outSz : (b+1)*outSz]
		for c := 0; c < p.in.C; c++ {
			chn := src[c*p.in.H*p.in.W:]
			o := c * outSh.H * outSh.W
			for oh := 0; oh < outSh.H; oh++ {
				for ow := 0; ow < outSh.W; ow++ {
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
						}
						am[o] = int32(n)
					}
					o++
				}
			}
		}
	}
	return out, argmax
}

// refPoolBackward is Pool's backward pass as the same scalar loop.
func refPoolBackward(p *Pool, argmax []int32, gradOut []float32) []float32 {
	outSh := p.OutShape(p.in)
	inSz, outSz := p.in.Elems(), outSh.Elems()
	gradIn := make([]float32, p.batch*inSz)
	for b := 0; b < p.batch; b++ {
		g := gradOut[b*outSz : (b+1)*outSz]
		gi := gradIn[b*inSz : (b+1)*inSz]
		am := argmax[b*outSz : (b+1)*outSz]
		for c := 0; c < p.in.C; c++ {
			chGrad := gi[c*p.in.H*p.in.W:]
			o := c * outSh.H * outSh.W
			for oh := 0; oh < outSh.H; oh++ {
				for ow := 0; ow < outSh.W; ow++ {
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
	return gradIn
}

// specialFloats are the values whose bits a branch-free kernel must
// treat as the float compares do.
var specialFloats = []float32{
	float32(math.NaN()), math.Float32frombits(0xffc00001), // a NaN with the sign bit
	float32(math.Inf(1)), float32(math.Inf(-1)),
	0, float32(math.Copysign(0, -1)),
	math.Float32frombits(1), math.Float32frombits(0x807fffff), // ± denormals
	math.MaxFloat32, -math.MaxFloat32, 1, -1,
}

// fillSpecial fills x with a mix of random values, repeated values (so
// windows hold ties) and specialFloats, each at a rate set by rng.
func fillSpecial(rng *rand.Rand, x []float32) {
	special := rng.Float64() * 0.3
	for i := range x {
		switch r := rng.Float64(); {
		case r < special:
			x[i] = specialFloats[rng.Intn(len(specialFloats))]
		case r < special+0.3:
			x[i] = float32(rng.Intn(3) - 1)
		default:
			x[i] = rng.Float32()*2 - 1
		}
	}
}

func sameBits(got, want []float32) int {
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return i
		}
	}
	return -1
}

// TestPoolMatchesScalarReference holds the branch-free max scan and the
// clamped windows to the scalar loop bit for bit — outputs, argmax and
// input gradients — over random geometries (kernel 1–5, stride 1–3, pad
// 0–2, H and W 1–33) and inputs holding NaN, ±0, ±Inf and denormals,
// at GOMAXPROCS 1 and 4.
func TestPoolMatchesScalarReference(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			rng := rand.New(rand.NewSource(int64(procs)))
			for trial := 0; trial < 400; trial++ {
				kernel, stride := 1+rng.Intn(5), 1+rng.Intn(3)
				p := NewMaxPool("pool", kernel, stride)
				if trial%2 == 1 {
					p = NewAvgPool("pool", kernel, stride)
				}
				p.Pad = rng.Intn(3)
				in := Shape{C: 1 + rng.Intn(3), H: 1 + rng.Intn(33), W: 1 + rng.Intn(33)}
				batch := 1 + rng.Intn(3)
				p.Setup(in, batch, rng)
				x := tensor.New(batch, in.C, in.H, in.W)
				fillSpecial(rng, x.Data)
				p.Forward(x) // the blobs are reused: the pass below must overwrite all of them
				fillSpecial(rng, x.Data)
				name := fmt.Sprintf("method %d kernel %d stride %d pad %d in %v batch %d",
					p.Method, kernel, stride, p.Pad, in, batch)

				wantOut, wantAm := refPoolForward(p, x.Data)
				out := p.Forward(x)
				if i := sameBits(out.Data, wantOut); i >= 0 {
					t.Fatalf("%s: out[%d] = %#x, reference %#x", name, i,
						math.Float32bits(out.Data[i]), math.Float32bits(wantOut[i]))
				}
				for i := range p.argmax { // a max pool's only: an average pool keeps no counts
					if p.argmax[i] != wantAm[i] {
						t.Fatalf("%s: argmax[%d] = %d, reference %d", name, i, p.argmax[i], wantAm[i])
					}
				}
				g := tensor.New(out.Dims...)
				fillSpecial(rng, g.Data)
				want := refPoolBackward(p, wantAm, g.Data)
				if i := sameBits(p.Backward(g).Data, want); i >= 0 {
					t.Fatalf("%s: gradIn[%d] = %#x, reference %#x", name, i,
						math.Float32bits(p.gradIn.Data[i]), math.Float32bits(want[i]))
				}
			}
		})
	}
}
