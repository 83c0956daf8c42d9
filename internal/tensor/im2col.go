package tensor

// ConvGeom describes a 2-D convolution/pooling geometry.
type ConvGeom struct {
	InC, InH, InW    int
	KernelH, KernelW int
	StrideH, StrideW int
	PadH, PadW       int
}

// OutH returns the output height.
func (g ConvGeom) OutH() int { return (g.InH+2*g.PadH-g.KernelH)/g.StrideH + 1 }

// OutW returns the output width.
func (g ConvGeom) OutW() int { return (g.InW+2*g.PadW-g.KernelW)/g.StrideW + 1 }

// Im2col expands one image (C×H×W, flattened) into the column matrix
// used to lower convolution onto GEMM: (C·kh·kw) rows × (outH·outW)
// columns. col must have length C*kh*kw*outH*outW.
func Im2col(g ConvGeom, img []float32, col []float32) {
	Im2colRows(g, img, col, 0, g.InC*g.KernelH*g.KernelW)
}

// Im2colRows writes rows [lo, hi) of Im2col's column matrix, each at
// its own place in col, and leaves the other rows alone. Row r reads
// input channel r/(kh·kw) at kernel offset (r/kw mod kh, r mod kw).
func Im2colRows(g ConvGeom, img []float32, col []float32, lo, hi int) {
	outH, outW := g.OutH(), g.OutW()
	plane := outH * outW
	// At stride 1 with outW == InW an output row and the next read
	// consecutive input rows at the same column offset, so a kernel
	// offset's whole plane is one shifted copy of the channel.
	shifted := g.StrideH == 1 && g.StrideW == 1 && outW == g.InW
	for r := lo; r < hi; r++ {
		chn := img[r/(g.KernelH*g.KernelW)*g.InH*g.InW:]
		kh, kw := r/g.KernelW%g.KernelH, r%g.KernelW
		ohLo, ohHi := inBounds(outH, g.StrideH, kh-g.PadH, g.InH)
		owLo, owHi := inBounds(outW, g.StrideW, kw-g.PadW, g.InW)
		dst := col[r*plane : (r+1)*plane]
		// An empty ow range leaves the whole plane padding, and its
		// offset need not lie inside the image.
		if ohLo >= ohHi || owLo >= owHi {
			clear(dst)
			continue
		}
		if shifted {
			im2colShifted(dst, chn, (kh-g.PadH)*g.InW+kw-g.PadW, outW, ohLo, ohHi, owLo, owHi)
			continue
		}
		clear(dst)
		for oh := ohLo; oh < ohHi; oh++ {
			src := chn[(oh*g.StrideH+kh-g.PadH)*g.InW+owLo*g.StrideW+kw-g.PadW:]
			row := dst[oh*outW+owLo : oh*outW+owHi]
			if g.StrideW == 1 {
				copy(row, src)
				continue
			}
			for i := range row {
				row[i] = src[i*g.StrideW]
			}
		}
	}
}

// im2colShifted writes one kernel offset's plane at stride 1 with
// outW == InW, where dst[j] reads chn[j+shift] for every in-bounds j:
// one copy spans the first in-bounds element to the last, and the
// padding columns it carried across row edges (the right edge of one
// row and the left edge of the next) are zeroed after it.
func im2colShifted(dst, chn []float32, shift, outW, ohLo, ohHi, owLo, owHi int) {
	start, end := ohLo*outW+owLo, (ohHi-1)*outW+owHi
	clear(dst[:start])
	copy(dst[start:end], chn[start+shift:end+shift])
	clear(dst[end:])
	for oh := ohLo; oh < ohHi-1; oh++ {
		for i := oh*outW + owHi; i < (oh+1)*outW+owLo; i++ {
			dst[i] = 0 // a few elements: a loop, not a memclr call
		}
	}
}

// Col2im scatters a column matrix back into an image, accumulating
// overlapping contributions (the adjoint of Im2col, used for the
// convolution input gradient). img must be zeroed by the caller. Each
// pixel receives its contributions in column-matrix order.
func Col2im(g ConvGeom, col []float32, img []float32) {
	outH, outW := g.OutH(), g.OutW()
	idx := 0
	for c := 0; c < g.InC; c++ {
		chn := img[c*g.InH*g.InW:]
		for kh := 0; kh < g.KernelH; kh++ {
			ohLo, ohHi := inBounds(outH, g.StrideH, kh-g.PadH, g.InH)
			for kw := 0; kw < g.KernelW; kw++ {
				owLo, owHi := inBounds(outW, g.StrideW, kw-g.PadW, g.InW)
				// Row oh of the plane adds n values at chn[d:], d stepping
				// StrideH input rows per output row.
				n := owHi - owLo
				d := (ohLo*g.StrideH+kh-g.PadH)*g.InW + owLo*g.StrideW + kw - g.PadW
				for s := idx + ohLo*outW + owLo; s < idx+ohHi*outW && n > 0; s, d = s+outW, d+g.StrideH*g.InW {
					src := col[s : s+n]
					if g.StrideW == 1 {
						dst := chn[d : d+n]
						for i, v := range src {
							dst[i] += v
						}
						continue
					}
					for i, v := range src {
						chn[d+i*g.StrideW] += v
					}
				}
				idx += outH * outW
			}
		}
	}
}

// inBounds returns the range [lo, hi) of output positions o in [0, out)
// whose input coordinate o*stride + off lies in [0, size): the rest of
// a row or plane reads padding.
func inBounds(out, stride, off, size int) (lo, hi int) {
	if off < 0 {
		lo = (-off + stride - 1) / stride
	}
	if size > off {
		hi = (size - off + stride - 1) / stride
	}
	lo = min(lo, out)
	return lo, max(lo, min(hi, out))
}
