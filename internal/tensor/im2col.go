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
	for r := lo; r < hi; r++ {
		chn := img[r/(g.KernelH*g.KernelW)*g.InH*g.InW:]
		kh, kw := r/g.KernelW%g.KernelH, r%g.KernelW
		ohLo, ohHi := inBounds(outH, g.StrideH, kh-g.PadH, g.InH)
		owLo, owHi := inBounds(outW, g.StrideW, kw-g.PadW, g.InW)
		dst := col[r*plane : (r+1)*plane]
		clear(dst)
		// An empty ow range leaves the whole plane padding, and its
		// offset need not lie inside the image.
		for oh := ohLo; oh < ohHi && owLo < owHi; oh++ {
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
				for oh := ohLo; oh < ohHi && owLo < owHi; oh++ {
					dst := chn[(oh*g.StrideH+kh-g.PadH)*g.InW+owLo*g.StrideW+kw-g.PadW:]
					for i, v := range col[idx+oh*outW+owLo : idx+oh*outW+owHi] {
						dst[i*g.StrideW] += v
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
