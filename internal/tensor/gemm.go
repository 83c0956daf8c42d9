package tensor

import "runtime"

// gemmParallelThreshold is the output size (M*N) above which GEMM
// fans out across CPU cores; small multiplies stay single-threaded to
// avoid dispatch overhead.
const gemmParallelThreshold = 64 * 64

const (
	// gemmMR and gemmNR are the micro-kernel's tile: gemmMR rows of C
	// (one A panel) by gemmNR columns (one B strip, one 16-float AVX-512
	// vector), which keeps the eight accumulators in registers.
	gemmMR = 8
	gemmNR = 16
)

// Gemm computes C = alpha*op(A)*op(B) + beta*C for row-major matrices,
// where op transposes when the corresponding flag is set. A is M×K
// (K×M if transA), B is K×N (N×K if transB), C is M×N.
//
// Determinism contract: every element of C is accumulated by exactly
// one worker, in ascending-p order, with one rounded multiply and one
// rounded add per term, regardless of how the output is partitioned,
// which micro-kernel runs, or whether a part of C is computed as a part
// of Cᵀ (gemmKernel) — so results are bit-identical run-to-run,
// across any GOMAXPROCS setting and across GOARCH. Above
// gemmParallelThreshold the output is split over ParallelFor, so
// steady-state calls do not allocate. A ParallelFor body calls GemmCols
// instead.
func Gemm(transA, transB bool, m, n, k int, alpha float32, a []float32, b []float32, beta float32, c []float32) {
	workers := runtime.GOMAXPROCS(0)
	if m*n < gemmParallelThreshold || workers < 2 {
		GemmCols(transA, transB, m, n, k, alpha, a, b, beta, c, 0, n)
		return
	}
	a, b = gemmOperands(m, n, k, a, b, c)

	// Partition whichever output dimension offers enough granularity:
	// rows when there are at least gemmMR rows per worker (in whole row
	// tiles), columns otherwise (e.g. a batch-32 fully-connected forward
	// pass, where m is tiny but n is thousands wide).
	byCols := m < workers*gemmMR && n >= workers
	f := getFanCall()
	f.gemm = gemmArgs{transA, transB, m, n, k, alpha, beta, a, b, c, byCols}
	f.body, f.scratchLen = &f.gemm, 0
	if byCols {
		f.run(n, 1)
	} else {
		f.run(m, gemmMR)
	}
	putFanCall(f)
}

// GemmCols computes columns [jlo, jhi) of Gemm's C on the calling
// goroutine, each element exactly as Gemm computes it. It is Gemm's
// serial path and the multiply a ParallelFor body runs.
func GemmCols(transA, transB bool, m, n, k int, alpha float32, a []float32, b []float32, beta float32, c []float32, jlo, jhi int) {
	if jlo < 0 || jhi > n || jlo > jhi {
		panic("tensor: gemm column range outside C")
	}
	a, b = gemmOperands(m, n, k, a, b, c)
	scaleCSpan(n, beta, c, 0, m, jlo, jhi)
	gemmKernel(transA, transB, m, n, k, alpha, a, b, c, 0, m, jlo, jhi)
}

// gemmOperands checks C's length and caps A and B at theirs: the
// assembly micro-kernel reads them without bounds checks, so a short
// operand panics here instead.
func gemmOperands(m, n, k int, a, b, c []float32) ([]float32, []float32) {
	if len(c) < m*n {
		panic("tensor: gemm C too small")
	}
	return a[: m*k : len(a)], b[: k*n : len(b)]
}

// gemmArgs are one Gemm call's operands, held by its fanCall, and the
// body of its fan-out.
type gemmArgs struct {
	transA, transB bool
	m, n, k        int
	alpha, beta    float32
	a, b, c        []float32
	byCols         bool
}

// Range computes [lo,hi) rows of C, or [lo,hi) columns when the call
// is column-partitioned.
func (g *gemmArgs) Range(lo, hi int, _ []float32) {
	ilo, ihi, jlo, jhi := 0, g.m, 0, g.n
	if g.byCols {
		jlo, jhi = lo, hi
	} else {
		ilo, ihi = lo, hi
	}
	scaleCSpan(g.n, g.beta, g.c, ilo, ihi, jlo, jhi)
	gemmKernel(g.transA, g.transB, g.m, g.n, g.k, g.alpha, g.a, g.b, g.c, ilo, ihi, jlo, jhi)
}

// --- kernels --------------------------------------------------------------

// scaleCSpan applies the beta prologue to C[ilo:ihi, jlo:jhi]; the
// kernel below is a pure accumulator.
func scaleCSpan(n int, beta float32, c []float32, ilo, ihi, jlo, jhi int) {
	if beta == 1 {
		return
	}
	for i := ilo; i < ihi; i++ {
		ci := c[i*n+jlo : i*n+jhi]
		if beta == 0 {
			for j := range ci {
				ci[j] = 0
			}
		} else {
			for j := range ci {
				ci[j] *= beta
			}
		}
	}
}

// view is a strided matrix: element (i, j) is data[i*rs + j*cs].
type view struct {
	data   []float32
	rs, cs int
}

// gemmKernel accumulates alpha*op(A)*op(B) into C[ilo:ihi, jlo:jhi].
// Without transB, alpha is folded into A and the terms are added onto C
// itself; with transB, each dot product starts from +0 and C +=
// alpha*acc finishes it — refGemm's contract for each transpose case.
//
// A transposed-B multiply whose range has fewer rows than columns is
// computed as Cᵀ = op(B)ᵀ·op(A)ᵀ = B·op(A)ᵀ instead: B's rows, which lie
// in place, become the A panels, and only op(A) — the smaller operand —
// is packed into strips. Each element still adds the same products
// (a·b = b·a in IEEE arithmetic) in the same ascending-p order onto +0,
// so the path chosen for a sub-rectangle cannot change a bit.
func gemmKernel(transA, transB bool, m, n, k int, alpha float32, a, b, c []float32, ilo, ihi, jlo, jhi int) {
	opA := view{a, k, 1}
	if transA {
		opA = view{a, 1, m}
	}
	switch {
	case !transB:
		gemmTiles(k, alpha, true, opA, ilo, ihi, view{b, n, 1}, jlo, jhi, view{c, n, 1})
	case ihi-ilo < jhi-jlo:
		gemmTiles(k, alpha, false, view{b, k, 1}, jlo, jhi, view{a, opA.cs, opA.rs}, ilo, ihi, view{c, 1, n})
	default:
		gemmTiles(k, alpha, false, opA, ilo, ihi, view{b, 1, k}, jlo, jhi, view{c, n, 1})
	}
}

// gemmTiles accumulates alpha·X·Y into C[rlo:rhi, qlo:qhi], one
// gemmMR×gemmNR tile at a time, where X is ·×k and Y is k×·, and C is
// row-major (cs 1) or, as gemmKernel's Cᵀ, column-major (rs 1). With
// fold, alpha is folded into X and the terms are added onto C itself,
// which must be row-major; without it, each tile starts from +0 and
// C += alpha*acc finishes it.
//
// The micro-kernel takes strides, so it reads full X panels and full Y
// strips with contiguous rows where they lie. Only what it cannot
// stream is packed into workspace scratch: X panels that need alpha
// folded in or run past rhi, Y strips that lie transposed or run past
// qhi, and both when k == 0 leaves no element to point at.
func gemmTiles(k int, alpha float32, fold bool, x view, rlo, rhi int, y view, qlo, qhi int, c view) {
	streamed := rlo + (rhi-rlo)/gemmMR*gemmMR // X panels before this row are read in place
	if (fold && alpha != 1) || k == 0 {
		streamed = rlo
	}
	packed := (rhi - streamed + gemmMR - 1) / gemmMR * gemmMR
	buf := GetScratch((packed + gemmNR) * k)
	xp, yp := (*buf)[:packed*k], (*buf)[packed*k:]
	for i := streamed; i < rhi; i += gemmMR {
		panel := xp[(i-streamed)*k : (i-streamed+gemmMR)*k]
		for r := 0; r < gemmMR; r++ {
			for p := 0; p < k; p++ {
				var v float32
				if i+r < rhi {
					v = x.data[(i+r)*x.rs+p*x.cs]
					if fold {
						v = alpha * v
					}
				}
				panel[p*gemmMR+r] = v
			}
		}
	}

	var tile [gemmMR * gemmNR]float32
	for jb := qlo; jb < qhi; jb += gemmNR {
		w := min(gemmNR, qhi-jb)
		ysrc, ys := yp, gemmNR
		switch {
		case y.cs == 1 && w == gemmNR && k > 0:
			ysrc, ys = y.data[jb:], y.rs
		case y.cs == 1:
			clear(yp)
			for p := 0; p < k; p++ {
				copy(yp[p*gemmNR:p*gemmNR+w], y.data[p*y.rs+jb:p*y.rs+jb+w])
			}
		default: // y.rs == 1: Y's columns are the rows of y.data, k long
			if w < gemmNR {
				clear(yp)
			}
			packTransposed(yp, y.data[jb*k:], k, w)
		}
		for i := rlo; i < rhi; i += gemmMR {
			h := min(gemmMR, rhi-i)
			xsrc, rs, ps := x.data, x.rs, x.cs
			if i < streamed {
				xsrc = x.data[i*x.rs:]
			} else {
				xsrc, rs, ps = xp[(i-streamed)*k:], 1, gemmMR
			}
			if fold && h == gemmMR && w == gemmNR {
				microKernel(k, xsrc, rs, ps, ysrc, ys, c.data[i*c.rs+jb:], c.rs)
				continue
			}
			tile = [gemmMR * gemmNR]float32{}
			if fold {
				for r := 0; r < h; r++ {
					copy(tile[r*gemmNR:r*gemmNR+w], c.data[(i+r)*c.rs+jb:])
				}
			}
			microKernel(k, xsrc, rs, ps, ysrc, ys, tile[:], gemmNR)
			switch {
			case fold:
				for r := 0; r < h; r++ {
					copy(c.data[(i+r)*c.rs+jb:(i+r)*c.rs+jb+w], tile[r*gemmNR:])
				}
			case c.cs == 1:
				for r := 0; r < h; r++ {
					ci := c.data[(i+r)*c.rs+jb:][:w]
					for j := range ci {
						ci[j] += float32(alpha * tile[r*gemmNR+j])
					}
				}
			default: // C is written transposed, a column of the tile at a time
				for j := 0; j < w; j++ {
					cj := c.data[(jb+j)*c.cs+i:][:h]
					for r := range cj {
						cj[r] += float32(alpha * tile[r*gemmNR+j])
					}
				}
			}
		}
	}
	PutScratch(buf)
}

// packTransposed writes the first w rows of b, each k long, as the
// columns of the k×gemmNR strip dst. It walks p in blocks whose strip
// lines stay in L1, reading four rows of b at a time.
func packTransposed(dst, b []float32, k, w int) {
	for pb := 0; pb < k; pb += 64 {
		pe := min(pb+64, k)
		j := 0
		for ; j+4 <= w; j += 4 {
			r0 := b[j*k+pb : j*k+pe]
			r1 := b[(j+1)*k+pb:][:len(r0)]
			r2 := b[(j+2)*k+pb:][:len(r0)]
			r3 := b[(j+3)*k+pb:][:len(r0)]
			for p := range r0 {
				d := dst[(pb+p)*gemmNR+j:][:4]
				d[0], d[1], d[2], d[3] = r0[p], r1[p], r2[p], r3[p]
			}
		}
		for ; j < w; j++ {
			for p, v := range b[j*k+pb : j*k+pe] {
				dst[(pb+p)*gemmNR+j] = v
			}
		}
	}
}

// microKernel adds A·B into a gemmMR×gemmNR tile of C: element (r, p)
// of the A panel is a[r*ars + p*aps], B row p is b[p*bs:], C row r is
// c[r*cs:]. Every kernel it selects computes
//
//	c[r][j] = c[r][j] + float32(a[r][p]*b[p][j])   for p = 0, 1, …, k-1
//
// with no fused multiply-add, so all of them agree bit for bit. The
// AVX2 and Go kernels are 4 rows tall and run the panel as two halves.
func microKernel(k int, a []float32, ars, aps int, b []float32, bs int, c []float32, cs int) {
	if k == 0 {
		return // no term to add, and a packed panel has no second half
	}
	switch kernel {
	case kernelAVX512:
		microKernelAVX512(k, a, ars, aps, b, bs, c, cs)
	case kernelAVX2:
		microKernelAVX2(k, a, ars, aps, b, bs, c, cs)
		microKernelAVX2(k, a[4*ars:], ars, aps, b, bs, c[4*cs:], cs)
	default:
		microKernelGo(k, a, ars, aps, b, bs, c, cs)
		microKernelGo(k, a[4*ars:], ars, aps, b, bs, c[4*cs:], cs)
	}
}

// A microKernelID names one micro-kernel.
type microKernelID int

const (
	kernelGo microKernelID = iota
	kernelAVX2
	kernelAVX512
)

// kernel is the micro-kernel every multiply runs: the widest the CPU
// has, chosen once at init (cpuKernel). Tests set it to run each one.
var kernel = cpuKernel()

// microKernelGo is the portable 4×16 micro-kernel, and the oracle the
// assembly ones are tested against.
func microKernelGo(k int, a []float32, ars, aps int, b []float32, bs int, c []float32, cs int) {
	// Four rows by two columns of accumulators stay in registers; each
	// still sums its terms in ascending p.
	for j := 0; j < gemmNR; j += 2 {
		c00, c01 := c[j], c[j+1]
		c10, c11 := c[cs+j], c[cs+j+1]
		c20, c21 := c[2*cs+j], c[2*cs+j+1]
		c30, c31 := c[3*cs+j], c[3*cs+j+1]
		for p := 0; p < k; p++ {
			b0, b1 := b[p*bs+j], b[p*bs+j+1]
			a0, a1, a2, a3 := a[p*aps], a[ars+p*aps], a[2*ars+p*aps], a[3*ars+p*aps]
			// The conversions forbid fusing a multiply into its add
			// (Go spec, "Arithmetic operators").
			c00 += float32(a0 * b0)
			c01 += float32(a0 * b1)
			c10 += float32(a1 * b0)
			c11 += float32(a1 * b1)
			c20 += float32(a2 * b0)
			c21 += float32(a2 * b1)
			c30 += float32(a3 * b0)
			c31 += float32(a3 * b1)
		}
		c[j], c[j+1] = c00, c01
		c[cs+j], c[cs+j+1] = c10, c11
		c[2*cs+j], c[2*cs+j+1] = c20, c21
		c[3*cs+j], c[3*cs+j+1] = c30, c31
	}
}
