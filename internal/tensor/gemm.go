package tensor

import (
	"runtime"
	"sync"
)

// gemmParallelThreshold is the output size (M*N) above which GEMM
// fans out across CPU cores; small multiplies stay single-threaded to
// avoid dispatch overhead.
const gemmParallelThreshold = 64 * 64

const (
	// gemmMR and gemmNR are the micro-kernel's tile: gemmMR rows of C
	// (one A panel) by gemmNR columns (one B strip, two 8-float AVX
	// vectors), which keeps the eight accumulators in registers.
	gemmMR = 4
	gemmNR = 16
)

// Gemm computes C = alpha*op(A)*op(B) + beta*C for row-major matrices,
// where op transposes when the corresponding flag is set. A is M×K
// (K×M if transA), B is K×N (N×K if transB), C is M×N.
//
// Determinism contract: every element of C is accumulated by exactly
// one worker, in ascending-p order, with one rounded multiply and one
// rounded add per term, regardless of how the output is partitioned or
// which micro-kernel runs — so results are bit-identical run-to-run,
// across any GOMAXPROCS setting and across GOARCH. Parallel dispatch
// goes through a persistent worker pool and a pooled call descriptor,
// so steady-state calls do not allocate.
func Gemm(transA, transB bool, m, n, k int, alpha float32, a []float32, b []float32, beta float32, c []float32) {
	if len(c) < m*n {
		panic("tensor: gemm C too small")
	}
	// The assembly micro-kernel reads A and B without bounds checks;
	// capping each at its length panics here if it is short.
	a, b = a[:m*k:len(a)], b[:k*n:len(b)]
	workers := runtime.GOMAXPROCS(0)
	if m*n < gemmParallelThreshold || workers < 2 {
		scaleCSpan(n, beta, c, 0, m, 0, n)
		gemmKernel(transA, transB, m, n, k, alpha, a, b, c, 0, m, 0, n)
		return
	}
	gemmOnce.Do(startGemmWorkers)

	// Partition whichever output dimension offers enough granularity:
	// rows when there are at least gemmMR rows per worker (keeps the
	// micro-kernel's row tiles intact), columns otherwise (e.g. a
	// batch-32 fully-connected forward pass, where m is tiny but n is
	// thousands wide).
	byCols := m < workers*gemmMR && n >= workers
	span := m
	if byCols {
		span = n
	}
	if workers > span {
		workers = span
	}
	per := (span + workers - 1) / workers
	if !byCols {
		per = (per + gemmMR - 1) / gemmMR * gemmMR // align chunks to row tiles
	}
	parts := (span + per - 1) / per

	g := getGemmCall()
	g.transA, g.transB = transA, transB
	g.m, g.n, g.k = m, n, k
	g.alpha, g.beta = alpha, beta
	g.a, g.b, g.c = a, b, c
	g.byCols = byCols
	g.wg.Add(parts - 1)
	for w := 1; w < parts; w++ {
		lo := w * per
		hi := lo + per
		if hi > span {
			hi = span
		}
		gemmTaskQ <- gemmTask{call: g, lo: lo, hi: hi}
	}
	hi0 := per
	if hi0 > span {
		hi0 = span
	}
	g.runSpan(0, hi0)
	g.wg.Wait()
	putGemmCall(g)
}

// --- persistent worker pool ----------------------------------------------

// gemmTask is one partition of a parallel GEMM call.
type gemmTask struct {
	call   *gemmCall
	lo, hi int
}

// gemmCall is a pooled parallel-call descriptor; pooling it (and the
// WaitGroup inside) keeps the parallel dispatch path allocation-free.
type gemmCall struct {
	transA, transB bool
	m, n, k        int
	alpha, beta    float32
	a, b, c        []float32
	byCols         bool
	wg             sync.WaitGroup
}

var (
	gemmOnce  sync.Once
	gemmTaskQ chan gemmTask

	gemmCallMu   sync.Mutex
	gemmCallFree []*gemmCall
)

// startGemmWorkers spins up the persistent compute workers. Workers
// block on the task queue when idle; the pool is sized to the machine
// since per-call parallelism is capped by GOMAXPROCS anyway.
func startGemmWorkers() {
	n := runtime.NumCPU()
	if n < 1 {
		n = 1
	}
	gemmTaskQ = make(chan gemmTask, 4*n)
	for i := 0; i < n; i++ {
		go func() {
			for t := range gemmTaskQ {
				t.call.runSpan(t.lo, t.hi)
				t.call.wg.Done()
			}
		}()
	}
}

func getGemmCall() *gemmCall {
	gemmCallMu.Lock()
	var g *gemmCall
	if n := len(gemmCallFree); n > 0 {
		g = gemmCallFree[n-1]
		gemmCallFree = gemmCallFree[:n-1]
	}
	gemmCallMu.Unlock()
	if g == nil {
		g = new(gemmCall)
	}
	return g
}

func putGemmCall(g *gemmCall) {
	g.a, g.b, g.c = nil, nil, nil
	gemmCallMu.Lock()
	gemmCallFree = append(gemmCallFree, g)
	gemmCallMu.Unlock()
}

// runSpan executes one partition: [lo,hi) rows of C, or [lo,hi)
// columns when the call is column-partitioned.
func (g *gemmCall) runSpan(lo, hi int) {
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

// gemmKernel accumulates alpha*op(A)*op(B) into C[ilo:ihi, jlo:jhi],
// one gemmMR×gemmNR tile at a time. Each tile is refGemm's contract for
// its transpose case: without transB, alpha is folded into A and the
// terms are added onto C itself; with transB, the dot products start
// from a zero tile and C += alpha*acc finishes them.
//
// The micro-kernel takes strides, so it reads full A panels and full,
// untransposed B strips where they lie. Only what it cannot stream is
// packed into workspace scratch: A panels that need alpha folded in or
// run past ihi, B strips that are transposed or run past jhi, and both
// when k == 0 leaves no element to point at.
func gemmKernel(transA, transB bool, m, n, k int, alpha float32, a, b, c []float32, ilo, ihi, jlo, jhi int) {
	// Element (i, p) of op(A) is a[i*ars + p*aps].
	ars, aps := k, 1
	if transA {
		ars, aps = 1, m
	}
	fold := !transB
	streamed := ilo + (ihi-ilo)/gemmMR*gemmMR // A panels before this row are read in place
	if (fold && alpha != 1) || k == 0 {
		streamed = ilo
	}
	packed := (ihi - streamed + gemmMR - 1) / gemmMR * gemmMR
	buf := GetScratch((packed + gemmNR) * k)
	ap, bp := (*buf)[:packed*k], (*buf)[packed*k:]
	for i := streamed; i < ihi; i += gemmMR {
		panel := ap[(i-streamed)*k : (i-streamed+gemmMR)*k]
		for r := 0; r < gemmMR; r++ {
			for p := 0; p < k; p++ {
				var v float32
				if i+r < ihi {
					v = a[(i+r)*ars+p*aps]
					if fold {
						v = alpha * v
					}
				}
				panel[p*gemmMR+r] = v
			}
		}
	}

	var tile [gemmMR * gemmNR]float32
	for jb := jlo; jb < jhi; jb += gemmNR {
		w := min(gemmNR, jhi-jb)
		bsrc, bs := bp, gemmNR
		switch {
		case !transB && w == gemmNR && k > 0:
			bsrc, bs = b[jb:], n
		case transB:
			if w < gemmNR {
				clear(bp)
			}
			packTransposed(bp, b[jb*k:], k, w)
		default:
			clear(bp)
			for p := 0; p < k; p++ {
				copy(bp[p*gemmNR:p*gemmNR+w], b[p*n+jb:p*n+jb+w])
			}
		}
		for i := ilo; i < ihi; i += gemmMR {
			h := min(gemmMR, ihi-i)
			asrc, rs, ps := a, ars, aps
			if i < streamed {
				asrc = a[i*ars:]
			} else {
				asrc, rs, ps = ap[(i-streamed)*k:], 1, gemmMR
			}
			if fold && h == gemmMR && w == gemmNR {
				microKernel(k, asrc, rs, ps, bsrc, bs, c[i*n+jb:], n)
				continue
			}
			tile = [gemmMR * gemmNR]float32{}
			if fold {
				for r := 0; r < h; r++ {
					copy(tile[r*gemmNR:r*gemmNR+w], c[(i+r)*n+jb:])
				}
			}
			microKernel(k, asrc, rs, ps, bsrc, bs, tile[:], gemmNR)
			for r := 0; r < h; r++ {
				ci := c[(i+r)*n+jb : (i+r)*n+jb+w]
				if fold {
					copy(ci, tile[r*gemmNR:])
					continue
				}
				for j := range ci {
					ci[j] += float32(alpha * tile[r*gemmNR+j])
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
// with no fused multiply-add, so all of them agree bit for bit.
func microKernel(k int, a []float32, ars, aps int, b []float32, bs int, c []float32, cs int) {
	if useAVX2 {
		microKernelAVX2(k, a, ars, aps, b, bs, c, cs)
		return
	}
	microKernelGo(k, a, ars, aps, b, bs, c, cs)
}

// useAVX2 selects the assembly micro-kernel. It is set once, from what
// the CPU reports; tests flip it to run both kernels.
var useAVX2 = cpuHasAVX2()

// microKernelGo is the portable micro-kernel, and the oracle the
// assembly one is tested against.
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
