package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// refGemm is the independent reference the packed kernel is checked
// against: a per-element loop with no tiling, packing, or parallelism,
// accumulating each C element in ascending-p float32 order (the
// package's documented rounding contract). NN/TN fold alpha into each
// term; NT/TT accumulate the dot product first and scale once —
// matching the contract per trans case. Every product feeding an add is
// converted to float32, which the Go spec says forbids fusing the two
// into an FMA, so the reference rounds the same way on every GOARCH.
func refGemm(transA, transB bool, m, n, k int, alpha float32, a, b []float32, beta float32, c []float32) {
	at := func(i, p int) float32 {
		if transA {
			return a[p*m+i]
		}
		return a[i*k+p]
	}
	bt := func(p, j int) float32 {
		if transB {
			return b[j*k+p]
		}
		return b[p*n+j]
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var v float32
			if beta != 0 {
				v = beta * c[i*n+j]
			}
			if !transB {
				for p := 0; p < k; p++ {
					v += float32((alpha * at(i, p)) * bt(p, j))
				}
			} else {
				var acc float32
				for p := 0; p < k; p++ {
					acc += float32(at(i, p) * bt(p, j))
				}
				v += float32(alpha * acc)
			}
			c[i*n+j] = v
		}
	}
}

func randSlice(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = rng.Float32()*2 - 1
	}
	return s
}

// sameFloat is bit equality, except that any two NaNs match: which NaN
// payload survives an operation is the hardware's choice, not the
// contract's.
func sameFloat(x, y float32) bool {
	return math.Float32bits(x) == math.Float32bits(y) || (x != x && y != y)
}

// forEachKernel runs f once per micro-kernel, selecting it through
// useAVX2, and restores the CPU's choice afterwards.
func forEachKernel(t *testing.T, f func(t *testing.T)) {
	defer func(saved bool) { useAVX2 = saved }(useAVX2)
	for _, avx := range []bool{false, true} {
		name := "go"
		if avx {
			name = "avx2"
		}
		t.Run(name, func(t *testing.T) {
			if avx && !cpuHasAVX2() {
				t.Skip("CPU has no AVX2")
			}
			useAVX2 = avx
			f(t)
		})
	}
}

// gemmCase is one multiply: op(A) is m×k, op(B) k×n.
type gemmCase struct {
	transA, transB bool
	m, n, k        int
}

// modelGemmCases are the multiplies the real models lower onto, written
// out because the models package imports this one. A conv layer runs
// forward NN (outC×spatial×CKK), weight-gradient NT (outC×CKK×spatial)
// and input-gradient TN (CKK×spatial×outC) per sample; an inner-product
// layer, at a per-GPU batch of 16, runs forward NT, weight-gradient TN
// and input-gradient NN.
func modelGemmCases() []gemmCase {
	var cs []gemmCase
	conv := func(outC, ckk, spatial int) {
		cs = append(cs, gemmCase{false, false, outC, spatial, ckk},
			gemmCase{false, true, outC, ckk, spatial},
			gemmCase{true, false, ckk, spatial, outC})
	}
	fc := func(in, out int) {
		const batch = 16
		cs = append(cs, gemmCase{false, true, batch, out, in},
			gemmCase{true, false, out, in, batch},
			gemmCase{false, false, batch, in, out})
	}
	conv(4, 27, 64) // tiny
	fc(64, 16)
	fc(16, 4)
	conv(20, 25, 576) // lenet
	conv(50, 500, 64)
	fc(800, 500)
	fc(500, 10)
	conv(32, 75, 1024) // cifar10-quick
	conv(32, 800, 256)
	conv(64, 800, 64)
	fc(1024, 64)
	fc(64, 10)
	return cs
}

// TestGemmMatchesReference checks Gemm against refGemm, bit for bit,
// with each micro-kernel: ragged shapes crossing the tile, strip and
// parallel-threshold boundaries in all four transpose cases, k = 0,
// m < gemmMR and n < gemmNR, every multiply of the tiny, lenet and
// cifar10-quick nets, and non-finite B against zero rows of A.
func TestGemmMatchesReference(t *testing.T) {
	var cases []gemmCase
	for _, sh := range [][3]int{
		{1, 1, 1}, {3, 5, 7}, {4, 4, 4}, {5, 9, 3}, {7, 513, 11},
		{8, 512, 16}, {9, 1025, 5}, {13, 130, 33}, {64, 65, 40},
		{66, 700, 12}, {127, 64, 65}, {130, 33, 129},
		{5, 20, 0}, {4, 16, 0}, {80, 80, 0}, {1, 40, 9}, {3, 17, 5},
		{9, 15, 7}, {8, 1, 33}, {2, 3, 200},
	} {
		for _, transA := range []bool{false, true} {
			for _, transB := range []bool{false, true} {
				cases = append(cases, gemmCase{transA, transB, sh[0], sh[1], sh[2]})
			}
		}
	}
	cases = append(cases,
		gemmCase{false, false, 3, 4, 5}, gemmCase{false, true, 4, 3, 6},
		gemmCase{true, false, 5, 2, 3}, gemmCase{true, true, 2, 5, 4},
		gemmCase{false, false, 65, 70, 33}, gemmCase{false, true, 128, 64, 32},
		gemmCase{true, false, 64, 128, 16})
	cases = append(cases, modelGemmCases()...)

	check := func(t *testing.T, tc gemmCase, alpha float32, a, b []float32, beta float32, c0 []float32) {
		t.Helper()
		got := append([]float32(nil), c0...)
		want := append([]float32(nil), c0...)
		Gemm(tc.transA, tc.transB, tc.m, tc.n, tc.k, alpha, a, b, beta, got)
		refGemm(tc.transA, tc.transB, tc.m, tc.n, tc.k, alpha, a, b, beta, want)
		for i := range want {
			if !sameFloat(got[i], want[i]) {
				t.Fatalf("Gemm(%+v α=%g β=%g): c[%d] = %g (%#x), reference %g (%#x)",
					tc, alpha, beta, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
			}
		}
	}
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(42))
		coeffs := []float32{0, 1, 0.5, -2, 0.7, 0.3}
		for _, tc := range cases {
			alpha := coeffs[rng.Intn(len(coeffs))]
			beta := coeffs[rng.Intn(len(coeffs))]
			check(t, tc, alpha, randSlice(rng, tc.m*tc.k), randSlice(rng, tc.k*tc.n), beta, randSlice(rng, tc.m*tc.n))
		}

		// Zero rows of A times Inf or NaN in B give NaN, and adding a
		// +0 product turns a −0 in C into +0: a kernel that skips an
		// all-zero A row leaves both untouched.
		inf, nan := float32(math.Inf(1)), float32(math.NaN())
		negZero := float32(math.Copysign(0, -1))
		for _, transA := range []bool{false, true} {
			for _, transB := range []bool{false, true} {
				tc := gemmCase{transA, transB, 6, 19, 5}
				b := randSlice(rng, tc.k*tc.n)
				b[0], b[7], b[len(b)-1] = inf, nan, -inf
				c0 := make([]float32, tc.m*tc.n)
				for i := range c0 {
					c0[i] = negZero
				}
				for _, alpha := range []float32{1, 0.5} {
					check(t, tc, alpha, make([]float32, tc.m*tc.k), b, 1, c0)
				}
			}
		}
	})
}

// TestMicroKernelAVX2MatchesGo is the direct differential test of the
// two micro-kernels: the same tile, strides and k, compared bit for bit.
func TestMicroKernelAVX2MatchesGo(t *testing.T) {
	if !cpuHasAVX2() {
		t.Skip("CPU has no AVX2")
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		k := []int{0, 1, 2, 3, 17, 800}[rng.Intn(6)]
		// A panels as gemmKernel passes them: packed, row-major in
		// place (NN/NT) and column-major in place (TN/TT).
		ars, aps := 1, gemmMR
		switch rng.Intn(3) {
		case 1:
			ars, aps = k+rng.Intn(3), 1
		case 2:
			ars, aps = 1, gemmMR+rng.Intn(40)
		}
		bs := gemmNR + rng.Intn(3)*rng.Intn(40)
		cs := gemmNR + rng.Intn(3)*rng.Intn(40)
		a := randSlice(rng, gemmMR*ars+k*aps)
		b := randSlice(rng, k*bs+gemmNR)
		c := randSlice(rng, gemmMR*cs)
		want := append([]float32(nil), c...)
		microKernelAVX2(k, a, ars, aps, b, bs, c, cs)
		microKernelGo(k, a, ars, aps, b, bs, want, cs)
		for i := range want {
			if math.Float32bits(c[i]) != math.Float32bits(want[i]) {
				t.Fatalf("k=%d ars=%d aps=%d bs=%d cs=%d: c[%d] = %#x, Go kernel %#x",
					k, ars, aps, bs, cs, i, math.Float32bits(c[i]), math.Float32bits(want[i]))
			}
		}
	}
}

// TestGemmDeterministicAcrossGOMAXPROCS pins the determinism contract:
// the same multiply must produce bit-identical output at any worker
// count, because every C element is accumulated by exactly one worker
// in a fixed order.
func TestGemmDeterministicAcrossGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const m, n, k = 96, 550, 147 // above the parallel threshold, ragged tiles
	a := randSlice(rng, m*k)
	b := randSlice(rng, k*n)
	for _, transB := range []bool{false, true} {
		bb := b
		if transB {
			bb = randSlice(rng, n*k)
		}
		serial := make([]float32, m*n)
		prev := runtime.GOMAXPROCS(1)
		Gemm(false, transB, m, n, k, 1, a, bb, 0, serial)
		runtime.GOMAXPROCS(prev)
		for _, procs := range []int{2, 4, runtime.NumCPU()} {
			par := make([]float32, m*n)
			prev := runtime.GOMAXPROCS(procs)
			Gemm(false, transB, m, n, k, 1, a, bb, 0, par)
			runtime.GOMAXPROCS(prev)
			for i := range serial {
				if math.Float32bits(serial[i]) != math.Float32bits(par[i]) {
					t.Fatalf("transB=%v GOMAXPROCS=%d: c[%d] = %x, serial %x",
						transB, procs, i, math.Float32bits(par[i]), math.Float32bits(serial[i]))
				}
			}
		}
	}
}

// TestGemmColsSplitMatchesGemm: GemmCols over any split of C's columns
// into ranges, with each micro-kernel, gives Gemm's bits — the column
// range a weight-gradient fan-out body multiplies.
func TestGemmColsSplitMatchesGemm(t *testing.T) {
	cases := append(modelGemmCases(), gemmCase{false, true, 5, 37, 9}, gemmCase{true, true, 7, 70, 3})
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		for _, tc := range cases {
			alpha, beta := []float32{1, 0.5}[rng.Intn(2)], []float32{0, 1, -2}[rng.Intn(3)]
			a, b := randSlice(rng, tc.m*tc.k), randSlice(rng, tc.k*tc.n)
			want := randSlice(rng, tc.m*tc.n)
			got := append([]float32(nil), want...)
			Gemm(tc.transA, tc.transB, tc.m, tc.n, tc.k, alpha, a, b, beta, want)
			for lo := 0; lo < tc.n; {
				hi := lo + 1 + rng.Intn(tc.n-lo)
				GemmCols(tc.transA, tc.transB, tc.m, tc.n, tc.k, alpha, a, b, beta, got, lo, hi)
				lo = hi
			}
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("%+v α=%g β=%g: c[%d] = %#x, Gemm %#x", tc, alpha, beta, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
				}
			}
		}
	})
}

// TestGetScratchReuse checks the workspace pool's contract: capacity
// grows to the requested size and buffers round-trip through the pool.
func TestGetScratchReuse(t *testing.T) {
	p := GetScratch(100)
	if len(*p) != 100 {
		t.Fatalf("GetScratch(100) gave len %d", len(*p))
	}
	PutScratch(p)
	q := GetScratch(10)
	if len(*q) != 10 {
		t.Fatalf("GetScratch(10) gave len %d", len(*q))
	}
	PutScratch(q)
}
