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

// kernelNames names each micro-kernel as its subtest does. They are in
// order of width, and a CPU that has one has every one before it.
var kernelNames = [...]string{kernelGo: "go", kernelAVX2: "avx2", kernelAVX512: "avx512"}

// forEachKernel runs f once per micro-kernel, selecting it through
// kernel, and restores the CPU's choice afterwards. A kernel the CPU
// lacks is skipped.
func forEachKernel(t *testing.T, f func(t *testing.T)) {
	defer func(saved microKernelID) { kernel = saved }(kernel)
	for id, name := range kernelNames {
		t.Run(name, func(t *testing.T) {
			if microKernelID(id) > cpuKernel() {
				t.Skip("CPU has no " + name)
			}
			kernel = microKernelID(id)
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

	// Transposed-B multiplies on both sides of the rule that computes
	// Cᵀ = B·op(A)ᵀ when the range has fewer rows than columns: m < n,
	// m = n and m > n, with ragged panels and strips either way round.
	var ntCases []gemmCase
	for _, sh := range [][3]int{
		{5, 40, 13}, {13, 37, 9}, {16, 64, 20}, {24, 24, 9}, {17, 17, 70},
		{40, 5, 13}, {37, 13, 9}, {21, 19, 33}, {32, 800, 64}, {100, 60, 3},
	} {
		for _, transA := range []bool{false, true} {
			ntCases = append(ntCases, gemmCase{transA, true, sh[0], sh[1], sh[2]})
		}
	}

	// check runs Gemm, or GemmCols over the column ranges split cuts C
	// into, against refGemm.
	check := func(t *testing.T, tc gemmCase, alpha float32, a, b []float32, beta float32, c0 []float32, split ...int) {
		t.Helper()
		got := append([]float32(nil), c0...)
		want := append([]float32(nil), c0...)
		if split == nil {
			Gemm(tc.transA, tc.transB, tc.m, tc.n, tc.k, alpha, a, b, beta, got)
		}
		for s := 0; s+1 < len(split); s++ {
			GemmCols(tc.transA, tc.transB, tc.m, tc.n, tc.k, alpha, a, b, beta, got, split[s], split[s+1])
		}
		refGemm(tc.transA, tc.transB, tc.m, tc.n, tc.k, alpha, a, b, beta, want)
		for i := range want {
			if !sameFloat(got[i], want[i]) {
				t.Fatalf("Gemm(%+v α=%g β=%g split=%v): c[%d] = %g (%#x), reference %g (%#x)",
					tc, alpha, beta, split, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
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
		for _, tc := range ntCases {
			a, b, c0 := randSlice(rng, tc.m*tc.k), randSlice(rng, tc.k*tc.n), randSlice(rng, tc.m*tc.n)
			// Column ranges as Conv's weight-gradient fan-out passes
			// them, starting and ending mid-panel: some have fewer
			// columns than C has rows, some more.
			third := tc.n / 3
			for _, alpha := range []float32{1, 0.5, -1.25} {
				for _, beta := range []float32{0, 1, 0.3} {
					check(t, tc, alpha, a, b, beta, c0)
					check(t, tc, alpha, a, b, beta, c0, 0, third, tc.n-third/2-1, tc.n)
				}
			}
		}

		// Zero rows of A times Inf or NaN in B give NaN, and adding a
		// +0 product turns a −0 in C into +0: a kernel that skips an
		// all-zero A row leaves both untouched.
		inf, nan := float32(math.Inf(1)), float32(math.NaN())
		negZero := float32(math.Copysign(0, -1))
		// 6×19 takes the transposed-B path, 19×6 does not.
		for _, sh := range [][2]int{{6, 19}, {19, 6}} {
			for _, transA := range []bool{false, true} {
				for _, transB := range []bool{false, true} {
					tc := gemmCase{transA, transB, sh[0], sh[1], 5}
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
		}
	})
}

// checkMicroKernel compares a rows×gemmNR micro-kernel with 4-row
// microKernelGo calls, bit for bit, over k ∈ {0, 1, 2, 3, 17, 800} and
// every operand layout gemmKernel passes: a packed A panel and B strip,
// A row-major in place (NN/NT), A column-major in place (TN/TT), and B's
// rows in place as the A panel of a transposed-B multiply, against
// op(A)ᵀ in place (TT).
func checkMicroKernel(t *testing.T, rows int, kern func(k int, a []float32, ars, aps int, b []float32, bs int, c []float32, cs int)) {
	rng := rand.New(rand.NewSource(11))
	for _, k := range []int{0, 1, 2, 3, 17, 800} {
		for _, st := range [][3]int{
			{1, gemmMR, gemmNR},
			{k + rng.Intn(3), 1, gemmNR + rng.Intn(40)},
			{1, gemmMR + rng.Intn(40), gemmNR},
			{k, 1, gemmNR + rng.Intn(40)},
		} {
			ars, aps, bs := st[0], st[1], st[2]
			for _, cs := range []int{gemmNR, gemmNR + 1 + rng.Intn(40)} {
				a := randSlice(rng, rows*ars+k*aps+1)
				b := randSlice(rng, k*bs+gemmNR)
				c := randSlice(rng, rows*cs)
				want := append([]float32(nil), c...)
				kern(k, a, ars, aps, b, bs, c, cs)
				for r := 0; r < rows; r += 4 {
					microKernelGo(k, a[r*ars:], ars, aps, b, bs, want[r*cs:], cs)
				}
				for i := range want {
					if math.Float32bits(c[i]) != math.Float32bits(want[i]) {
						t.Fatalf("k=%d ars=%d aps=%d bs=%d cs=%d: c[%d] = %#x, Go kernel %#x",
							k, ars, aps, bs, cs, i, math.Float32bits(c[i]), math.Float32bits(want[i]))
					}
				}
			}
		}
	}
}

// TestMicroKernelAVX2MatchesGo is the direct differential test of the
// two 4-row micro-kernels.
func TestMicroKernelAVX2MatchesGo(t *testing.T) {
	if cpuKernel() < kernelAVX2 {
		t.Skip("CPU has no AVX2")
	}
	checkMicroKernel(t, 4, microKernelAVX2)
}

// TestMicroKernelAVX512MatchesGo compares the 8-row AVX-512 tile with
// the Go kernel run as two 4-row halves.
func TestMicroKernelAVX512MatchesGo(t *testing.T) {
	if cpuKernel() < kernelAVX512 {
		t.Skip("CPU has no AVX-512")
	}
	checkMicroKernel(t, gemmMR, microKernelAVX512)
}

// TestGemmDeterministicAcrossGOMAXPROCS pins the determinism contract:
// the same multiply must produce bit-identical output at any worker
// count, because every C element is accumulated by exactly one worker
// in a fixed order.
func TestGemmDeterministicAcrossGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []gemmCase{
		{false, false, 96, 550, 147}, // above the parallel threshold, ragged tiles
		{false, true, 96, 550, 147},
		// Serially m > n keeps the transposed-B rule off; split by rows,
		// each worker's range has fewer rows than columns and takes it.
		{false, true, 200, 150, 37},
	} {
		a, b := randSlice(rng, tc.m*tc.k), randSlice(rng, tc.k*tc.n)
		serial := make([]float32, tc.m*tc.n)
		prev := runtime.GOMAXPROCS(1)
		Gemm(tc.transA, tc.transB, tc.m, tc.n, tc.k, 1, a, b, 0, serial)
		runtime.GOMAXPROCS(prev)
		for _, procs := range []int{2, 4, runtime.NumCPU()} {
			par := make([]float32, tc.m*tc.n)
			prev := runtime.GOMAXPROCS(procs)
			Gemm(tc.transA, tc.transB, tc.m, tc.n, tc.k, 1, a, b, 0, par)
			runtime.GOMAXPROCS(prev)
			for i := range serial {
				if math.Float32bits(serial[i]) != math.Float32bits(par[i]) {
					t.Fatalf("%+v GOMAXPROCS=%d: c[%d] = %x, serial %x",
						tc, procs, i, math.Float32bits(par[i]), math.Float32bits(serial[i]))
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

// FuzzGemm checks Gemm, and GemmCols over a seeded split of C's
// columns, against refGemm bit for bit under every micro-kernel the CPU
// has: fuzzed transposes, m, n and k up to 70, alpha, beta and operand
// seed. Shapes on both sides of the transposed-B rule and of the
// parallel threshold (70×70 is above it) come up.
func FuzzGemm(f *testing.F) {
	f.Add(false, true, uint8(6), uint8(19), uint8(5), float32(1), float32(0), int64(1))
	f.Add(true, true, uint8(70), uint8(70), uint8(33), float32(-1.25), float32(0.3), int64(2))
	f.Add(false, false, uint8(9), uint8(17), uint8(0), float32(0.5), float32(1), int64(3))
	f.Fuzz(func(t *testing.T, transA, transB bool, m8, n8, k8 uint8, alpha, beta float32, seed int64) {
		m, n, k := int(m8%71), int(n8%71), int(k8%71)
		rng := rand.New(rand.NewSource(seed))
		a, b, c0 := randSlice(rng, m*k), randSlice(rng, k*n), randSlice(rng, m*n)
		want := append([]float32(nil), c0...)
		refGemm(transA, transB, m, n, k, alpha, a, b, beta, want)
		split := []int{0}
		for split[len(split)-1] < n {
			split = append(split, split[len(split)-1]+1+rng.Intn(n-split[len(split)-1]))
		}
		defer func(saved microKernelID) { kernel = saved }(kernel)
		for id := kernelGo; id <= cpuKernel(); id++ {
			kernel = id
			got := append([]float32(nil), c0...)
			Gemm(transA, transB, m, n, k, alpha, a, b, beta, got)
			cols := append([]float32(nil), c0...)
			for s := 0; s+1 < len(split); s++ {
				GemmCols(transA, transB, m, n, k, alpha, a, b, beta, cols, split[s], split[s+1])
			}
			for i := range want {
				if !sameFloat(got[i], want[i]) || !sameFloat(cols[i], want[i]) {
					t.Fatalf("%s kernel, transA=%v transB=%v %d×%d×%d α=%g β=%g split=%v: c[%d] = %#x (Gemm), %#x (GemmCols), reference %#x",
						kernelNames[id], transA, transB, m, n, k, alpha, beta, split, i,
						math.Float32bits(got[i]), math.Float32bits(cols[i]), math.Float32bits(want[i]))
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
