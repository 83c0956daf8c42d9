package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewGeometry(t *testing.T) {
	a := New(2, 3, 4)
	if a.Len() != 24 || len(a.Data) != 24 || a.Dims[1] != 3 {
		t.Fatalf("bad geometry: len=%d data=%d dims=%v", a.Len(), len(a.Data), a.Dims)
	}
}

func TestCloneZeroFill(t *testing.T) {
	a := New(4)
	a.Fill(3)
	c := a.Clone()
	a.Zero()
	if c.Data[2] != 3 || a.Data[2] != 0 {
		t.Error("Clone/Zero interaction wrong")
	}
}

func TestGemmProperty(t *testing.T) {
	// Property: Gemm with beta=0, alpha=1 is linear in A.
	rng := rand.New(rand.NewSource(9))
	f := func(seed uint16) bool {
		r := rand.New(rand.NewSource(int64(seed)))
		m, n, k := 1+r.Intn(8), 1+r.Intn(8), 1+r.Intn(8)
		a1 := make([]float32, m*k)
		a2 := make([]float32, m*k)
		b := make([]float32, k*n)
		for i := range a1 {
			a1[i], a2[i] = r.Float32(), r.Float32()
		}
		for i := range b {
			b[i] = r.Float32()
		}
		sum := make([]float32, m*k)
		for i := range sum {
			sum[i] = a1[i] + a2[i]
		}
		c1 := make([]float32, m*n)
		c2 := make([]float32, m*n)
		cs := make([]float32, m*n)
		Gemm(false, false, m, n, k, 1, a1, b, 0, c1)
		Gemm(false, false, m, n, k, 1, a2, b, 0, c2)
		Gemm(false, false, m, n, k, 1, sum, b, 0, cs)
		for i := range cs {
			if math.Abs(float64(cs[i]-(c1[i]+c2[i]))) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestIm2colRoundTripGeometry(t *testing.T) {
	g := ConvGeom{InC: 2, InH: 5, InW: 5, KernelH: 3, KernelW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}
	if g.OutH() != 3 || g.OutW() != 3 {
		t.Fatalf("out = %dx%d, want 3x3", g.OutH(), g.OutW())
	}
	img := make([]float32, 2*5*5)
	for i := range img {
		img[i] = float32(i)
	}
	col := make([]float32, 2*3*3*3*3)
	Im2col(g, img, col)
	// Center output (oh=1, ow=1) with kh=1,kw=1 should read the pixel
	// at (h,w) = (1*2-1+1, 1*2-1+1) = (2,2) of channel 0 => index 12.
	idx := ((0*3+1)*3+1)*9 + 1*3 + 1 // c=0, kh=1, kw=1, oh=1, ow=1
	if col[idx] != 12 {
		t.Errorf("im2col center sample = %v, want 12", col[idx])
	}
}

func TestIm2colCol2imAdjoint(t *testing.T) {
	// <col, Im2col(x)> == <Col2im(col), x> for all x, col — the
	// defining property of an adjoint pair, which is exactly what the
	// convolution backward pass relies on.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		g := ConvGeom{
			InC: 1 + rng.Intn(3), InH: 3 + rng.Intn(5), InW: 3 + rng.Intn(5),
			KernelH: 1 + rng.Intn(3), KernelW: 1 + rng.Intn(3),
			StrideH: 1 + rng.Intn(2), StrideW: 1 + rng.Intn(2),
			PadH: rng.Intn(2), PadW: rng.Intn(2),
		}
		if g.OutH() < 1 || g.OutW() < 1 {
			continue
		}
		nImg := g.InC * g.InH * g.InW
		nCol := g.InC * g.KernelH * g.KernelW * g.OutH() * g.OutW()
		x := make([]float32, nImg)
		colRand := make([]float32, nCol)
		for i := range x {
			x[i] = rng.Float32()*2 - 1
		}
		for i := range colRand {
			colRand[i] = rng.Float32()*2 - 1
		}
		colX := make([]float32, nCol)
		Im2col(g, x, colX)
		var lhs float64
		for i := range colX {
			lhs += float64(colRand[i]) * float64(colX[i])
		}
		back := make([]float32, nImg)
		Col2im(g, colRand, back)
		var rhs float64
		for i := range back {
			rhs += float64(back[i]) * float64(x[i])
		}
		if math.Abs(lhs-rhs) > 1e-3*(1+math.Abs(lhs)) {
			t.Fatalf("geom %+v: adjoint mismatch %v vs %v", g, lhs, rhs)
		}
	}
}

// TestIm2colCol2imMatchReference checks both functions bit for bit
// against per-element references over random geometries: strides 1–3,
// pads 0–2, non-square kernels and images. Im2colRows over a random
// split of the rows must rebuild the same matrix. Col2im accumulates
// into a non-zero image, so its order of additions is checked too.
func TestIm2colCol2imMatchReference(t *testing.T) {
	refIm2col := func(g ConvGeom, img, col []float32) {
		idx := 0
		for c := 0; c < g.InC; c++ {
			for kh := 0; kh < g.KernelH; kh++ {
				for kw := 0; kw < g.KernelW; kw++ {
					for oh := 0; oh < g.OutH(); oh++ {
						for ow := 0; ow < g.OutW(); ow++ {
							ih, iw := oh*g.StrideH-g.PadH+kh, ow*g.StrideW-g.PadW+kw
							col[idx] = 0
							if ih >= 0 && ih < g.InH && iw >= 0 && iw < g.InW {
								col[idx] = img[(c*g.InH+ih)*g.InW+iw]
							}
							idx++
						}
					}
				}
			}
		}
	}
	refCol2im := func(g ConvGeom, col, img []float32) {
		idx := 0
		for c := 0; c < g.InC; c++ {
			for kh := 0; kh < g.KernelH; kh++ {
				for kw := 0; kw < g.KernelW; kw++ {
					for oh := 0; oh < g.OutH(); oh++ {
						for ow := 0; ow < g.OutW(); ow++ {
							ih, iw := oh*g.StrideH-g.PadH+kh, ow*g.StrideW-g.PadW+kw
							if ih >= 0 && ih < g.InH && iw >= 0 && iw < g.InW {
								img[(c*g.InH+ih)*g.InW+iw] += col[idx]
							}
							idx++
						}
					}
				}
			}
		}
	}
	same := func(got, want []float32) int {
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				return i
			}
		}
		return -1
	}
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		g := ConvGeom{
			InC: 1 + rng.Intn(3), InH: 1 + rng.Intn(12), InW: 1 + rng.Intn(12),
			KernelH: 1 + rng.Intn(5), KernelW: 1 + rng.Intn(5),
			StrideH: 1 + rng.Intn(3), StrideW: 1 + rng.Intn(3),
			PadH: rng.Intn(3), PadW: rng.Intn(3),
		}
		if g.InH+2*g.PadH < g.KernelH || g.InW+2*g.PadW < g.KernelW {
			continue
		}
		img := randSlice(rng, g.InC*g.InH*g.InW)
		nCol := g.InC * g.KernelH * g.KernelW * g.OutH() * g.OutW()
		got, want := randSlice(rng, nCol), make([]float32, nCol)
		Im2col(g, img, got)
		refIm2col(g, img, want)
		if i := same(got, want); i >= 0 {
			t.Fatalf("Im2col %+v: col[%d] = %g, reference %g", g, i, got[i], want[i])
		}
		// Any split of the rows into ranges rebuilds the whole matrix.
		rows := g.InC * g.KernelH * g.KernelW
		split := randSlice(rng, nCol)
		for lo := 0; lo < rows; {
			hi := lo + 1 + rng.Intn(rows-lo)
			Im2colRows(g, img, split, lo, hi)
			lo = hi
		}
		if i := same(split, want); i >= 0 {
			t.Fatalf("Im2colRows %+v: col[%d] = %g, reference %g", g, i, split[i], want[i])
		}
		col := randSlice(rng, nCol)
		back := append([]float32(nil), img...)
		Col2im(g, col, img)
		refCol2im(g, col, back)
		if i := same(img, back); i >= 0 {
			t.Fatalf("Col2im %+v: img[%d] = %g, reference %g", g, i, img[i], back[i])
		}
	}
}

func TestReLU(t *testing.T) {
	in := []float32{-1, 0, 2}
	out := make([]float32, 3)
	ReLUForward(in, out)
	if out[0] != 0 || out[1] != 0 || out[2] != 2 {
		t.Errorf("relu = %v", out)
	}
	g := []float32{5, 5, 5}
	gi := make([]float32, 3)
	ReLUBackward(in, g, gi)
	if gi[0] != 0 || gi[1] != 0 || gi[2] != 5 {
		t.Errorf("relu' = %v", gi)
	}
}

func TestSoftmaxRow(t *testing.T) {
	row := []float32{1, 2, 3}
	SoftmaxRow(row)
	var sum float64
	for _, v := range row {
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-5 {
		t.Errorf("softmax sums to %v", sum)
	}
	if !(row[2] > row[1] && row[1] > row[0]) {
		t.Errorf("softmax not monotone: %v", row)
	}
	// Large logits must not overflow.
	big := []float32{1000, 1001, 999}
	SoftmaxRow(big)
	if math.IsNaN(float64(big[0])) || math.IsInf(float64(big[1]), 0) {
		t.Error("softmax overflowed on large logits")
	}
}

func TestSoftmaxCrossEntropyGradient(t *testing.T) {
	// Numerical gradient check of the combined softmax+CE.
	const batch, classes = 3, 5
	rng := rand.New(rand.NewSource(7))
	logits := make([]float32, batch*classes)
	for i := range logits {
		logits[i] = rng.Float32()*2 - 1
	}
	labels := []int{1, 4, 0}
	lossAt := func(l []float32) float64 {
		cp := append([]float32(nil), l...)
		g := make([]float32, len(l))
		return float64(SoftmaxCrossEntropy(cp, batch, classes, labels, g))
	}
	grad := make([]float32, batch*classes)
	cp := append([]float32(nil), logits...)
	SoftmaxCrossEntropy(cp, batch, classes, labels, grad)
	const eps = 1e-2
	for i := range logits {
		plus := append([]float32(nil), logits...)
		minus := append([]float32(nil), logits...)
		plus[i] += eps
		minus[i] -= eps
		num := (lossAt(plus) - lossAt(minus)) / (2 * eps)
		ana := float64(grad[i]) / batch // grad is unnormalized; loss is mean
		if math.Abs(num-ana) > 1e-3 {
			t.Fatalf("logit %d: numeric %g vs analytic %g", i, num, ana)
		}
	}
}

func TestAccuracy(t *testing.T) {
	probs := []float32{
		0.9, 0.1, // -> 0
		0.2, 0.8, // -> 1
		0.6, 0.4, // -> 0
	}
	if acc := Accuracy(probs, 3, 2, []int{0, 1, 1}); math.Abs(acc-2.0/3) > 1e-9 {
		t.Errorf("accuracy = %v", acc)
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	b := FromSlice([]float32{1, 2.5, 2}, 3)
	if d := MaxAbsDiff(a, b); math.Abs(d-1) > 1e-9 {
		t.Errorf("MaxAbsDiff = %v, want 1", d)
	}
}

func TestInitializers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := New(10000)
	b.XavierInit(rng, 300)
	lim := math.Sqrt(3.0 / 300)
	for _, v := range b.Data {
		if float64(v) > lim || float64(v) < -lim {
			t.Fatalf("xavier sample %v outside [-%v, %v]", v, lim, lim)
		}
	}
}

func TestConstructorPanics(t *testing.T) {
	check := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		fn()
	}
	check("New with zero dim", func() { New(3, 0) })
	check("FromSlice length mismatch", func() { FromSlice([]float32{1, 2}, 3) })
	check("CopyFrom mismatch", func() { New(2).CopyFrom(New(3)) })
	check("MaxAbsDiff mismatch", func() { MaxAbsDiff(New(2), New(3)) })
	check("Gemm small C", func() {
		Gemm(false, false, 2, 2, 2, 1, make([]float32, 4), make([]float32, 4), 0, make([]float32, 3))
	})
}

func TestGemmBetaOne(t *testing.T) {
	a := []float32{1, 0, 0, 1} // identity
	b := []float32{3, 4, 5, 6}
	c := []float32{10, 10, 10, 10}
	Gemm(false, false, 2, 2, 2, 1, a, b, 1, c) // c += I*b
	want := []float32{13, 14, 15, 16}
	for i := range want {
		if c[i] != want[i] {
			t.Fatalf("beta=1 accumulate: %v", c)
		}
	}
}
