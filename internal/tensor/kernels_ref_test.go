package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// refReLUForward and refReLUBackward are the ReLU kernels as a branch on
// a float compare: the oracles for the branch-free masks.
func refReLUForward(in, out []float32) {
	for i, v := range in {
		if v > 0 {
			out[i] = v
		} else {
			out[i] = 0
		}
	}
}

func refReLUBackward(in, gradOut, gradIn []float32) {
	for i := range gradOut {
		if in[i] > 0 {
			gradIn[i] = gradOut[i]
		} else {
			gradIn[i] = 0
		}
	}
}

// refIm2colRows is Im2colRows as one clear and one copy per output row
// of each kernel offset: the oracle for the one-copy plane.
func refIm2colRows(g ConvGeom, img []float32, col []float32, lo, hi int) {
	outH, outW := g.OutH(), g.OutW()
	plane := outH * outW
	for r := lo; r < hi; r++ {
		chn := img[r/(g.KernelH*g.KernelW)*g.InH*g.InW:]
		kh, kw := r/g.KernelW%g.KernelH, r%g.KernelW
		ohLo, ohHi := inBounds(outH, g.StrideH, kh-g.PadH, g.InH)
		owLo, owHi := inBounds(outW, g.StrideW, kw-g.PadW, g.InW)
		dst := col[r*plane : (r+1)*plane]
		clear(dst)
		for oh := ohLo; oh < ohHi && owLo < owHi; oh++ {
			src := chn[(oh*g.StrideH+kh-g.PadH)*g.InW+owLo*g.StrideW+kw-g.PadW:]
			row := dst[oh*outW+owLo : oh*outW+owHi]
			for i := range row {
				row[i] = src[i*g.StrideW]
			}
		}
	}
}

// specialSlice returns n floats mixing random values with NaN (both
// signs), ±0, ±Inf and ± denormals.
func specialSlice(rng *rand.Rand, n int) []float32 {
	special := []float32{
		float32(math.NaN()), math.Float32frombits(0xffc00001),
		float32(math.Inf(1)), float32(math.Inf(-1)),
		0, float32(math.Copysign(0, -1)),
		math.Float32frombits(1), math.Float32frombits(0x807fffff),
	}
	x := make([]float32, n)
	for i := range x {
		if rng.Intn(3) == 0 {
			x[i] = special[rng.Intn(len(special))]
		} else {
			x[i] = rng.Float32()*2 - 1
		}
	}
	return x
}

func firstDiff(got, want []float32) int {
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return i
		}
	}
	return -1
}

// TestReLUMatchesReference holds the masked ReLU kernels to the
// branching ones bit for bit on every special value, every denormal and
// NaN pattern included.
func TestReLUMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		in, g := specialSlice(rng, n), specialSlice(rng, n)
		got, want := make([]float32, n), make([]float32, n)
		ReLUForward(in, got)
		refReLUForward(in, want)
		if i := firstDiff(got, want); i >= 0 {
			t.Fatalf("ReLUForward(%#x) = %#x, reference %#x",
				math.Float32bits(in[i]), math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
		ReLUBackward(in, g, got)
		refReLUBackward(in, g, want)
		if i := firstDiff(got, want); i >= 0 {
			t.Fatalf("ReLUBackward(in %#x, grad %#x) = %#x, reference %#x", math.Float32bits(in[i]),
				math.Float32bits(g[i]), math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
	// Every sign, exponent and the mantissa's ends, exhaustively.
	var in []float32
	for _, hi := range []uint32{0, 1, 0x7f, 0x80, 0x81, 0xff, 0x100, 0x17f, 0x180, 0x1fe, 0x1ff} {
		for _, lo := range []uint32{0, 1, 0x400000, 0x7fffff} {
			in = append(in, math.Float32frombits(hi<<23|lo))
		}
	}
	got, want := make([]float32, len(in)), make([]float32, len(in))
	ReLUForward(in, got)
	refReLUForward(in, want)
	if i := firstDiff(got, want); i >= 0 {
		t.Fatalf("ReLUForward(%#x) = %#x, reference %#x",
			math.Float32bits(in[i]), math.Float32bits(got[i]), math.Float32bits(want[i]))
	}
}

// TestIm2colRowsMatchesReference holds Im2colRows to the per-row
// reference bit for bit over random geometries (kernel 1–5, stride 1–3,
// pad 0–2, H and W 1–33; every other one at stride 1 with outW == InW,
// the one-copy case) and random row ranges. Rows outside the range
// must keep what they held.
func TestIm2colRowsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	shifted := 0
	for trial := 0; trial < 600; trial++ {
		g := ConvGeom{
			InC: 1 + rng.Intn(3), InH: 1 + rng.Intn(33), InW: 1 + rng.Intn(33),
			KernelH: 1 + rng.Intn(5), KernelW: 1 + rng.Intn(5),
			StrideH: 1 + rng.Intn(3), StrideW: 1 + rng.Intn(3),
			PadH: rng.Intn(3), PadW: rng.Intn(3),
		}
		if trial%2 == 0 {
			g.StrideH, g.StrideW = 1, 1
			g.KernelW = 1 + 2*rng.Intn(3) // 1, 3, 5
			g.PadW = g.KernelW / 2        // outW == InW
		}
		if g.InH+2*g.PadH < g.KernelH || g.InW+2*g.PadW < g.KernelW {
			continue
		}
		if g.StrideH == 1 && g.StrideW == 1 && g.OutW() == g.InW {
			shifted++
		}
		img := specialSlice(rng, g.InC*g.InH*g.InW)
		rows := g.InC * g.KernelH * g.KernelW
		lo := rng.Intn(rows)
		hi := lo + 1 + rng.Intn(rows-lo)
		nCol := rows * g.OutH() * g.OutW()
		got := specialSlice(rng, nCol)
		want := append([]float32(nil), got...)
		Im2colRows(g, img, got, lo, hi)
		refIm2colRows(g, img, want, lo, hi)
		if i := firstDiff(got, want); i >= 0 {
			t.Fatalf("%+v rows [%d, %d): col[%d] = %#x, reference %#x", g, lo, hi, i,
				math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
	if shifted < 200 {
		t.Fatalf("only %d trials took the one-copy path", shifted)
	}
}
