package layers

import (
	"math"
	"math/rand"
	"testing"

	"scaffe/internal/tensor"
)

// gradCheck verifies a layer's input gradient against central finite
// differences, using L = Σ w_i·out_i as the scalar loss (w random). An
// in-place layer overwrites what it is given, so every Forward gets a
// fresh copy of the input and Backward a copy of w.
func gradCheck(t *testing.T, l Layer, in Shape, batch int) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	l.Setup(in, batch, rng)
	x := tensor.New(batch, in.C, in.H, in.W)
	for i := range x.Data {
		x.Data[i] = rng.Float32()*2 - 1
	}
	forward := func() *tensor.Tensor { return l.Forward(x.Clone()) }
	out := forward()
	w := make([]float32, out.Len())
	for i := range w {
		w[i] = rng.Float32()*2 - 1
	}
	loss := func(o *tensor.Tensor) float64 {
		var s float64
		for i, v := range o.Data {
			s += float64(w[i]) * float64(v)
		}
		return s
	}
	gradOut := tensor.FromSlice(append([]float32(nil), w...), out.Dims...)
	gradIn := l.Backward(gradOut)

	const eps = 1e-2
	checked := 0
	for i := 0; i < x.Len(); i += 1 + x.Len()/64 { // sample positions
		orig := x.Data[i]
		x.Data[i] = orig + eps
		lp := loss(forward())
		x.Data[i] = orig - eps
		lm := loss(forward())
		x.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		ana := float64(gradIn.Data[i])
		if math.Abs(num-ana) > 2e-2*(1+math.Abs(num)) {
			t.Fatalf("%s input grad [%d]: numeric %g vs analytic %g", l.Name(), i, num, ana)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("gradient check sampled no positions")
	}
	// Restore forward state for callers that also check params.
	forward()
}

// paramGradCheck verifies parameter gradients similarly, with the same
// copies as gradCheck.
func paramGradCheck(t *testing.T, l Layer, in Shape, batch int) {
	t.Helper()
	rng := rand.New(rand.NewSource(43))
	l.Setup(in, batch, rng)
	x := tensor.New(batch, in.C, in.H, in.W)
	for i := range x.Data {
		x.Data[i] = rng.Float32()*2 - 1
	}
	forward := func() *tensor.Tensor { return l.Forward(x.Clone()) }
	out := forward()
	w := make([]float32, out.Len())
	for i := range w {
		w[i] = rng.Float32()*2 - 1
	}
	loss := func() float64 {
		o := forward()
		var s float64
		for i, v := range o.Data {
			s += float64(w[i]) * float64(v)
		}
		return s
	}
	for _, g := range l.Grads() {
		g.Zero()
	}
	forward()
	l.Backward(tensor.FromSlice(append([]float32(nil), w...), out.Dims...))

	const eps = 1e-2
	for pi, p := range l.Params() {
		g := l.Grads()[pi]
		for i := 0; i < p.Len(); i += 1 + p.Len()/32 {
			orig := p.Data[i]
			p.Data[i] = orig + eps
			lp := loss()
			p.Data[i] = orig - eps
			lm := loss()
			p.Data[i] = orig
			num := (lp - lm) / (2 * eps)
			ana := float64(g.Data[i])
			if math.Abs(num-ana) > 3e-2*(1+math.Abs(num)) {
				t.Fatalf("%s param %d grad [%d]: numeric %g vs analytic %g", l.Name(), pi, i, num, ana)
			}
		}
	}
}

func TestConvGradients(t *testing.T) {
	in := Shape{C: 2, H: 6, W: 6}
	gradCheck(t, NewConv("conv", 3, 3, 1, 1), in, 2)
	paramGradCheck(t, NewConv("conv", 3, 3, 1, 1), in, 2)
}

func TestConvStridedGradients(t *testing.T) {
	in := Shape{C: 2, H: 7, W: 7}
	gradCheck(t, NewConv("conv", 2, 3, 2, 0), in, 2)
	paramGradCheck(t, NewConv("conv", 2, 3, 2, 0), in, 2)
}

func TestInnerProductGradients(t *testing.T) {
	in := Shape{C: 3, H: 4, W: 4}
	gradCheck(t, NewInnerProduct("ip", 7), in, 3)
	paramGradCheck(t, NewInnerProduct("ip", 7), in, 3)
}

func TestReLUGradients(t *testing.T) {
	gradCheck(t, NewReLU("relu"), Shape{C: 2, H: 5, W: 5}, 2)
}

func TestMaxPoolGradients(t *testing.T) {
	gradCheck(t, NewMaxPool("pool", 2, 2), Shape{C: 2, H: 6, W: 6}, 2)
}

func TestAvgPoolGradients(t *testing.T) {
	gradCheck(t, NewAvgPool("pool", 3, 2), Shape{C: 2, H: 7, W: 7}, 2)
}

func TestLRNGradients(t *testing.T) {
	gradCheck(t, NewLRN("lrn", 5, 1e-2, 0.75), Shape{C: 8, H: 3, W: 3}, 2)
}

// TestLRNBackwardBitIdentical holds LRN.Backward, which computes each
// scale^−β once per (sample, pixel, channel), bit for bit to the
// channel-major formula that recomputed it for the direct term and again
// for every cross term, on AlexNet's norm1 shape at batch 2.
func TestLRNBackwardBitIdentical(t *testing.T) {
	const batch = 2
	in := Shape{C: 96, H: 55, W: 55}
	l := NewLRN("norm1", 5, 1e-4, 0.75)
	rng := rand.New(rand.NewSource(11))
	l.Setup(in, batch, rng)
	x := tensor.New(batch, in.C, in.H, in.W)
	gradOut := tensor.New(batch, in.C, in.H, in.W)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64() * 20)
		gradOut.Data[i] = float32(rng.NormFloat64())
	}
	l.Forward(x)
	want := make([]float32, len(x.Data))
	hw := in.H * in.W
	an := float32(l.Alpha / float64(l.Size))
	beta := float32(l.Beta)
	for b := 0; b < batch; b++ {
		off := b * in.Elems()
		for c := 0; c < in.C; c++ {
			lo, hi := l.window(c)
			for i := 0; i < hw; i++ {
				idx := off + c*hw + i
				s := l.scale[idx]
				pw := float32(math.Pow(float64(s), -l.Beta))
				want[idx] += float32(gradOut.Data[idx] * pw)
				for cc := lo; cc <= hi; cc++ {
					kdx := off + cc*hw + i
					scc := l.scale[kdx]
					pwc := float32(math.Pow(float64(scc), -l.Beta))
					want[idx] += float32(gradOut.Data[kdx] *
						(-2 * beta * an * x.Data[kdx] * x.Data[idx] * pwc / scc))
				}
			}
		}
	}
	got := l.Backward(gradOut)
	for i, v := range want {
		if math.Float32bits(got.Data[i]) != math.Float32bits(v) {
			t.Fatalf("gradIn[%d] = %v (%#x), the channel-major formula gives %v (%#x)",
				i, got.Data[i], math.Float32bits(got.Data[i]), v, math.Float32bits(v))
		}
	}
}

func TestConvShapeAndParams(t *testing.T) {
	c := NewConv("conv1", 96, 11, 4, 0)
	in := Shape{C: 3, H: 227, W: 227}
	out := c.OutShape(in)
	if out.C != 96 || out.H != 55 || out.W != 55 {
		t.Errorf("AlexNet conv1 out = %v, want 96x55x55", out)
	}
	if p := c.ParamElems(in); p != 96*3*121+96 {
		t.Errorf("conv1 params = %d, want 34944", p)
	}
	if f := c.FwdFLOPs(in); f != 2*float64(96*55*55)*float64(3*121) {
		t.Errorf("conv1 fwd FLOPs = %g", f)
	}
}

func TestPoolCeilMode(t *testing.T) {
	p := NewMaxPool("pool1", 3, 2)
	out := p.OutShape(Shape{C: 32, H: 32, W: 32})
	if out.H != 16 || out.W != 16 {
		t.Errorf("ceil-mode 3/2 pool of 32 = %v, want 16x16", out)
	}
}

func TestDropoutSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDropout("drop", 0.5)
	in := Shape{C: 1, H: 32, W: 32}
	d.Setup(in, 4, rng)
	x := tensor.New(4, 1, 32, 32)
	x.Fill(1)
	out := d.Forward(x)
	zeros, twos := 0, 0
	for _, v := range out.Data {
		switch v {
		case 0:
			zeros++
		case 2:
			twos++
		default:
			t.Fatalf("dropout output %v not in {0, 2}", v)
		}
	}
	frac := float64(zeros) / float64(zeros+twos)
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("drop fraction = %v, want ~0.5", frac)
	}
	// Backward gates by the same mask.
	g := tensor.New(4, 1, 32, 32)
	g.Fill(1)
	gi := d.Backward(g)
	for i, v := range gi.Data {
		if (out.Data[i] == 0) != (v == 0) {
			t.Fatal("dropout backward mask mismatch")
		}
	}
}

func TestSoftmaxLossDecreasesWithConfidence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewSoftmaxLoss("loss")
	in := Shape{C: 3, H: 1, W: 1}
	l.Setup(in, 2, rng)
	l.SetLabels([]int{0, 2})
	weak := tensor.FromSlice([]float32{0.1, 0, 0, 0, 0, 0.1}, 2, 3, 1, 1)
	l.Forward(weak)
	weakLoss := l.Loss()
	strong := tensor.FromSlice([]float32{5, 0, 0, 0, 0, 5}, 2, 3, 1, 1)
	l.Forward(strong)
	if l.Loss() >= weakLoss {
		t.Errorf("confident logits loss %v >= weak loss %v", l.Loss(), weakLoss)
	}
}

func TestNetForwardBackwardAndPacking(t *testing.T) {
	net := NewNet("t", Shape{C: 1, H: 6, W: 6}, 2, 1,
		NewConv("c1", 2, 3, 1, 1),
		NewReLU("r1"),
		NewInnerProduct("ip", 3),
		NewSoftmaxLoss("loss"),
	)
	x := tensor.New(2, 1, 6, 6)
	rng := rand.New(rand.NewSource(2))
	for i := range x.Data {
		x.Data[i] = rng.Float32()
	}
	loss := net.Forward(x, []int{0, 2})
	if loss <= 0 {
		t.Fatalf("loss = %v", loss)
	}
	net.Backward()

	total := net.TotalParams()
	want := (2*1*9 + 2) + (3*2*36 + 3)
	if total != want {
		t.Fatalf("TotalParams = %d, want %d", total, want)
	}
	packed := net.PackParams(nil)
	if len(packed) != total {
		t.Fatalf("packed len = %d", len(packed))
	}
	// Round-trip.
	mod := append([]float32(nil), packed...)
	for i := range mod {
		mod[i] += 1
	}
	net.UnpackParams(mod)
	again := net.PackParams(nil)
	for i := range again {
		if again[i] != mod[i] {
			t.Fatal("param pack/unpack round trip failed")
		}
	}
	grads := net.PackGrads(nil)
	if len(grads) != total {
		t.Fatalf("packed grads len = %d", len(grads))
	}
	net.UnpackGrads(grads)

	if got := net.ParamLayers(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("ParamLayers = %v", got)
	}
	if s := net.Summary(); len(s) == 0 {
		t.Error("empty summary")
	}
}

func TestNetSeedDeterminism(t *testing.T) {
	a := NewNet("a", Shape{C: 1, H: 6, W: 6}, 1, 7, NewConv("c", 2, 3, 1, 1), NewSoftmaxLoss("l"))
	b := NewNet("b", Shape{C: 1, H: 6, W: 6}, 1, 7, NewConv("c", 2, 3, 1, 1), NewSoftmaxLoss("l"))
	pa := a.PackParams(nil)
	pb := b.PackParams(nil)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("same seed produced different parameters")
		}
	}
	c := NewNet("c", Shape{C: 1, H: 6, W: 6}, 1, 8, NewConv("c", 2, 3, 1, 1), NewSoftmaxLoss("l"))
	pc := c.PackParams(nil)
	same := true
	for i := range pa {
		if pa[i] != pc[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical parameters")
	}
}

func TestNetRequiresLossLayer(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("net without SoftmaxLoss should panic")
		}
	}()
	NewNet("bad", Shape{C: 1, H: 4, W: 4}, 1, 1, NewReLU("r"))
}

func TestLayerKinds(t *testing.T) {
	in := Shape{C: 2, H: 4, W: 4}
	kinds := map[Layer]string{
		NewConv("c", 2, 3, 1, 1):   "Convolution",
		NewReLU("r"):               "ReLU",
		NewMaxPool("p", 2, 2):      "Pooling",
		NewInnerProduct("i", 3):    "InnerProduct",
		NewLRN("n", 5, 1e-4, 0.75): "LRN",
		NewDropout("d", 0.5):       "Dropout",
		NewSoftmaxLoss("s"):        "SoftmaxWithLoss",
	}
	for l, want := range kinds {
		if l.Kind() != want {
			t.Errorf("%s kind = %q, want %q", l.Name(), l.Kind(), want)
		}
		if l.OutShape(in).Elems() <= 0 {
			t.Errorf("%s has empty out shape", l.Name())
		}
	}
}

func TestShapeString(t *testing.T) {
	if (Shape{3, 224, 224}).String() != "3x224x224" {
		t.Error("shape string wrong")
	}
}

func TestGroupedConvGradients(t *testing.T) {
	in := Shape{C: 4, H: 6, W: 6}
	gradCheck(t, NewConvGroups("gconv", 4, 3, 1, 1, 2), in, 2)
	paramGradCheck(t, NewConvGroups("gconv", 4, 3, 1, 1, 2), in, 2)
}

func TestGroupedConvMatchesAlexNetGeometry(t *testing.T) {
	// conv2 of AlexNet: 96 -> 256 channels, 5x5 pad 2, 2 groups.
	c := NewConvGroups("conv2", 256, 5, 1, 2, 2)
	in := Shape{C: 96, H: 27, W: 27}
	if p := c.ParamElems(in); p != 256*48*25+256 {
		t.Errorf("grouped conv2 params = %d, want 307456", p)
	}
	out := c.OutShape(in)
	if out.C != 256 || out.H != 27 || out.W != 27 {
		t.Errorf("conv2 out = %v", out)
	}
}

func TestGroupedConvEqualsTwoIndependentConvs(t *testing.T) {
	// A 2-group conv must equal two half-width convs run on the
	// channel halves with the corresponding weight halves.
	rng := rand.New(rand.NewSource(9))
	in := Shape{C: 4, H: 5, W: 5}
	g := NewConvGroups("g", 6, 3, 1, 1, 2)
	g.Setup(in, 1, rand.New(rand.NewSource(1)))
	x := tensor.New(1, 4, 5, 5)
	for i := range x.Data {
		x.Data[i] = rng.Float32()*2 - 1
	}
	got := g.Forward(x)

	half := Shape{C: 2, H: 5, W: 5}
	for grp := 0; grp < 2; grp++ {
		sub := NewConv("sub", 3, 3, 1, 1)
		sub.Setup(half, 1, rand.New(rand.NewSource(2)))
		// Copy the group's weights/bias into the sub-conv.
		k := 2 * 9
		copy(sub.weights.Data, g.weights.Data[grp*3*k:(grp+1)*3*k])
		copy(sub.bias.Data, g.bias.Data[grp*3:(grp+1)*3])
		xs := tensor.New(1, 2, 5, 5)
		copy(xs.Data, x.Data[grp*2*25:(grp+1)*2*25])
		want := sub.Forward(xs)
		for i := 0; i < 3*25; i++ {
			if d := got.Data[grp*3*25+i] - want.Data[i]; d > 1e-5 || d < -1e-5 {
				t.Fatalf("group %d output %d differs by %v", grp, i, d)
			}
		}
	}
}

func TestGroupedConvValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out channels not divisible by groups should panic")
		}
	}()
	NewConvGroups("bad", 5, 3, 1, 1, 2)
}

func TestGroupedConvInputValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("in channels not divisible by groups should panic")
		}
	}()
	NewConvGroups("bad", 4, 3, 1, 1, 2).Setup(Shape{C: 3, H: 4, W: 4}, 1, rand.New(rand.NewSource(1)))
}

// TestBackwardParamsFirstLayerKinds covers the first-layer kinds the zoo
// does not: an InnerProduct first layer accumulates the gradients
// BackwardLayer does, and after Net.Backward neither it nor an in-place
// ReLU first layer has an input-gradient blob. BackwardLayer(0) then
// makes the InnerProduct's; the ReLU returns its gradOut, overwritten.
func TestBackwardParamsFirstLayerKinds(t *testing.T) {
	in := Shape{C: 2, H: 3, W: 3}
	build := func(first Layer) *Net {
		return NewNet("t", in, 3, 1, first, NewReLU("r"), NewInnerProduct("ip", 3), NewSoftmaxLoss("loss"))
	}
	x := tensor.New(3, in.C, in.H, in.W)
	rng := rand.New(rand.NewSource(4))
	for i := range x.Data {
		x.Data[i] = rng.Float32()*2 - 1
	}
	labels := []int{0, 2, 1}
	// An in-place first layer overwrites the batch it is given, so
	// every pass gets a copy.
	backwardTo1 := func(n *Net) *tensor.Tensor {
		n.Forward(x.Clone(), labels)
		var g *tensor.Tensor
		for i := len(n.Layers) - 1; i > 0; i-- {
			g = n.BackwardLayer(i, g)
		}
		return g
	}
	full, first := build(NewInnerProduct("ip0", 4)), build(NewInnerProduct("ip0", 4))
	full.BackwardLayer(0, backwardTo1(full))
	first.Forward(x.Clone(), labels)
	first.Backward()
	if i := sameBits(first.PackGrads(nil), full.PackGrads(nil)); i >= 0 {
		t.Fatalf("InnerProduct first layer: packed gradient %d differs", i)
	}
	relu := build(NewReLU("r0"))
	relu.Forward(x.Clone(), labels)
	relu.Backward()
	ipBase, reluBase := &first.Layers[0].(*InnerProduct).base, &relu.Layers[0].(*ReLU).base
	for _, b := range []*base{ipBase, reluBase} {
		if b.gradIn != nil {
			t.Fatalf("%s: Net.Backward made an input-gradient blob", b.name)
		}
	}

	if got := first.BackwardLayer(0, backwardTo1(first)); got == nil || got != ipBase.gradIn {
		t.Fatalf("InnerProduct first layer: BackwardLayer(0) returned %p, its blob is %p", got, ipBase.gradIn)
	}
	g := backwardTo1(relu)
	if got := relu.BackwardLayer(0, g); got != g || reluBase.gradIn != nil {
		t.Fatal("ReLU first layer: BackwardLayer(0) did not overwrite its gradOut in place")
	}
}

// outOfPlace runs an in-place layer out of place: Forward and Backward
// hand it private copies of their arguments, so it overwrites neither
// the layer before's output nor the layer after's input gradient.
type outOfPlace struct {
	Layer
	in, gradOut *tensor.Tensor
}

func (l *outOfPlace) Forward(in *tensor.Tensor) *tensor.Tensor {
	if l.in == nil {
		l.in = tensor.New(in.Dims...)
	}
	l.in.CopyFrom(in)
	return l.Layer.Forward(l.in)
}

func (l *outOfPlace) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if l.gradOut == nil {
		l.gradOut = tensor.New(gradOut.Dims...)
	}
	l.gradOut.CopyFrom(gradOut)
	return l.Layer.Backward(l.gradOut)
}

// TestInPlaceLayersMatchOutOfPlace holds in-place ReLU and Dropout to
// the same layers run out of place, bit for bit, after every kind that
// can feed them and in AlexNet's ReLU→Dropout order. Each net trains two
// SGD iterations; the losses, every layer's input gradient and every
// parameter gradient must agree. A layer whose Backward read its own
// output fails here: the Dropout after it rescales that output where
// the gradient is not zero. (The ReLU after it changes the output only
// where the gradient is zero, so it catches fewer such reads.)
func TestInPlaceLayersMatchOutOfPlace(t *testing.T) {
	in := Shape{C: 4, H: 6, W: 6}
	const batch = 3
	type testCase struct {
		name  string
		build func() []Layer
	}
	cases := []testCase{{"InnerProduct/ReLU/Dropout", func() []Layer {
		return []Layer{NewInnerProduct("k", 8), NewReLU("r"), NewDropout("d", 0.5)}
	}}}
	for _, kind := range []struct {
		name string
		make func() Layer
	}{
		{"Conv", func() Layer { return NewConv("k", 4, 3, 1, 1) }},
		{"GroupedConv", func() Layer { return NewConvGroups("k", 4, 3, 1, 1, 2) }},
		{"InnerProduct", func() Layer { return NewInnerProduct("k", 8) }},
		{"MaxPool", func() Layer { return NewMaxPool("k", 3, 2) }},
		{"AvgPool", func() Layer { return NewAvgPool("k", 3, 2) }},
		{"LRN", func() Layer { return NewLRN("k", 3, 0.5, 0.75) }},
		{"Dropout", func() Layer { return NewDropout("k", 0.5) }},
	} {
		cases = append(cases,
			testCase{kind.name + "/ReLU", func() []Layer { return []Layer{kind.make(), NewReLU("r")} }},
			testCase{kind.name + "/Dropout", func() []Layer { return []Layer{kind.make(), NewDropout("d", 0.5)} }})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net := func(inPlace bool) *Net {
				ls := append(tc.build(), NewInnerProduct("ip", 3), NewSoftmaxLoss("loss"))
				if !inPlace {
					for i, l := range ls {
						switch l.(type) {
						case *ReLU, *Dropout:
							ls[i] = &outOfPlace{Layer: l}
						}
					}
				}
				return NewNet(tc.name, in, batch, 1, ls...)
			}
			nets := [2]*Net{net(true), net(false)}
			rng := rand.New(rand.NewSource(6))
			x := tensor.New(batch, in.C, in.H, in.W)
			for i := range x.Data {
				x.Data[i] = rng.Float32()*2 - 1
			}
			labels := []int{2, 0, 1}
			for iter := 0; iter < 2; iter++ {
				var got [2][][]float32 // per net: the loss, then each gradient
				for k, n := range nets {
					n.ZeroGrads()
					got[k] = append(got[k], []float32{n.Forward(x.Clone(), labels)})
					var g *tensor.Tensor
					for i := len(n.Layers) - 1; i >= 0; i-- {
						g = n.BackwardLayer(i, g)
						got[k] = append(got[k], append([]float32(nil), g.Data...))
					}
					for _, l := range n.Layers {
						for j, p := range l.Params() {
							got[k] = append(got[k], append([]float32(nil), l.Grads()[j].Data...))
							for e, v := range l.Grads()[j].Data {
								p.Data[e] -= float32(0.1 * v)
							}
						}
					}
				}
				for i := range got[1] {
					if e := sameBits(got[0][i], got[1][i]); e >= 0 {
						t.Fatalf("iter %d: value %d (0 = loss, then input gradients from the last layer, then parameter gradients) differs at [%d]: %#x in place, %#x out of place",
							iter, i, e, math.Float32bits(got[0][i][e]), math.Float32bits(got[1][i][e]))
					}
				}
			}
		})
	}
}
