package models

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"scaffe/internal/layers"
	"scaffe/internal/tensor"
)

func TestAlexNetGeometry(t *testing.T) {
	s := AlexNet()
	// The canonical AlexNet parameter budget (the paper's ~61M /
	// ~244 MB "very large message").
	if got := s.TotalParams(); got != 60965224 {
		t.Errorf("AlexNet params = %d, want 60965224", got)
	}
	if mb := float64(s.ParamBytes()) / (1 << 20); mb < 230 || mb > 240 {
		t.Errorf("AlexNet gradient buffer = %.1f MiB, want ~233", mb)
	}
	// Per-layer spot checks against the prototxt.
	byName := map[string]LayerSpec{}
	for _, l := range s.Layers {
		byName[l.Name] = l
	}
	checks := map[string]int{
		"conv1": 96*3*11*11 + 96,
		"conv2": 256*48*5*5 + 256, // grouped: 96/2 input channels
		"conv3": 384*256*3*3 + 384,
		"conv4": 384*192*3*3 + 384,
		"conv5": 256*192*3*3 + 256,
		"fc6":   4096*9216 + 4096,
		"fc7":   4096*4096 + 4096,
		"fc8":   1000*4096 + 1000,
	}
	for name, want := range checks {
		if got := byName[name].ParamElems; got != want {
			t.Errorf("%s params = %d, want %d", name, got, want)
		}
	}
	// AlexNet forward is ~1.4 GFLOP/sample (2 FLOPs per MAC).
	if gf := s.FwdFLOPs() / 1e9; gf < 1.2 || gf > 1.8 {
		t.Errorf("AlexNet fwd = %.2f GFLOP, want ~1.4", gf)
	}
	if s.Classes != 1000 {
		t.Errorf("classes = %d", s.Classes)
	}
}

func TestCaffeNetMatchesAlexNetBudget(t *testing.T) {
	a, c := AlexNet(), CaffeNet()
	if a.TotalParams() != c.TotalParams() {
		t.Errorf("CaffeNet params %d != AlexNet %d", c.TotalParams(), a.TotalParams())
	}
}

func TestGoogLeNetGeometry(t *testing.T) {
	s := GoogLeNet()
	// BVLC GoogLeNet with both aux heads: ~13.4M parameters.
	if m := float64(s.TotalParams()) / 1e6; m < 12.5 || m > 14.5 {
		t.Errorf("GoogLeNet params = %.2fM, want ~13.4M", m)
	}
	// Main-trunk classifier input must be 1024 (pool5 output).
	var cls LayerSpec
	for _, l := range s.Layers {
		if l.Name == "loss3/classifier" {
			cls = l
		}
	}
	if cls.ParamElems != 1000*1024+1000 {
		t.Errorf("loss3/classifier params = %d, want %d", cls.ParamElems, 1000*1024+1000)
	}
	// GoogLeNet forward ~2x AlexNet's despite 4.5x fewer params
	// (the communication-vs-compute contrast of Figures 8/10).
	if gf := s.FwdFLOPs() / 1e9; gf < 2.5 || gf > 4.5 {
		t.Errorf("GoogLeNet fwd = %.2f GFLOP, want ~3.2", gf)
	}
	if len(s.ParamLayers()) < 50 {
		t.Errorf("GoogLeNet has %d param layers; expected 60+ conv/fc units", len(s.ParamLayers()))
	}
}

func TestCIFAR10QuickGeometry(t *testing.T) {
	s, err := ByName("cifar10-quick")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.TotalParams(); got != 145578 {
		t.Errorf("cifar10-quick params = %d, want 145578", got)
	}
}

func TestLeNetGeometry(t *testing.T) {
	s, err := ByName("lenet")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.TotalParams(); got != 431080 {
		t.Errorf("lenet params = %d, want 431080", got)
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("resnet-9000"); err == nil {
		t.Error("unknown model should error")
	}
	for _, name := range []string{"lenet", "cifar10-quick", "alexnet", "caffenet", "googlenet", "vgg16", "nin", "tiny"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestVGG16Geometry(t *testing.T) {
	s := VGG16()
	// VGG-16 (config D): 138,357,544 parameters, ~528 MB of float32
	// gradients — past the top of the paper's message-size sweep.
	if got := s.TotalParams(); got != 138357544 {
		t.Errorf("VGG-16 params = %d, want 138357544", got)
	}
	// ~30.9 GFLOP per forward sample (2 FLOPs per MAC).
	if gf := s.FwdFLOPs() / 1e9; gf < 28 || gf > 34 {
		t.Errorf("VGG-16 fwd = %.1f GFLOP, want ~31", gf)
	}
}

func TestNiNGeometry(t *testing.T) {
	s := NetworkInNetwork()
	// NiN ImageNet: ~7.6M parameters, conv-only.
	if m := float64(s.TotalParams()) / 1e6; m < 7 || m > 8.5 {
		t.Errorf("NiN params = %.2fM, want ~7.6M", m)
	}
	for _, l := range s.Layers {
		if l.Kind == "InnerProduct" {
			t.Errorf("NiN should have no fully-connected layers, found %s", l.Name)
		}
	}
	if s.Classes != 1000 {
		t.Errorf("NiN classes = %d (global average pooling should leave 1000 maps)", s.Classes)
	}
}

func TestSpecFromNetConsistency(t *testing.T) {
	net := BuildCIFAR10Quick(4, 1)
	s := SpecFromNet(net)
	if s.TotalParams() != net.TotalParams() {
		t.Errorf("spec params %d != net params %d", s.TotalParams(), net.TotalParams())
	}
	if len(s.Layers) != len(net.Layers) {
		t.Errorf("spec has %d layers, net has %d", len(s.Layers), len(net.Layers))
	}
	if len(s.ParamLayers()) != len(net.ParamLayers()) {
		t.Errorf("param layer sets differ")
	}
	if s.Classes != 10 {
		t.Errorf("classes = %d", s.Classes)
	}
}

// TestByNameWalksGeometryWithoutANet: the small models' specs come from
// the layer list alone, equal field for field to the spec of the built
// net, at a cost that cannot include one (cifar10-quick set up at batch 1
// is ~1.9 MB of blobs and weights).
func TestByNameWalksGeometryWithoutANet(t *testing.T) {
	for name, build := range map[string]func(int, int64) *layers.Net{
		"lenet": BuildLeNet, "cifar10-quick": BuildCIFAR10Quick, "tiny": BuildTinyNet,
	} {
		got, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if want := SpecFromNet(build(1, 1)); !reflect.DeepEqual(got, want) {
			t.Errorf("ByName(%q) =\n%+v\nSpecFromNet of the built net =\n%+v", name, got, want)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := ByName(name); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if b := after.TotalAlloc - before.TotalAlloc; b >= 64<<10 {
			t.Errorf("ByName(%q) allocated %d bytes; a spec needs no net and should stay under 64 KB", name, b)
		}
	}
}

func TestActivationElemsPositive(t *testing.T) {
	for _, name := range []string{"alexnet", "googlenet", "cifar10-quick"} {
		s, _ := ByName(name)
		if s.ActivationElems() <= 0 {
			t.Errorf("%s has no activation footprint", name)
		}
		for i, l := range s.Layers {
			if l.OutElems <= 0 {
				t.Errorf("%s layer %d (%s) OutElems = %d", name, i, l.Name, l.OutElems)
			}
		}
	}
}

func TestBwdCostsExceedFwd(t *testing.T) {
	for _, name := range []string{"alexnet", "googlenet"} {
		s, _ := ByName(name)
		if s.BwdFLOPs() <= s.FwdFLOPs() {
			t.Errorf("%s backward (%.1f) should cost more than forward (%.1f)",
				name, s.BwdFLOPs()/1e9, s.FwdFLOPs()/1e9)
		}
	}
}

func TestLayerSpecParamBytes(t *testing.T) {
	l := LayerSpec{ParamElems: 10}
	if l.ParamBytes() != 40 {
		t.Errorf("ParamBytes = %d", l.ParamBytes())
	}
}

func TestRealAlexNetMatchesSpec(t *testing.T) {
	// The real-compute AlexNet (grouped convs included) must agree
	// with the arithmetic spec on every layer's parameter count — the
	// cross-check between the two execution faces on the paper's
	// flagship model.
	net := BuildAlexNet(1, 1)
	spec := AlexNet()
	if net.TotalParams() != spec.TotalParams() {
		t.Fatalf("real AlexNet has %d params, spec says %d", net.TotalParams(), spec.TotalParams())
	}
	derived := SpecFromNet(net)
	if len(derived.Layers) != len(spec.Layers) {
		t.Fatalf("layer counts differ: %d vs %d", len(derived.Layers), len(spec.Layers))
	}
	for i := range spec.Layers {
		if derived.Layers[i].ParamElems != spec.Layers[i].ParamElems {
			t.Errorf("layer %d (%s): real %d params, spec %d",
				i, spec.Layers[i].Name, derived.Layers[i].ParamElems, spec.Layers[i].ParamElems)
		}
		if derived.Layers[i].OutElems != spec.Layers[i].OutElems {
			t.Errorf("layer %d (%s): real out %d, spec %d",
				i, spec.Layers[i].Name, derived.Layers[i].OutElems, spec.Layers[i].OutElems)
		}
	}
}

func TestRealAlexNetForward(t *testing.T) {
	if testing.Short() {
		t.Skip("1.4 GFLOP forward pass")
	}
	net := BuildAlexNet(1, 1)
	x := tensor.New(1, 3, 227, 227)
	rng := rand.New(rand.NewSource(4))
	for i := range x.Data {
		x.Data[i] = rng.Float32()
	}
	loss := net.Forward(x, []int{42})
	if loss <= 0 || math.IsNaN(float64(loss)) {
		t.Fatalf("AlexNet forward loss = %v", loss)
	}
	// Random init over 1000 classes: loss ≈ ln(1000) ≈ 6.9.
	if loss < 4 || loss > 10 {
		t.Errorf("AlexNet initial loss %v far from ln(1000)", loss)
	}
}
