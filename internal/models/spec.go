// Package models defines the networks the paper evaluates — AlexNet,
// CaffeNet, GoogLeNet, the CIFAR-10 quick model, and LeNet — in two
// forms: cost-model Specs with exact per-layer parameter and FLOP
// geometry (what the simulated 160-GPU sweeps train), and real
// layers.Net builders for the small models that the real-compute tests
// actually train.
package models

import (
	"fmt"

	"scaffe/internal/layers"
)

// LayerSpec is one layer's cost-model view: how many parameters it
// contributes (one reduction/broadcast unit) and how much compute its
// passes cost per sample.
type LayerSpec struct {
	Name       string
	Kind       string
	ParamElems int
	FwdFLOPs   float64 // per sample
	BwdFLOPs   float64 // per sample
	// OutElems is the per-sample output activation size, used by the
	// device-memory model (the missing data points of Figure 8 are
	// solvers that ran out of memory).
	OutElems int
}

// ParamBytes returns the parameter footprint in bytes (float32).
func (l LayerSpec) ParamBytes() int64 { return int64(l.ParamElems) * 4 }

// Spec is a network's cost-model description.
type Spec struct {
	Name    string
	Input   layers.Shape
	Classes int
	Layers  []LayerSpec
	// PerSampleBytes is the input data volume per sample (for data-
	// reader modeling): C*H*W bytes (8-bit images) plus label.
	PerSampleBytes int64
}

// TotalParams returns the total learnable parameter count.
func (s *Spec) TotalParams() int {
	t := 0
	for _, l := range s.Layers {
		t += l.ParamElems
	}
	return t
}

// ParamBytes returns the packed parameter/gradient buffer size — the
// paper's "256 MB buffers" for AlexNet-class models.
func (s *Spec) ParamBytes() int64 { return int64(s.TotalParams()) * 4 }

// ParamLayers returns the indices of layers carrying parameters, in
// forward order.
func (s *Spec) ParamLayers() []int {
	var idx []int
	for i, l := range s.Layers {
		if l.ParamElems > 0 {
			idx = append(idx, i)
		}
	}
	return idx
}

// ActivationElems returns the total per-sample activation footprint
// (sum of layer outputs), used by the device-memory model.
func (s *Spec) ActivationElems() int {
	t := 0
	for _, l := range s.Layers {
		t += l.OutElems
	}
	return t
}

// FwdFLOPs returns total forward FLOPs per sample.
func (s *Spec) FwdFLOPs() float64 {
	var t float64
	for _, l := range s.Layers {
		t += l.FwdFLOPs
	}
	return t
}

// BwdFLOPs returns total backward FLOPs per sample.
func (s *Spec) BwdFLOPs() float64 {
	var t float64
	for _, l := range s.Layers {
		t += l.BwdFLOPs
	}
	return t
}

// ByName returns the Spec for a model name.
func ByName(name string) (*Spec, error) {
	switch name {
	case "lenet":
		return specOf(leNet()), nil
	case "cifar10-quick", "cifar10":
		return specOf(cifar10Quick()), nil
	case "alexnet":
		return AlexNet(), nil
	case "caffenet":
		return CaffeNet(), nil
	case "googlenet":
		return GoogLeNet(), nil
	case "vgg16", "vgg":
		return VGG16(), nil
	case "nin":
		return NetworkInNetwork(), nil
	case "tiny":
		return specOf(tinyNet()), nil
	}
	return nil, fmt.Errorf("models: unknown model %q", name)
}

// SpecFromNet derives a cost-model Spec from a real network, so the
// two execution modes always agree on geometry.
func SpecFromNet(n *layers.Net) *Spec { return specOf(n.Name, n.In, n.Layers) }

// specOf walks a layer list's geometry from the input shape on. It reads
// only what a layer knows from its constructor, so the list need not be
// set up: a spec costs no blobs, scratch or weights.
func specOf(name string, in layers.Shape, ls []layers.Layer) *Spec {
	s := &Spec{
		Name:           name,
		Input:          in,
		PerSampleBytes: int64(in.Elems()) + 4,
		Layers:         make([]LayerSpec, 0, len(ls)),
	}
	shape := in
	for _, l := range ls {
		out := l.OutShape(shape)
		s.Layers = append(s.Layers, LayerSpec{
			Name:       l.Name(),
			Kind:       l.Kind(),
			ParamElems: l.ParamElems(shape),
			FwdFLOPs:   l.FwdFLOPs(shape),
			BwdFLOPs:   l.BwdFLOPs(shape),
			OutElems:   out.Elems(),
		})
		shape = out
	}
	s.Classes = shape.Elems()
	return s
}
