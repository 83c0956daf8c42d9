package models

import (
	"fmt"
	"math"

	"scaffe/internal/layers"
)

// specBuilder accumulates LayerSpecs while tracking the activation
// shape, computing parameter counts and FLOPs arithmetically (which
// also handles grouped convolutions, which the real-compute layers do
// not implement).
type specBuilder struct {
	s       *Spec
	c, h, w int
}

func newSpecBuilder(name string, in layers.Shape) *specBuilder {
	return &specBuilder{
		s: &Spec{Name: name, Input: in, PerSampleBytes: int64(in.Elems()) + 4},
		c: in.C, h: in.H, w: in.W,
	}
}

// add appends a layer spec; outElems is the per-sample output size.
func (b *specBuilder) add(name, kind string, params int, fwd, bwd float64, outElems int) {
	b.s.Layers = append(b.s.Layers, LayerSpec{
		Name: name, Kind: kind, ParamElems: params,
		FwdFLOPs: fwd, BwdFLOPs: bwd, OutElems: outElems,
	})
}

// conv appends a convolution, updating the shape. groups follows the
// AlexNet dual-GPU split convention.
func (b *specBuilder) conv(name string, outC, k, stride, pad, groups int) {
	outH := (b.h+2*pad-k)/stride + 1
	outW := (b.w+2*pad-k)/stride + 1
	macs := float64(2 * float64(outC*outH*outW) * float64(b.c/groups*k*k))
	params := outC*(b.c/groups)*k*k + outC
	b.add(name, "Convolution", params, macs, 2*macs, outC*outH*outW)
	b.c, b.h, b.w = outC, outH, outW
}

// pool appends a pooling layer with Caffe's ceil-mode output size.
func (b *specBuilder) pool(name string, k, stride, pad int, avg bool) {
	outH := int(math.Ceil(float64(b.h+2*pad-k)/float64(stride))) + 1
	outW := int(math.Ceil(float64(b.w+2*pad-k)/float64(stride))) + 1
	kind := "Pooling(max)"
	if avg {
		kind = "Pooling(ave)"
	}
	f := float64(b.c*outH*outW) * float64(k*k)
	b.add(name, kind, 0, f, f, b.c*outH*outW)
	b.h, b.w = outH, outW
}

func (b *specBuilder) elems() int { return b.c * b.h * b.w }

func (b *specBuilder) relu(name string) {
	e := float64(b.elems())
	b.add(name, "ReLU", 0, e, e, b.elems())
}

func (b *specBuilder) lrn(name string, size int) {
	e := float64(b.elems())
	b.add(name, "LRN", 0, e*float64(size+3), e*float64(size+4), b.elems())
}

func (b *specBuilder) fc(name string, outN int) {
	in := b.elems()
	f := 2 * float64(outN*in)
	b.add(name, "InnerProduct", outN*in+outN, f, 2*f, outN)
	b.c, b.h, b.w = outN, 1, 1
}

func (b *specBuilder) dropout(name string) {
	e := float64(b.elems())
	b.add(name, "Dropout", 0, e, e, b.elems())
}

func (b *specBuilder) softmax(name string) {
	e := float64(b.elems())
	b.add(name, "SoftmaxWithLoss", 0, 5*e, e, b.elems())
	b.s.Classes = b.elems()
}

// AlexNet returns the cost-model spec of Krizhevsky's AlexNet
// (ILSVRC-2012 geometry, grouped conv2/4/5): ~61M parameters, ~244 MB
// of float32 gradients — the paper's canonical "very large message".
func AlexNet() *Spec {
	b := newSpecBuilder("alexnet", layers.Shape{C: 3, H: 227, W: 227})
	b.conv("conv1", 96, 11, 4, 0, 1)
	b.relu("relu1")
	b.lrn("norm1", 5)
	b.pool("pool1", 3, 2, 0, false)
	b.conv("conv2", 256, 5, 1, 2, 2)
	b.relu("relu2")
	b.lrn("norm2", 5)
	b.pool("pool2", 3, 2, 0, false)
	b.conv("conv3", 384, 3, 1, 1, 1)
	b.relu("relu3")
	b.conv("conv4", 384, 3, 1, 1, 2)
	b.relu("relu4")
	b.conv("conv5", 256, 3, 1, 1, 2)
	b.relu("relu5")
	b.pool("pool5", 3, 2, 0, false)
	b.fc("fc6", 4096)
	b.relu("relu6")
	b.dropout("drop6")
	b.fc("fc7", 4096)
	b.relu("relu7")
	b.dropout("drop7")
	b.fc("fc8", 1000)
	b.softmax("loss")
	return b.s
}

// CaffeNet returns BVLC CaffeNet: AlexNet with pooling before
// normalization (identical parameter budget, slightly different
// activation footprints).
func CaffeNet() *Spec {
	b := newSpecBuilder("caffenet", layers.Shape{C: 3, H: 227, W: 227})
	b.conv("conv1", 96, 11, 4, 0, 1)
	b.relu("relu1")
	b.pool("pool1", 3, 2, 0, false)
	b.lrn("norm1", 5)
	b.conv("conv2", 256, 5, 1, 2, 2)
	b.relu("relu2")
	b.pool("pool2", 3, 2, 0, false)
	b.lrn("norm2", 5)
	b.conv("conv3", 384, 3, 1, 1, 1)
	b.relu("relu3")
	b.conv("conv4", 384, 3, 1, 1, 2)
	b.relu("relu4")
	b.conv("conv5", 256, 3, 1, 1, 2)
	b.relu("relu5")
	b.pool("pool5", 3, 2, 0, false)
	b.fc("fc6", 4096)
	b.relu("relu6")
	b.dropout("drop6")
	b.fc("fc7", 4096)
	b.relu("relu7")
	b.dropout("drop7")
	b.fc("fc8", 1000)
	b.softmax("loss")
	return b.s
}

// inception appends one GoogLeNet inception module: four parallel
// branches (1×1, 1×1→3×3, 1×1→5×5, pool→1×1) concatenated on the
// channel axis. Branch shapes are derived from the module input.
func (b *specBuilder) inception(name string, b1, b3r, b3, b5r, b5, bp int) {
	inC, h, w := b.c, b.h, b.w
	branch := func(tag string, convs ...[3]int) int {
		// convs: {outC, kernel, pad}; the branch preserves h×w by
		// construction.
		c := inC
		for i, cv := range convs {
			outC, k, _ := cv[0], cv[1], cv[2]
			macs := float64(2 * float64(outC*h*w) * float64(c*k*k))
			params := outC*c*k*k + outC
			b.add(fmt.Sprintf("%s/%s_%d", name, tag, i+1), "Convolution", params, macs, 2*macs, outC*h*w)
			e := float64(outC * h * w)
			b.add(fmt.Sprintf("%s/%s_relu%d", name, tag, i+1), "ReLU", 0, e, e, outC*h*w)
			c = outC
		}
		return c
	}
	out := branch("1x1", [3]int{b1, 1, 0})
	out += branch("3x3", [3]int{b3r, 1, 0}, [3]int{b3, 3, 1})
	out += branch("5x5", [3]int{b5r, 1, 0}, [3]int{b5, 5, 2})
	// Pool branch: 3×3/1 pad 1 max pool (shape preserving) + 1×1 conv.
	f := float64(inC*h*w) * 9
	b.add(name+"/pool", "Pooling(max)", 0, f, f, inC*h*w)
	out += branch("pool_proj", [3]int{bp, 1, 0})
	b.add(name+"/concat", "Concat", 0, 0, 0, out*h*w)
	b.c = out
}

// auxClassifier appends one of GoogLeNet's training-time auxiliary
// heads (avgpool 5/3, 1×1 conv 128, fc 1024, fc 1000). Their
// parameters participate in gradient aggregation during training, so
// they matter for communication volume.
func (b *specBuilder) auxClassifier(name string) {
	inC, h, w := b.c, b.h, b.w
	ph := (h-5)/3 + 1
	pw := (w-5)/3 + 1
	b.add(name+"/ave_pool", "Pooling(ave)", 0, float64(inC*ph*pw*25), float64(inC*ph*pw*25), inC*ph*pw)
	macs := float64(2 * float64(128*ph*pw) * float64(inC))
	b.add(name+"/conv", "Convolution", 128*inC+128, macs, 2*macs, 128*ph*pw)
	b.add(name+"/relu_conv", "ReLU", 0, float64(128*ph*pw), float64(128*ph*pw), 128*ph*pw)
	in1 := 128 * ph * pw
	f1 := 2 * float64(1024*in1)
	b.add(name+"/fc", "InnerProduct", 1024*in1+1024, f1, 2*f1, 1024)
	b.add(name+"/relu_fc", "ReLU", 0, 1024, 1024, 1024)
	b.add(name+"/drop", "Dropout", 0, 1024, 1024, 1024)
	f2 := 2 * float64(1000*1024)
	b.add(name+"/classifier", "InnerProduct", 1000*1024+1000, f2, 2*f2, 1000)
	b.add(name+"/loss", "SoftmaxWithLoss", 0, 5000, 1000, 1000)
	// Aux heads branch off; the main trunk shape is unchanged.
	b.c, b.h, b.w = inC, h, w
}

// GoogLeNet returns the BVLC GoogLeNet (Inception v1) training spec,
// including both auxiliary classifiers: ~13.4M parameters.
func GoogLeNet() *Spec {
	b := newSpecBuilder("googlenet", layers.Shape{C: 3, H: 224, W: 224})
	b.conv("conv1/7x7_s2", 64, 7, 2, 3, 1)
	b.relu("conv1/relu")
	b.pool("pool1/3x3_s2", 3, 2, 0, false)
	b.lrn("pool1/norm1", 5)
	b.conv("conv2/3x3_reduce", 64, 1, 1, 0, 1)
	b.relu("conv2/relu_reduce")
	b.conv("conv2/3x3", 192, 3, 1, 1, 1)
	b.relu("conv2/relu")
	b.lrn("conv2/norm2", 5)
	b.pool("pool2/3x3_s2", 3, 2, 0, false)
	b.inception("inception_3a", 64, 96, 128, 16, 32, 32)
	b.inception("inception_3b", 128, 128, 192, 32, 96, 64)
	b.pool("pool3/3x3_s2", 3, 2, 0, false)
	b.inception("inception_4a", 192, 96, 208, 16, 48, 64)
	b.auxClassifier("loss1")
	b.inception("inception_4b", 160, 112, 224, 24, 64, 64)
	b.inception("inception_4c", 128, 128, 256, 24, 64, 64)
	b.inception("inception_4d", 112, 144, 288, 32, 64, 64)
	b.auxClassifier("loss2")
	b.inception("inception_4e", 256, 160, 320, 32, 128, 128)
	b.pool("pool4/3x3_s2", 3, 2, 0, false)
	b.inception("inception_5a", 256, 160, 320, 32, 128, 128)
	b.inception("inception_5b", 384, 192, 384, 48, 128, 128)
	b.pool("pool5/7x7_s1", 7, 1, 0, true)
	b.dropout("pool5/drop")
	b.fc("loss3/classifier", 1000)
	b.softmax("loss3")
	return b.s
}
