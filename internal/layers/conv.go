package layers

import (
	"fmt"
	"math/rand"

	"scaffe/internal/tensor"
)

// Conv is a 2-D convolution layer (im2col + GEMM lowering, the same
// strategy Caffe uses), with optional grouped convolution — AlexNet's
// conv2/4/5 split their channels in two groups, a relic of the
// original dual-GPU implementation that halves those layers'
// parameters.
type Conv struct {
	base
	OutC             int
	KernelH, KernelW int
	StrideH, StrideW int
	PadH, PadW       int
	Groups           int

	geom       tensor.ConvGeom // per-group geometry
	k, spatial int             // one group's column matrix is k × spatial
	weights    *tensor.Tensor  // OutC x (InC/G*kh*kw)
	bias       *tensor.Tensor  // OutC
	wGrad      *tensor.Tensor
	bGrad      *tensor.Tensor
	lastIn     *tensor.Tensor
	gradOut    *tensor.Tensor
	pass       pass // what Range computes

	params []*tensor.Tensor // cached Params/Grads results so the
	grads  []*tensor.Tensor // per-iteration accessors don't allocate
}

// NewConv creates a square-kernel convolution.
func NewConv(name string, outC, kernel, stride, pad int) *Conv {
	return NewConvGroups(name, outC, kernel, stride, pad, 1)
}

// NewConvGroups creates a grouped square-kernel convolution; input and
// output channels must divide evenly by groups.
func NewConvGroups(name string, outC, kernel, stride, pad, groups int) *Conv {
	if groups < 1 {
		panic(fmt.Sprintf("layers: %s: groups must be >= 1", name))
	}
	if outC%groups != 0 {
		panic(fmt.Sprintf("layers: %s: %d output channels not divisible by %d groups", name, outC, groups))
	}
	return &Conv{
		base: base{name: name}, OutC: outC,
		KernelH: kernel, KernelW: kernel,
		StrideH: stride, StrideW: stride,
		PadH: pad, PadW: pad,
		Groups: groups,
	}
}

// Kind implements Layer.
func (c *Conv) Kind() string { return "Convolution" }

func (c *Conv) geomFor(in Shape) tensor.ConvGeom {
	return tensor.ConvGeom{
		InC: in.C / c.Groups, InH: in.H, InW: in.W,
		KernelH: c.KernelH, KernelW: c.KernelW,
		StrideH: c.StrideH, StrideW: c.StrideW,
		PadH: c.PadH, PadW: c.PadW,
	}
}

// OutShape implements Layer.
func (c *Conv) OutShape(in Shape) Shape {
	g := c.geomFor(in)
	return Shape{C: c.OutC, H: g.OutH(), W: g.OutW()}
}

// ParamElems implements Layer.
func (c *Conv) ParamElems(in Shape) int {
	return c.OutC*(in.C/c.Groups)*c.KernelH*c.KernelW + c.OutC
}

// FwdFLOPs implements Layer: 2·outC·outH·outW·(inC/G·kh·kw) MACs.
func (c *Conv) FwdFLOPs(in Shape) float64 {
	out := c.OutShape(in)
	return 2 * float64(out.C*out.H*out.W) * float64((in.C/c.Groups)*c.KernelH*c.KernelW)
}

// BwdFLOPs implements Layer: weight-gradient and input-gradient GEMMs
// each cost a forward pass.
func (c *Conv) BwdFLOPs(in Shape) float64 { return 2 * c.FwdFLOPs(in) }

// Setup implements Layer.
func (c *Conv) Setup(in Shape, batch int, rng *rand.Rand) {
	if in.C%c.Groups != 0 {
		panic(fmt.Sprintf("layers: %s: %d input channels not divisible by %d groups", c.name, in.C, c.Groups))
	}
	c.setup(in, batch)
	c.geom = c.geomFor(in)
	c.k = (in.C / c.Groups) * c.KernelH * c.KernelW
	c.spatial = c.geom.OutH() * c.geom.OutW()
	c.weights = tensor.New(c.OutC, c.k)
	c.weights.XavierInit(rng, c.k)
	c.bias = tensor.New(c.OutC)
	c.wGrad = tensor.New(c.OutC, c.k)
	c.bGrad = tensor.New(c.OutC)
	c.allocBlobs(c.OutShape(in))
	c.params = []*tensor.Tensor{c.weights, c.bias}
	c.grads = []*tensor.Tensor{c.wGrad, c.bGrad}
}

// Range implements tensor.Ranger: it is the body of Conv's fan-outs,
// run by Forward and Backward. Each range gets a column matrix of
// scratch.
func (c *Conv) Range(lo, hi int, col []float32) {
	switch c.pass {
	case forwardPass:
		c.forwardSamples(lo, hi, col)
	case weightGradPass:
		c.weightGradCols(lo, hi, col)
	case inputGradPass:
		c.inputGradSamples(lo, hi, col)
	}
}

// Forward implements Layer. The batch is split over tensor.ParallelFor
// by samples, each computed whole by one worker.
func (c *Conv) Forward(in *tensor.Tensor) *tensor.Tensor {
	c.checkIn(in)
	c.lastIn = in
	c.pass = forwardPass
	tensor.ParallelFor(c.batch, c.k*c.spatial, c)
	return c.out
}

// forwardSamples computes the output of samples [lo, hi): per group,
// im2col and out = W·col, then the bias.
func (c *Conv) forwardSamples(lo, hi int, col []float32) {
	outCg, grpIn := c.OutC/c.Groups, c.in.Elems()/c.Groups
	inSz, outSz := c.in.Elems(), c.OutC*c.spatial
	for b := lo; b < hi; b++ {
		sample := c.lastIn.Data[b*inSz : (b+1)*inSz]
		dstAll := c.out.Data[b*outSz : (b+1)*outSz]
		for g := 0; g < c.Groups; g++ {
			tensor.Im2col(c.geom, sample[g*grpIn:], col)
			dst := dstAll[g*outCg*c.spatial : (g+1)*outCg*c.spatial]
			w := c.weights.Data[g*outCg*c.k : (g+1)*outCg*c.k]
			tensor.GemmCols(false, false, outCg, c.spatial, c.k, 1, w, col, 0, dst, 0, c.spatial)
		}
		for oc := 0; oc < c.OutC; oc++ {
			bv := c.bias.Data[oc]
			row := dstAll[oc*c.spatial : (oc+1)*c.spatial]
			for i := range row {
				row[i] += bv
			}
		}
	}
}

// Backward implements Layer: backwardParams, then the input gradient
// split over tensor.ParallelFor by samples, so every output element is
// written by one worker in the serial order.
func (c *Conv) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	c.backwardParams(gradOut)
	gradIn := c.gradInBlob()
	c.pass = inputGradPass
	tensor.ParallelFor(c.batch, c.k*c.spatial, c)
	return gradIn
}

// backwardParams accumulates the weight and bias gradients and computes
// no input gradient (Net.BackwardParams). One fan-out over the columns
// of dW does both: each range also sums its share of the output
// channels' bias gradients, so every element is written by one worker,
// in sample order.
func (c *Conv) backwardParams(gradOut *tensor.Tensor) {
	c.gradOut = gradOut
	c.pass = weightGradPass
	tensor.ParallelFor(c.k, c.k*c.spatial, c)
}

// weightGradCols accumulates columns [lo, hi) of every group's dW: for
// each sample in order, dW[:, lo:hi] += g·colᵀ, with only rows [lo, hi)
// of the column matrix lowered. It also accumulates the bias gradient of
// output channels [lo·OutC/k, hi·OutC/k), which the ranges partition.
func (c *Conv) weightGradCols(lo, hi int, col []float32) {
	outCg, grpIn := c.OutC/c.Groups, c.in.Elems()/c.Groups
	inSz, outSz := c.in.Elems(), c.OutC*c.spatial
	ocLo, ocHi := lo*c.OutC/c.k, hi*c.OutC/c.k
	for b := 0; b < c.batch; b++ {
		gAll := c.gradOut.Data[b*outSz : (b+1)*outSz]
		for oc := ocLo; oc < ocHi; oc++ {
			var s float32
			for _, v := range gAll[oc*c.spatial : (oc+1)*c.spatial] {
				s += v
			}
			c.bGrad.Data[oc] += s
		}
	}
	for b := 0; b < c.batch; b++ {
		sample := c.lastIn.Data[b*inSz : (b+1)*inSz]
		gAll := c.gradOut.Data[b*outSz : (b+1)*outSz]
		for grp := 0; grp < c.Groups; grp++ {
			g := gAll[grp*outCg*c.spatial : (grp+1)*outCg*c.spatial]
			wg := c.wGrad.Data[grp*outCg*c.k : (grp+1)*outCg*c.k]
			tensor.Im2colRows(c.geom, sample[grp*grpIn:], col, lo, hi)
			tensor.GemmCols(false, true, outCg, c.k, c.spatial, 1, g, col, 1, wg, lo, hi)
		}
	}
}

// inputGradSamples writes the input gradient of samples [lo, hi): per
// group, colGrad = Wᵀ·g, scattered back by col2im into the group's
// input channels.
func (c *Conv) inputGradSamples(lo, hi int, colGrad []float32) {
	outCg, grpIn := c.OutC/c.Groups, c.in.Elems()/c.Groups
	inSz, outSz := c.in.Elems(), c.OutC*c.spatial
	for b := lo; b < hi; b++ {
		gAll := c.gradOut.Data[b*outSz : (b+1)*outSz]
		giSample := c.gradIn.Data[b*inSz : (b+1)*inSz]
		clear(giSample) // Col2im accumulates into its target
		for grp := 0; grp < c.Groups; grp++ {
			g := gAll[grp*outCg*c.spatial : (grp+1)*outCg*c.spatial]
			w := c.weights.Data[grp*outCg*c.k : (grp+1)*outCg*c.k]
			tensor.GemmCols(true, false, c.k, c.spatial, outCg, 1, w, g, 0, colGrad, 0, c.spatial)
			tensor.Col2im(c.geom, colGrad, giSample[grp*grpIn:])
		}
	}
}

// Params implements Layer.
func (c *Conv) Params() []*tensor.Tensor { return c.params }

// Grads implements Layer.
func (c *Conv) Grads() []*tensor.Tensor { return c.grads }
