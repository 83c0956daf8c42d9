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

	geom    tensor.ConvGeom // per-group geometry
	weights *tensor.Tensor  // OutC x (InC/G*kh*kw)
	bias    *tensor.Tensor  // OutC
	wGrad   *tensor.Tensor
	bGrad   *tensor.Tensor
	col     []float32 // im2col scratch for one sample, one group
	colGrad []float32 // column-space gradient scratch, same shape as col
	lastIn  *tensor.Tensor

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
	k := (in.C / c.Groups) * c.KernelH * c.KernelW
	c.weights = tensor.New(c.OutC, k)
	c.weights.XavierInit(rng, k)
	c.bias = tensor.New(c.OutC)
	c.wGrad = tensor.New(c.OutC, k)
	c.bGrad = tensor.New(c.OutC)
	c.col = make([]float32, k*c.geom.OutH()*c.geom.OutW())
	c.colGrad = make([]float32, k*c.geom.OutH()*c.geom.OutW())
	c.allocBlobs(c.OutShape(in))
	c.params = []*tensor.Tensor{c.weights, c.bias}
	c.grads = []*tensor.Tensor{c.wGrad, c.bGrad}
}

// Forward implements Layer.
func (c *Conv) Forward(in *tensor.Tensor) *tensor.Tensor {
	c.checkIn(in)
	c.lastIn = in
	out := c.OutShape(c.in)
	spatial := out.H * out.W
	k := (c.in.C / c.Groups) * c.KernelH * c.KernelW
	outCg := c.OutC / c.Groups
	inCg := c.in.C / c.Groups
	res := c.out
	inSz := c.in.Elems()
	outSz := out.Elems()
	for b := 0; b < c.batch; b++ {
		sample := in.Data[b*inSz : (b+1)*inSz]
		dstAll := res.Data[b*outSz : (b+1)*outSz]
		for g := 0; g < c.Groups; g++ {
			tensor.Im2col(c.geom, sample[g*inCg*c.in.H*c.in.W:], c.col)
			dst := dstAll[g*outCg*spatial : (g+1)*outCg*spatial]
			w := c.weights.Data[g*outCg*k : (g+1)*outCg*k]
			tensor.Gemm(false, false, outCg, spatial, k, 1, w, c.col, 0, dst)
		}
		for oc := 0; oc < out.C; oc++ {
			bv := c.bias.Data[oc]
			row := dstAll[oc*spatial : (oc+1)*spatial]
			for i := range row {
				row[i] += bv
			}
		}
	}
	return res
}

// Backward implements Layer.
func (c *Conv) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	out := c.OutShape(c.in)
	spatial := out.H * out.W
	k := (c.in.C / c.Groups) * c.KernelH * c.KernelW
	outCg := c.OutC / c.Groups
	inCg := c.in.C / c.Groups
	gradIn := c.gradIn
	gradIn.Zero() // Col2im accumulates into its target
	inSz := c.in.Elems()
	outSz := out.Elems()
	colGrad := c.colGrad[:k*spatial]
	for b := 0; b < c.batch; b++ {
		gAll := gradOut.Data[b*outSz : (b+1)*outSz]
		// Bias gradient: sum over spatial positions.
		for oc := 0; oc < out.C; oc++ {
			row := gAll[oc*spatial : (oc+1)*spatial]
			var s float32
			for _, v := range row {
				s += v
			}
			c.bGrad.Data[oc] += s
		}
		sample := c.lastIn.Data[b*inSz : (b+1)*inSz]
		giSample := gradIn.Data[b*inSz : (b+1)*inSz]
		for grp := 0; grp < c.Groups; grp++ {
			g := gAll[grp*outCg*spatial : (grp+1)*outCg*spatial]
			w := c.weights.Data[grp*outCg*k : (grp+1)*outCg*k]
			wg := c.wGrad.Data[grp*outCg*k : (grp+1)*outCg*k]
			// Weight gradient: dW += g (outCg×spatial) · col^T (spatial×k).
			tensor.Im2col(c.geom, sample[grp*inCg*c.in.H*c.in.W:], c.col)
			tensor.Gemm(false, true, outCg, k, spatial, 1, g, c.col, 1, wg)
			// Input gradient: colGrad = W^T (k×outCg) · g, scattered
			// back by col2im into the group's input channels.
			tensor.Gemm(true, false, k, spatial, outCg, 1, w, g, 0, colGrad)
			tensor.Col2im(c.geom, colGrad, giSample[grp*inCg*c.in.H*c.in.W:])
		}
	}
	return gradIn
}

// Params implements Layer.
func (c *Conv) Params() []*tensor.Tensor { return c.params }

// Grads implements Layer.
func (c *Conv) Grads() []*tensor.Tensor { return c.grads }
