package core

import (
	"slices"

	"scaffe/internal/data"
	"scaffe/internal/gpu"
	"scaffe/internal/layers"
	"scaffe/internal/models"
	"scaffe/internal/mpi"
	"scaffe/internal/tensor"
)

// workload is one solver's training state: the communication buffers
// (its layout) plus, in real-compute mode, the actual network and
// activations. In timing mode the buffers are payload-free and the math
// hooks are no-ops; virtual time is identical either way.
type workload struct {
	*layout
	net        *layers.Net // nil in timing mode
	localBatch int

	// bcast holds each parameter layer's broadcast request, one slot per
	// parameter layer in spec order, from its post until the node that
	// awaits it (SC-OB and SC-OBR); req holds the request of the blocking
	// operation in flight (runState.addBlocking).
	bcast []*mpi.Request
	req   [1]*mpi.Request

	// Real-mode activation threading. input and labels are persistent
	// batch buffers refilled in place each iteration.
	act    *tensor.Tensor
	grad   *tensor.Tensor
	input  *tensor.Tensor
	labels []int
}

// layout is a model's communication buffers: the whole-model packed
// buffers (packed_comm_buffer / packed_reduction_buffer of Figure 1),
// their per-layer views and the gradient buckets. A timing run builds
// one, payload-free, that every rank's workload points at: a
// payload-free buffer is an immutable size descriptor (gpu.Buffer). A
// real run builds one per replica over the replica's own payloads.
type layout struct {
	packedParams *gpu.Buffer
	packedGrads  *gpu.Buffer
	// layerParam/layerGrad are per-spec-layer views (nil for
	// parameter-free layers), the units of multi-stage communication.
	layerParam []*gpu.Buffer
	layerGrad  []*gpu.Buffer
	// buckets optionally coalesce consecutive layers' gradients into
	// fused reduction units (Config.BucketBytes).
	buckets []gradBucket
}

// newLayout builds cfg's layout, carrying payloads iff real, gradient
// buckets included when cfg sets a bucket size (SC-OBR only).
func newLayout(cfg *Config, real bool) *layout {
	total, n := cfg.Spec.TotalParams(), len(cfg.Spec.Layers)
	lay := &layout{layerParam: make([]*gpu.Buffer, n), layerGrad: make([]*gpu.Buffer, n)}
	if real {
		lay.packedParams, lay.packedGrads = gpu.NewDataBuffer(total), gpu.NewDataBuffer(total)
	} else {
		lay.packedParams, lay.packedGrads = gpu.NewBuffer(int64(total)*4), gpu.NewBuffer(int64(total)*4)
	}
	off := 0
	for i, l := range cfg.Spec.Layers {
		if l.ParamElems != 0 {
			lay.layerParam[i] = lay.packedParams.Slice(off, off+l.ParamElems)
			lay.layerGrad[i] = lay.packedGrads.Slice(off, off+l.ParamElems)
			off += l.ParamElems
		}
	}
	if cfg.BucketBytes > 0 {
		lay.buildBuckets(cfg.Spec, cfg.BucketBytes)
	}
	return lay
}

// newWorkload builds one rank's training state over the run's timing
// layout, or, in real mode, over a layout and network of its own. All
// ranks use the same seed so replicas start identical, as Caffe's
// root-broadcast initialization guarantees.
func (st *runState) newWorkload(localBatch int) *workload {
	cfg := st.cfg
	w := &workload{layout: st.layout, localBatch: localBatch}
	if cfg.Design == SCOB || cfg.Design == SCOBR {
		n := 0
		for _, l := range cfg.Spec.Layers {
			if l.ParamElems != 0 {
				n++
			}
		}
		w.bcast = make([]*mpi.Request, n)
	}
	if cfg.RealNet != nil {
		w.net = cfg.RealNet(localBatch, cfg.Seed)
		w.layout = newLayout(cfg, true)
	}
	return w
}

// gradBucket is one fused reduction unit: the gradients of layers
// [lo, hi] (inclusive, by spec index).
type gradBucket struct {
	lo, hi int
	buf    *gpu.Buffer
}

// buildBuckets groups consecutive parameter layers until each bucket
// holds at least bucketBytes of gradients: views of the packed gradient
// buffer, payload-free or not as it is.
func (lay *layout) buildBuckets(spec *models.Spec, bucketBytes int64) {
	lay.buckets = nil
	offsets := make([]int, len(spec.Layers)+1)
	for i, l := range spec.Layers {
		offsets[i+1] = offsets[i] + l.ParamElems
	}
	lo := -1
	var elems int
	flush := func(hi int) {
		if lo < 0 {
			return
		}
		lay.buckets = append(lay.buckets, gradBucket{lo, hi, lay.packedGrads.Slice(offsets[lo], offsets[hi+1])})
		lo, elems = -1, 0
	}
	for i, l := range spec.Layers {
		if l.ParamElems == 0 {
			continue
		}
		if lo < 0 {
			lo = i
		}
		elems += l.ParamElems
		if int64(elems)*4 >= bucketBytes {
			flush(i)
		}
	}
	flush(len(spec.Layers) - 1)
	// Reverse into backward-pass order (the order buckets complete).
	slices.Reverse(lay.buckets)
}

// real reports whether this workload performs actual math.
func (w *workload) real() bool { return w.net != nil }

// packParams flattens the net's parameters into the packed buffer
// (root, before propagation).
func (w *workload) packParams() {
	if !w.real() {
		return
	}
	w.net.PackParams(w.packedParams.Data)
}

// unpackParams writes broadcast parameters back into the net
// (non-root, after propagation).
func (w *workload) unpackParams() {
	if !w.real() {
		return
	}
	w.net.UnpackParams(w.packedParams.Data)
}

// loadBatch assembles this rank's slice of the global batch for the
// iteration: rank r takes samples [iter·G + r·b, iter·G + (r+1)·b), so
// the union over ranks equals the single-solver batch exactly.
func (w *workload) loadBatch(ds data.Dataset, iter, globalBatch, rankOffset int) {
	if !w.real() {
		return
	}
	if w.input == nil {
		w.initInput(ds)
	}
	start := iter*globalBatch + rankOffset
	data.BatchTensorInto(ds, start, w.localBatch, w.input.Data, w.labels)
	w.net.ZeroGrads()
}

// initInput allocates the rank's input tensor and label buffer on
// first use; every later iteration loads into the same buffers.
func (w *workload) initInput(ds data.Dataset) {
	sh := ds.Shape()
	w.input = tensor.New(w.localBatch, sh.C, sh.H, sh.W)
	w.labels = make([]int, w.localBatch)
}

// beginForward resets activation threading.
func (w *workload) beginForward() {
	if w.real() {
		w.act = w.input
	}
}

// forwardLayer runs layer l's real math (no-op in timing mode).
func (w *workload) forwardLayer(l int) {
	if w.real() {
		w.act = w.net.ForwardLayer(l, w.act, w.labels)
	}
}

// beginBackward resets gradient threading.
func (w *workload) beginBackward() {
	if w.real() {
		w.grad = nil
	}
}

// backwardLayer runs layer l's real backward math and packs the
// layer's gradients into its communication buffer. Layer 0 computes no
// input gradient, as Caffe's data layer does not propagate down, and
// no rank needs it.
func (w *workload) backwardLayer(l int) {
	if !w.real() {
		return
	}
	if l == 0 {
		w.net.BackwardParams(0, w.grad)
	} else {
		w.grad = w.net.BackwardLayer(l, w.grad)
	}
	if w.layerGrad[l] == nil {
		return
	}
	dst := w.layerGrad[l].Data
	off := 0
	for _, g := range w.net.Layers[l].Grads() {
		copy(dst[off:off+g.Len()], g.Data)
		off += g.Len()
	}
}

// unpackLayerParams writes one layer's broadcast parameters back into
// the net (SC-OB's per-layer waits).
func (w *workload) unpackLayerParams(l int) {
	if !w.real() || w.layerParam[l] == nil {
		return
	}
	src := w.layerParam[l].Data
	off := 0
	for _, p := range w.net.Layers[l].Params() {
		copy(p.Data, src[off:off+p.Len()])
		off += p.Len()
	}
}

// unpackGrads writes the reduced gradient buffer back into the net
// (root, before ApplyUpdate).
func (w *workload) unpackGrads() {
	if !w.real() {
		return
	}
	w.net.UnpackGrads(w.packedGrads.Data)
}

// loss returns the last forward pass's loss (0 in timing mode).
func (w *workload) loss() float32 {
	if !w.real() {
		return 0
	}
	return w.net.LossLayer().Loss()
}
