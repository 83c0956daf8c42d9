package core

import (
	"scaffe/internal/data"
	"scaffe/internal/gpu"
	"scaffe/internal/layers"
	"scaffe/internal/models"
	"scaffe/internal/tensor"
)

// workload is one solver's training state: the communication buffers
// (packed and per-layer views) plus, in real-compute mode, the actual
// network and activations. In timing mode the buffers are payload-free
// and the math hooks are no-ops; virtual time is identical either way.
type workload struct {
	spec       *models.Spec
	net        *layers.Net // nil in timing mode
	localBatch int

	// paramData/gradData back the packed buffers in real mode.
	paramData []float32
	gradData  []float32
	// packedParams/packedGrads are the whole-model buffers
	// (packed_comm_buffer / packed_reduction_buffer of Figure 1).
	packedParams *gpu.Buffer
	packedGrads  *gpu.Buffer
	// layerParam/layerGrad are per-spec-layer views (nil for
	// parameter-free layers), the units of multi-stage communication.
	layerParam []*gpu.Buffer
	layerGrad  []*gpu.Buffer
	// buckets optionally coalesce consecutive layers' gradients into
	// fused reduction units (Config.BucketBytes).
	buckets []gradBucket
	// bufs is the arena the timing-mode buffers above are carved from.
	bufs []gpu.Buffer

	// Real-mode activation threading. input and labels are persistent
	// batch buffers refilled in place each iteration.
	act    *tensor.Tensor
	grad   *tensor.Tensor
	input  *tensor.Tensor
	labels []int
}

// newWorkload builds the buffers (and, in real mode, the network) for
// one rank, gradient buckets included when the design fuses reductions.
// All ranks use the same seed so replicas start identical, as Caffe's
// root-broadcast initialization guarantees.
func newWorkload(cfg *Config, localBatch int) *workload {
	layers := cfg.Spec.Layers
	w := &workload{
		spec: cfg.Spec, localBatch: localBatch,
		layerParam: make([]*gpu.Buffer, len(layers)),
		layerGrad:  make([]*gpu.Buffer, len(layers)),
	}
	total := cfg.Spec.TotalParams()
	bucketed := cfg.BucketBytes > 0 && (cfg.Design == SCOBR || cfg.Design == SCOBRF)
	if cfg.RealNet != nil {
		w.net = cfg.RealNet(localBatch, cfg.Seed)
		w.paramData = make([]float32, total)
		w.gradData = make([]float32, total)
		w.packedParams = gpu.WrapData(w.paramData)
		w.packedGrads = gpu.WrapData(w.gradData)
	} else {
		// Two packed buffers, two per parameter layer, and at most one
		// bucket per parameter layer.
		n, perLayer := 2, 2
		if bucketed {
			perLayer = 3
		}
		for _, l := range layers {
			if l.ParamElems != 0 {
				n += perLayer
			}
		}
		w.bufs = make([]gpu.Buffer, 0, n)
		w.packedParams = w.carve(total)
		w.packedGrads = w.carve(total)
	}
	off := 0
	for i, l := range layers {
		if l.ParamElems == 0 {
			continue
		}
		if w.real() {
			w.layerParam[i] = w.packedParams.Slice(off, off+l.ParamElems)
			w.layerGrad[i] = w.packedGrads.Slice(off, off+l.ParamElems)
		} else {
			w.layerParam[i] = w.carve(l.ParamElems)
			w.layerGrad[i] = w.carve(l.ParamElems)
		}
		off += l.ParamElems
	}
	if bucketed {
		w.buildBuckets(cfg.Spec, cfg.BucketBytes)
	}
	return w
}

// carve returns a payload-free buffer of the given element count from
// the rank's arena (timing mode), so a rank's buffers cost one
// allocation instead of one each. Buffers are immutable descriptors, so
// an arena that outgrows its capacity merely costs one more allocation.
func (w *workload) carve(elems int) *gpu.Buffer {
	w.bufs = append(w.bufs, gpu.Buffer{Bytes: int64(elems) * 4})
	return &w.bufs[len(w.bufs)-1]
}

// gradBucket is one fused reduction unit: the gradients of layers
// [lo, hi] (inclusive, by spec index).
type gradBucket struct {
	lo, hi int
	buf    *gpu.Buffer
}

// buildBuckets groups consecutive parameter layers until each bucket
// holds at least bucketBytes of gradients. Real-mode buckets are views
// into the contiguous packed gradient buffer; timing-mode buckets are
// logical buffers of the combined size.
func (w *workload) buildBuckets(spec *models.Spec, bucketBytes int64) {
	w.buckets = nil
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
		b := gradBucket{lo: lo, hi: hi}
		if w.real() {
			b.buf = w.packedGrads.Slice(offsets[lo], offsets[hi+1])
		} else {
			b.buf = w.carve(elems)
		}
		w.buckets = append(w.buckets, b)
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
	for i, j := 0, len(w.buckets)-1; i < j; i, j = i+1, j-1 {
		w.buckets[i], w.buckets[j] = w.buckets[j], w.buckets[i]
	}
}

// real reports whether this workload performs actual math.
func (w *workload) real() bool { return w.net != nil }

// packParams flattens the net's parameters into the packed buffer
// (root, before propagation).
func (w *workload) packParams() {
	if !w.real() {
		return
	}
	w.net.PackParams(w.paramData)
}

// unpackParams writes broadcast parameters back into the net
// (non-root, after propagation).
func (w *workload) unpackParams() {
	if !w.real() {
		return
	}
	w.net.UnpackParams(w.paramData)
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
// layer's gradients into its communication buffer.
func (w *workload) backwardLayer(l int) {
	if !w.real() {
		return
	}
	w.grad = w.net.BackwardLayer(l, w.grad)
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
	w.net.UnpackGrads(w.gradData)
}

// loss returns the last forward pass's loss (0 in timing mode).
func (w *workload) loss() float32 {
	if !w.real() {
		return 0
	}
	return w.net.LossLayer().Loss()
}
