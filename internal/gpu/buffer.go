package gpu

import "fmt"

// Buffer is a region of (simulated) device or host memory. Bytes is
// the logical size that drives transfer and reduction timing; Data is
// an optional real payload so that collective algorithms can be
// verified numerically. Figure-scale sweeps run payload-free buffers
// (Data == nil) to keep wall-clock cost bounded while virtual timing
// is unchanged.
//
// A payload-free buffer is its size: an immutable descriptor that any
// number of ranks, requests and operations may share, as source and
// destination at once. Nothing writes one after it is made — a timing
// run's corruption is marked on the receive (mpi.Summed), never on the
// buffer — so a run builds one timing layout for every rank, and a
// reducer one view or scratch descriptor per size.
type Buffer struct {
	// Bytes is the logical size of the buffer.
	Bytes int64
	// Data optionally holds the real contents (len == Bytes/4).
	Data []float32
}

// NewBuffer returns a payload-free buffer of the given logical size.
func NewBuffer(bytes int64) *Buffer { return &Buffer{Bytes: bytes} }

// NewDataBuffer returns a buffer carrying a real payload of n float32
// elements (logical size 4n bytes).
func NewDataBuffer(n int) *Buffer {
	return &Buffer{Bytes: int64(n) * 4, Data: make([]float32, n)}
}

// WrapData returns a buffer aliasing the given payload.
func WrapData(data []float32) *Buffer {
	return &Buffer{Bytes: int64(len(data)) * 4, Data: data}
}

// Elems returns the element count of the buffer.
func (b *Buffer) Elems() int { return int(b.Bytes / 4) }

// Slice returns a view of elements [lo, hi) of the buffer. Views share
// payload storage with the parent.
func (b *Buffer) Slice(lo, hi int) *Buffer {
	v := b.View(lo, hi)
	return &v
}

// View is Slice by value, for callers that keep views in storage of
// their own.
func (b *Buffer) View(lo, hi int) Buffer {
	if lo < 0 || hi < lo || int64(hi)*4 > b.Bytes {
		panic(fmt.Sprintf("gpu: buffer slice [%d,%d) out of range (%d elems)", lo, hi, b.Elems()))
	}
	v := Buffer{Bytes: int64(hi-lo) * 4}
	if b.Data != nil {
		v.Data = b.Data[lo:hi]
	}
	return v
}

// CopyFrom copies src's payload into b (sizes must match when both
// carry payloads). Timing is the caller's concern; this is the data
// plane only.
func (b *Buffer) CopyFrom(src *Buffer) {
	if b.Bytes != src.Bytes {
		panic(fmt.Sprintf("gpu: copy size mismatch: dst %d bytes, src %d bytes", b.Bytes, src.Bytes))
	}
	if b.Data != nil && src.Data != nil {
		copy(b.Data, src.Data)
	}
}

// Accumulate adds src into b element-wise (the data plane of a
// reduction step).
func (b *Buffer) Accumulate(src *Buffer) {
	if b.Bytes != src.Bytes {
		panic(fmt.Sprintf("gpu: accumulate size mismatch: dst %d bytes, src %d bytes", b.Bytes, src.Bytes))
	}
	if b.Data == nil || src.Data == nil {
		return
	}
	for i, v := range src.Data {
		b.Data[i] += v
	}
}

// Fill sets every element of the payload to v.
func (b *Buffer) Fill(v float32) {
	for i := range b.Data {
		b.Data[i] = v
	}
}
