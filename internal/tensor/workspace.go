package tensor

import "sync"

// The workspace pool hands out transient float32 scratch buffers (GEMM
// packing panels, layer workspaces) without allocating in steady
// state. It is a plain mutex-guarded free list rather than a
// sync.Pool: pooled buffers must survive GC cycles and be visible to
// every worker (sync.Pool's per-P private slots are invisible to other
// Ps, which costs a fresh allocation on almost every concurrent Get).
// The training hot path borrows and returns the same few buffers every
// iteration, so after warm-up GetScratch/PutScratch never allocate —
// the same workspace-reuse strategy Caffe applies to its im2col
// buffer.
var (
	scratchMu   sync.Mutex
	scratchFree []*[]float32
)

// GetScratch borrows a scratch slice of length n from the workspace
// pool. The contents are undefined; the caller must not retain the
// slice past the matching PutScratch.
func GetScratch(n int) *[]float32 {
	scratchMu.Lock()
	var p *[]float32
	if l := len(scratchFree); l > 0 {
		p = scratchFree[l-1]
		scratchFree = scratchFree[:l-1]
	}
	scratchMu.Unlock()
	if p == nil {
		s := make([]float32, n)
		return &s
	}
	if cap(*p) < n {
		*p = make([]float32, n)
	}
	*p = (*p)[:n]
	return p
}

// PutScratch returns a buffer obtained from GetScratch to the pool.
func PutScratch(p *[]float32) {
	scratchMu.Lock()
	scratchFree = append(scratchFree, p)
	scratchMu.Unlock()
}
