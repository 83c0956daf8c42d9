package tensor

import (
	"runtime"
	"sync"
)

// A Ranger is the work of a fan-out: Range computes [lo, hi) of it,
// with scratch as storage of its own.
type Ranger interface {
	Range(lo, hi int, scratch []float32)
}

// ParallelFor is the package's one fan-out; Gemm's parallel path runs
// on it too. It cuts [0, n) into contiguous ranges, at most one per
// GOMAXPROCS, and calls body.Range(lo, hi, scratch) once per range: the
// first on the calling goroutine, the others on the persistent worker
// pool. It returns when every range is done. scratch is scratchLen
// floats of grow-only storage that belongs to the range for the length
// of the call; its contents are undefined. A pointer body makes a call
// allocation-free in steady state.
//
// A body that writes only the outputs its range owns, each with the
// serial kernels in the serial order, gives bit-identical results at any
// GOMAXPROCS. A body must not fan out again — no ParallelFor and no
// Gemm, which fans out above gemmParallelThreshold; GemmCols is its
// multiply. A nested fan-out could park every pool worker on ranges that
// only a pool worker can run.
func ParallelFor(n, scratchLen int, body Ranger) {
	if n < 1 {
		return
	}
	f := getFanCall()
	f.body, f.scratchLen = body, scratchLen
	f.run(n, 1)
	putFanCall(f)
}

// fanTask is one range of a fan-out, run by a pool worker.
type fanTask struct {
	call         *fanCall
	part, lo, hi int
}

// fanCall is a pooled fan-out descriptor. Pooling it — its WaitGroup,
// its per-range scratch and Gemm's operands — keeps a fan-out
// allocation-free. A sequential caller gets the same descriptor back
// every time, so its scratch stops growing after the largest request.
type fanCall struct {
	body       Ranger
	scratchLen int
	scratch    [][]float32 // per range, grow-only
	wg         sync.WaitGroup
	gemm       gemmArgs // Gemm's operands, body while Gemm runs
}

var (
	poolOnce sync.Once
	taskQ    chan fanTask

	fanCallMu   sync.Mutex
	fanCallFree []*fanCall
)

// startPool spins up the persistent workers. They block on the task
// queue when idle; the pool is sized to the machine, since a fan-out
// has at most GOMAXPROCS ranges anyway (and queues any beyond it).
func startPool() {
	n := max(runtime.NumCPU(), 1)
	// Room for several fan-outs' ranges, so a caller queues all of its
	// ranges and starts its own without waiting for workers to pick
	// each up, even at GOMAXPROCS above the core count.
	taskQ = make(chan fanTask, 4*n)
	for i := 0; i < n; i++ {
		go func() {
			for t := range taskQ {
				t.call.runPart(t.part, t.lo, t.hi)
				t.call.wg.Done()
			}
		}()
	}
}

// run cuts [0, n) into ranges whose length is a multiple of align (the
// last may be shorter), one per worker, and runs f.body on each.
func (f *fanCall) run(n, align int) {
	workers := min(runtime.GOMAXPROCS(0), n)
	per := (n + workers - 1) / workers
	per = (per + align - 1) / align * align
	parts := (n + per - 1) / per
	for len(f.scratch) < parts {
		f.scratch = append(f.scratch, nil)
	}
	if parts > 1 {
		poolOnce.Do(startPool)
		f.wg.Add(parts - 1)
		for w := 1; w < parts; w++ {
			taskQ <- fanTask{call: f, part: w, lo: w * per, hi: min((w+1)*per, n)}
		}
	}
	f.runPart(0, 0, min(per, n))
	f.wg.Wait()
}

// runPart runs one range with its own scratch, grown if it is short.
// Each range touches only its own element of f.scratch.
func (f *fanCall) runPart(part, lo, hi int) {
	if cap(f.scratch[part]) < f.scratchLen {
		f.scratch[part] = make([]float32, f.scratchLen)
	}
	f.body.Range(lo, hi, f.scratch[part][:f.scratchLen])
}

func getFanCall() *fanCall {
	fanCallMu.Lock()
	var f *fanCall
	if n := len(fanCallFree); n > 0 {
		f = fanCallFree[n-1]
		fanCallFree = fanCallFree[:n-1]
	}
	fanCallMu.Unlock()
	if f == nil {
		f = new(fanCall)
	}
	return f
}

func putFanCall(f *fanCall) {
	f.body = nil
	f.gemm = gemmArgs{}
	fanCallMu.Lock()
	fanCallFree = append(fanCallFree, f)
	fanCallMu.Unlock()
}
