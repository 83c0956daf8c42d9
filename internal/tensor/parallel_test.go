package tensor

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// TestParallelForCoversEachIndexOnce: at any GOMAXPROCS, more workers
// than indices included, the ranges cover [0, n) exactly once, and each
// gets its own scratch of the requested length. Several goroutines fan
// out at once, so the race detector sees the pooled descriptors shared
// between callers.
func TestParallelForCoversEachIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			var wg sync.WaitGroup
			for caller := 0; caller < 4; caller++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, n := range []int{1, 2, 5, 16, 100} {
						hits := make([]int, n)
						lens := make([]int, n)
						ParallelFor(n, 3*n, rangeFunc(func(lo, hi int, scratch []float32) {
							for i := lo; i < hi; i++ {
								hits[i]++
								lens[i] = len(scratch)
							}
							for i := range scratch {
								scratch[i] = float32(lo) // the range's own storage
							}
						}))
						for i, h := range hits {
							if h != 1 || lens[i] != 3*n {
								t.Errorf("n=%d: index %d run %d times with %d floats of scratch", n, i, h, lens[i])
							}
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// rangeFunc adapts a closure to a Ranger.
type rangeFunc func(lo, hi int, scratch []float32)

func (f rangeFunc) Range(lo, hi int, scratch []float32) { f(lo, hi, scratch) }
