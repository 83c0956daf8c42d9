//go:build !amd64

package tensor

func cpuHasAVX2() bool { return false }

func microKernelAVX2(k int, a []float32, ars, aps int, b []float32, bs int, c []float32, cs int) {
	panic("tensor: no AVX2 micro-kernel on this GOARCH")
}
