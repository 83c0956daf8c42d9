//go:build !amd64

package tensor

func cpuKernel() microKernelID { return kernelGo }

func microKernelAVX2(k int, a []float32, ars, aps int, b []float32, bs int, c []float32, cs int) {
	panic("tensor: no AVX2 micro-kernel on this GOARCH")
}

func microKernelAVX512(k int, a []float32, ars, aps int, b []float32, bs int, c []float32, cs int) {
	panic("tensor: no AVX-512 micro-kernel on this GOARCH")
}
