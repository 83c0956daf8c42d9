package tensor

import (
	"math/rand"
	"testing"
)

// BenchmarkGemv times the dedicated matrix-vector path against routing
// the same shape through Gemm with n=1 (what the code used to do).
func BenchmarkGemv(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const m, k = 4096, 1024
	a := randSlice(rng, m*k)
	x := randSlice(rng, k)
	y := make([]float32, m)
	b.Run("gemv", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Gemv(false, m, k, 1, a, x, 0, y)
		}
	})
	b.Run("gemm-n1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Gemm(false, false, m, 1, k, 1, a, x, 0, y)
		}
	})
}
