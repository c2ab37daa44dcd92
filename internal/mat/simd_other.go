//go:build !amd64

package mat

// Non-amd64 builds always take the scalar kernels. The stubs exist
// so the dispatch sites compile; useFMA being false keeps them unreachable.

var useFMA = false

func gemm32(c *float32, ldc int, a *float32, ars int, aks int, b *float32, ldb int, m int, n int, kk int) {
	panic("mat: gemm32 called without SIMD support")
}

func adaMaxBlocks(w *float32, m *float32, u *float32, grad *float32, n int, beta1 float32, c1 float32, beta2 float32, step float32) {
	panic("mat: adaMaxBlocks called without SIMD support")
}

func tanhBlocks(v *float32, n int, c *float32) {
	panic("mat: tanhBlocks called without SIMD support")
}

func gemm64(c *float64, ldc int, a *float64, ars int, aks int, b *float64, ldb int, m int, n int, kk int) {
	panic("mat: gemm64 called without SIMD support")
}

func adaMaxBlocks64(w *float64, m *float64, u *float64, grad *float64, n int, beta1 float64, c1 float64, beta2 float64, step float64) {
	panic("mat: adaMaxBlocks64 called without SIMD support")
}
