//go:build !amd64

package mat

// Non-amd64 builds always take the scalar float32 kernels. The stubs exist
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
