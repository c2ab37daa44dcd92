//go:build amd64

package mat

// The matmul, tanh and AdaMax kernels dispatch to AVX2 assembly when the CPU
// has AVX2 and FMA (the float32 kernels use FMA; the bit-pinned float64 ones
// do not, but share the one check). Detection follows the standard Intel sequence: the instruction sets must be
// present (CPUID leaf 1 ECX for FMA/AVX/OSXSAVE, leaf 7 EBX for AVX2) and
// the OS must have enabled XMM+YMM state saving (XGETBV XCR0 bits 1 and 2),
// otherwise the ymm registers trap. useFMA is a var, not a const, so tests
// can force the scalar fallback on SIMD-capable hosts.

//go:noescape
func gemm32(c *float32, ldc int, a *float32, ars int, aks int, b *float32, ldb int, m int, n int, kk int)

//go:noescape
func gemm64(c *float64, ldc int, a *float64, ars int, aks int, b *float64, ldb int, m int, n int, kk int)

//go:noescape
func adaMaxBlocks64(w *float64, m *float64, u *float64, grad *float64, n int, beta1 float64, c1 float64, beta2 float64, step float64)

//go:noescape
func adaMaxBlocks(w *float32, m *float32, u *float32, grad *float32, n int, beta1 float32, c1 float32, beta2 float32, step float32)

//go:noescape
func tanhBlocks(v *float32, n int, c *float32)

func cpuidLeaf(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax, edx uint32)

var useFMA = detectFMA()

func detectFMA() bool {
	maxLeaf, _, _, _ := cpuidLeaf(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const (
		bitFMA     = 1 << 12 // leaf 1 ECX
		bitOSXSAVE = 1 << 27 // leaf 1 ECX
		bitAVX     = 1 << 28 // leaf 1 ECX
		bitAVX2    = 1 << 5  // leaf 7 EBX
	)
	_, _, c1, _ := cpuidLeaf(1, 0)
	if c1&bitFMA == 0 || c1&bitOSXSAVE == 0 || c1&bitAVX == 0 {
		return false
	}
	if xl, _ := xgetbv0(); xl&6 != 6 { // OS saves XMM and YMM state
		return false
	}
	_, b7, _, _ := cpuidLeaf(7, 0)
	return b7&bitAVX2 != 0
}
