// AVX2 kernels: one register-blocked GEMM micro-kernel per precision behind
// all three training products (gemm32, gemm64), the AdaMax step per
// precision (adaMaxBlocks, adaMaxBlocks64) and the float32 tanh. The float32
// kernels may use FMA and reassociate; the float64 ones carry the package's
// bit-identical accumulation-order pin, which is a per-element operation
// order rather than a ban on SIMD: their lanes run across output elements
// and each lane performs exactly the multiplies and adds of the scalar Go
// loop, in its order, with no FMA. Each routine is a NOSPLIT leaf over
// caller-validated slices. The GEMM kernels cover every column of n >= one
// stripe themselves (the last stripe overlaps instead of leaving a tail);
// the element-wise routines process whole registers and leave the tail to
// the scalar Go loop, so no masked loads are needed.

#include "textflag.h"

// func cpuidLeaf(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidLeaf(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func gemm32(c *float32, ldc int, a *float32, ars int, aks int, b *float32, ldb int, m int, n int, kk int)
//
// For i in [0, m), j in [0, n), n >= 16:
//
//	c[i*ldc+j] = Σ_{k<kk} a[i*ars+k*aks] · b[k*ldb+j]
//
// The one float32 GEMM micro-kernel behind MulTo32, MulATTo32 and MulBTTo32.
// A is read through two strides, so ars=lda, aks=1 is a row-major A and
// ars=1, aks=lda is Aᵀ without a transpose; B is row-major (MulBTTo32 packs
// Bᵀ into 16-wide panels first). Every output element is a single FMA chain
// over k in ascending order, starting from zero, so the 4-row tiles, the
// single-row edge passes and any split of the rows or of the columns between
// callers all produce the same bits.
//
// Phase 1 walks 16-column stripes (the last one shifted left to end at n,
// overlapping its neighbour: the overlap is recomputed bit-identically, so
// no scalar tail is needed) and, within each stripe, 4-row tiles held in
// eight accumulators. Phase 2 handles the m%4 leftover rows one at a time,
// 64 columns per pass so eight chains still hide the FMA latency.
TEXT ·gemm32(SB), NOSPLIT, $0-80
	MOVQ ldc+8(FP), R8
	SHLQ $2, R8               // c row stride in bytes
	MOVQ ars+24(FP), R9
	SHLQ $2, R9               // a row stride in bytes
	MOVQ aks+32(FP), R10
	SHLQ $2, R10              // a k stride in bytes
	MOVQ ldb+48(FP), R11
	SHLQ $2, R11              // b row stride in bytes
	MOVQ n+64(FP), R13
	SUBQ $16, R13             // start of the last stripe
	MOVQ m+56(FP), R14
	ANDQ $-4, R14             // rows covered by 4-row tiles
	JZ   edge
	XORQ R12, R12             // j = 0
stripe:
	MOVQ R12, BX
	CMPQ BX, R13
	CMOVQGT R13, BX           // clamp the last stripe to end at n
	MOVQ b+40(FP), R15
	LEAQ (R15)(BX*4), R15     // &b[0][j]
	MOVQ c+0(FP), DI
	LEAQ (DI)(BX*4), DI       // &c[0][j]
	MOVQ a+16(FP), SI
	MOVQ m+56(FP), R14
	ANDQ $-4, R14
tile:
	MOVQ SI, AX               // &a[i][0]
	LEAQ (SI)(R9*2), BX       // &a[i+2][0]
	MOVQ R15, DX
	MOVQ kk+72(FP), CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	TESTQ CX, CX
	JZ   tilestore
tilek:
	VMOVUPS (DX), Y8
	VMOVUPS 32(DX), Y9
	VBROADCASTSS (AX), Y10
	VFMADD231PS Y8, Y10, Y0
	VFMADD231PS Y9, Y10, Y1
	VBROADCASTSS (AX)(R9*1), Y11
	VFMADD231PS Y8, Y11, Y2
	VFMADD231PS Y9, Y11, Y3
	VBROADCASTSS (BX), Y12
	VFMADD231PS Y8, Y12, Y4
	VFMADD231PS Y9, Y12, Y5
	VBROADCASTSS (BX)(R9*1), Y13
	VFMADD231PS Y8, Y13, Y6
	VFMADD231PS Y9, Y13, Y7
	ADDQ R10, AX
	ADDQ R10, BX
	ADDQ R11, DX
	DECQ CX
	JNZ  tilek
tilestore:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, (DI)(R8*1)
	VMOVUPS Y3, 32(DI)(R8*1)
	VMOVUPS Y4, (DI)(R8*2)
	VMOVUPS Y5, 32(DI)(R8*2)
	LEAQ (DI)(R8*2), AX
	VMOVUPS Y6, (AX)(R8*1)
	VMOVUPS Y7, 32(AX)(R8*1)
	LEAQ (SI)(R9*4), SI
	LEAQ (DI)(R8*4), DI
	SUBQ $4, R14
	JNZ  tile
	ADDQ $16, R12
	CMPQ R12, n+64(FP)
	JLT  stripe

edge:
	MOVQ m+56(FP), R14
	MOVQ R14, AX
	ANDQ $-4, AX              // first leftover row
	ANDQ $3, R14              // leftover rows
	JZ   done
	MOVQ AX, BX
	IMULQ R9, AX
	MOVQ a+16(FP), SI
	ADDQ AX, SI               // &a[m4][0]
	IMULQ R8, BX
	MOVQ c+0(FP), DI
	ADDQ BX, DI               // &c[m4][0]
row:
	XORQ R12, R12             // j = 0
wide:
	LEAQ 64(R12), AX
	CMPQ AX, n+64(FP)
	JGT  narrow
	MOVQ SI, AX
	MOVQ b+40(FP), DX
	LEAQ (DX)(R12*4), DX
	MOVQ kk+72(FP), CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	TESTQ CX, CX
	JZ   widestore
widek:
	VBROADCASTSS (AX), Y10
	VFMADD231PS (DX), Y10, Y0
	VFMADD231PS 32(DX), Y10, Y1
	VFMADD231PS 64(DX), Y10, Y2
	VFMADD231PS 96(DX), Y10, Y3
	VFMADD231PS 128(DX), Y10, Y4
	VFMADD231PS 160(DX), Y10, Y5
	VFMADD231PS 192(DX), Y10, Y6
	VFMADD231PS 224(DX), Y10, Y7
	ADDQ R10, AX
	ADDQ R11, DX
	DECQ CX
	JNZ  widek
widestore:
	LEAQ (DI)(R12*4), AX
	VMOVUPS Y0, (AX)
	VMOVUPS Y1, 32(AX)
	VMOVUPS Y2, 64(AX)
	VMOVUPS Y3, 96(AX)
	VMOVUPS Y4, 128(AX)
	VMOVUPS Y5, 160(AX)
	VMOVUPS Y6, 192(AX)
	VMOVUPS Y7, 224(AX)
	ADDQ $64, R12
	JMP  wide
narrow:
	CMPQ R12, n+64(FP)
	JGE  nextrow
	MOVQ R12, BX
	CMPQ BX, R13
	CMOVQGT R13, BX
	MOVQ SI, AX
	MOVQ b+40(FP), DX
	LEAQ (DX)(BX*4), DX
	MOVQ kk+72(FP), CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	TESTQ CX, CX
	JZ   narrowstore
narrowk:
	VBROADCASTSS (AX), Y10
	VFMADD231PS (DX), Y10, Y0
	VFMADD231PS 32(DX), Y10, Y1
	ADDQ R10, AX
	ADDQ R11, DX
	DECQ CX
	JNZ  narrowk
narrowstore:
	LEAQ (DI)(BX*4), AX
	VMOVUPS Y0, (AX)
	VMOVUPS Y1, 32(AX)
	ADDQ $16, R12
	JMP  narrow
nextrow:
	ADDQ R9, SI
	ADDQ R8, DI
	DECQ R14
	JNZ  row
done:
	VZEROUPPER
	RET

// func tanhBlocks(v *float32, n int, c *float32)
//
// In-place tanh over the first n&^7 elements of v: the same clamped rational
// approximation x·P(x²)/Q(x²) as the scalar Tanh32, eight lanes per
// iteration. c points at tanhConsts (bounds then the Horner coefficients in
// evaluation order); everything is hoisted into registers before the loop.
TEXT ·tanhBlocks(SB), NOSPLIT, $0-24
	MOVQ v+0(FP), SI
	MOVQ n+8(FP), CX
	MOVQ c+16(FP), BX
	ANDQ $-8, CX
	JZ   done
	LEAQ (SI)(CX*4), DI       // end pointer
	VBROADCASTSS 0(BX), Y3    // +bound
	VBROADCASTSS 4(BX), Y4    // -bound
	VBROADCASTSS 8(BX), Y5    // alpha13
	VBROADCASTSS 12(BX), Y6   // alpha11
	VBROADCASTSS 16(BX), Y7   // alpha9
	VBROADCASTSS 20(BX), Y8   // alpha7
	VBROADCASTSS 24(BX), Y9   // alpha5
	VBROADCASTSS 28(BX), Y10  // alpha3
	VBROADCASTSS 32(BX), Y11  // alpha1
	VBROADCASTSS 36(BX), Y12  // beta6
	VBROADCASTSS 40(BX), Y13  // beta4
	VBROADCASTSS 44(BX), Y14  // beta2
	VBROADCASTSS 48(BX), Y15  // beta0
loop:
	VMOVUPS (SI), Y0          // x
	VMINPS  Y3, Y0, Y0        // clamp above
	VMAXPS  Y4, Y0, Y0        // clamp below
	VMULPS  Y0, Y0, Y1        // x²
	VMOVAPS Y5, Y2            // p = alpha13
	VFMADD213PS Y6, Y1, Y2    // p = p·x² + alpha11
	VFMADD213PS Y7, Y1, Y2
	VFMADD213PS Y8, Y1, Y2
	VFMADD213PS Y9, Y1, Y2
	VFMADD213PS Y10, Y1, Y2
	VFMADD213PS Y11, Y1, Y2   // p = p·x² + alpha1
	VMULPS  Y0, Y2, Y2        // p·x
	VMOVAPS Y12, Y0           // q = beta6 (x no longer needed)
	VFMADD213PS Y13, Y1, Y0
	VFMADD213PS Y14, Y1, Y0
	VFMADD213PS Y15, Y1, Y0   // q = q·x² + beta0
	VDIVPS  Y0, Y2, Y2        // p/q
	VMOVUPS Y2, (SI)
	ADDQ $32, SI
	CMPQ SI, DI
	JLT  loop
done:
	VZEROUPPER
	RET

// func adaMaxBlocks(w *float32, m *float32, u *float32, grad *float32, n int, beta1 float32, c1 float32, beta2 float32, step float32)
//
// One AdaMax step over the first n&^7 elements, eight lanes at a time:
//
//	m = beta1·m + c1·g
//	u = max(|g|, beta2·u)   (|g| only where |g| > beta2·u, as the scalar if)
//	w = w − step·m/u        only where u > 0
//
// Deliberately no FMA: every operation rounds exactly like the scalar loop in
// adamax32.go, so each element is bit-identical to it. VMAXPS returns its
// second source unless the first is strictly greater, which is the scalar
// `if ag > au` including NaN lanes; the u > 0 test is an ordered compare and
// VBLENDVPS keeps w untouched where it fails.
TEXT ·adaMaxBlocks(SB), NOSPLIT, $0-56
	MOVQ w+0(FP), DI
	MOVQ m+8(FP), SI
	MOVQ u+16(FP), DX
	MOVQ grad+24(FP), BX
	MOVQ n+32(FP), CX
	ANDQ $-8, CX
	JZ   done
	VBROADCASTSS beta1+40(FP), Y8
	VBROADCASTSS c1+44(FP), Y9
	VBROADCASTSS beta2+48(FP), Y10
	VBROADCASTSS step+52(FP), Y11
	VPCMPEQD Y12, Y12, Y12
	VPSRLD $1, Y12, Y12       // 0x7fffffff: |x| mask
	VXORPS Y13, Y13, Y13      // 0
	XORQ AX, AX
loop:
	VMOVUPS (BX)(AX*4), Y1    // g
	VMULPS (SI)(AX*4), Y8, Y0 // beta1·m
	VMULPS Y1, Y9, Y2         // c1·g
	VADDPS Y2, Y0, Y0         // m
	VMOVUPS Y0, (SI)(AX*4)
	VMULPS (DX)(AX*4), Y10, Y3 // au = beta2·u
	VANDPS Y12, Y1, Y4        // ag = |g|
	VMAXPS Y3, Y4, Y3         // ag > au ? ag : au
	VMOVUPS Y3, (DX)(AX*4)
	VCMPPS $0x1e, Y13, Y3, Y5 // u > 0 (ordered)
	VMULPS Y0, Y11, Y6        // step·m
	VDIVPS Y3, Y6, Y6         // step·m/u
	VMOVUPS (DI)(AX*4), Y7    // w
	VSUBPS Y6, Y7, Y6         // w − step·m/u
	VBLENDVPS Y5, Y6, Y7, Y7  // u > 0 ? updated : w
	VMOVUPS Y7, (DI)(AX*4)
	ADDQ $8, AX
	CMPQ AX, CX
	JLT  loop
done:
	VZEROUPPER
	RET

// The gemm64 macros. TILEMUL loads b[k][j:j+4] once and writes the four
// products a[i+r][k]·b[k][j:j+4] of the tile rows r = 0..3 to p0..p3, then
// advances k; NARROWMUL does the same for one row. ADD4 adds p0..p3 to
// s0..s3 (s = s + p, the operand order of the scalar loops). Each product
// and each sum is a separate VMULPD or VADDPD, so every lane rounds exactly
// as the scalar Go code does.
#define TILEMUL(p0, p1, p2, p3) \
	VMOVUPD (DX), Y8; \
	VBROADCASTSD (AX), p0; \
	VMULPD Y8, p0, p0; \
	VBROADCASTSD (AX)(R9*1), p1; \
	VMULPD Y8, p1, p1; \
	VBROADCASTSD (BX), p2; \
	VMULPD Y8, p2, p2; \
	VBROADCASTSD (BX)(R9*1), p3; \
	VMULPD Y8, p3, p3; \
	ADDQ R10, AX; \
	ADDQ R10, BX; \
	ADDQ R11, DX

#define NARROWMUL(p0) \
	VBROADCASTSD (AX), Y8; \
	VMULPD (DX), Y8, p0; \
	ADDQ R10, AX; \
	ADDQ R11, DX

#define ADD4(p0, p1, p2, p3, s0, s1, s2, s3) \
	VADDPD p0, s0, s0; \
	VADDPD p1, s1, s1; \
	VADDPD p2, s2, s2; \
	VADDPD p3, s3, s3

// func gemm64(c *float64, ldc int, a *float64, ars int, aks int, b *float64, ldb int, m int, n int, kk int)
//
// For i in [0, m), j in [0, n), n >= 4:
//
//	c[i*ldc+j] = Σ_{k<kk} a[i*ars+k*aks] · b[k*ldb+j]
//
// The float64 GEMM micro-kernel behind MulTo, MulATTo and MulBTTo, with the
// operand conventions of gemm32. Its lanes run across output columns, and
// each lane repeats the operation order of the scalar loops in ops.go: the
// element starts from +0, every chunk of four k in ascending order is summed
// as ((a₀b₀ + a₁b₁) + a₂b₂) + a₃b₃ and then added to it, and the kk%4
// leftover products are added one at a time. There is no FMA and no
// reassociation, so the result is bit-identical to the scalar kernels and to
// any split of the rows or columns between callers.
//
// Phase 1 walks 4-column stripes (the last one shifted left to end at n,
// overlapping its neighbour) and, within each stripe, 4-row tiles held in
// four accumulators and four chunk sums. Phase 2 handles the m%4 leftover
// rows one at a time: it streams through b row by row like the scalar loop
// (a stripe-by-stripe walk of one row would stride through every row of a
// large b for each stripe) and finishes the n%4 columns with one
// overlapping register pass.
TEXT ·gemm64(SB), NOSPLIT, $0-80
	MOVQ ldc+8(FP), R8
	SHLQ $3, R8               // c row stride in bytes
	MOVQ ars+24(FP), R9
	SHLQ $3, R9               // a row stride in bytes
	MOVQ aks+32(FP), R10
	SHLQ $3, R10              // a k stride in bytes
	MOVQ ldb+48(FP), R11
	SHLQ $3, R11              // b row stride in bytes
	MOVQ n+64(FP), R13
	SUBQ $4, R13              // start of the last stripe
	MOVQ m+56(FP), R14
	ANDQ $-4, R14             // rows covered by 4-row tiles
	JZ   edge
	XORQ R12, R12             // j = 0
stripe:
	MOVQ R12, BX
	CMPQ BX, R13
	CMOVQGT R13, BX           // clamp the last stripe to end at n
	MOVQ b+40(FP), R15
	LEAQ (R15)(BX*8), R15     // &b[0][j]
	MOVQ c+0(FP), DI
	LEAQ (DI)(BX*8), DI       // &c[0][j]
	MOVQ a+16(FP), SI
	MOVQ m+56(FP), R14
	ANDQ $-4, R14
tile:
	MOVQ SI, AX               // &a[i][k]
	LEAQ (SI)(R9*2), BX       // &a[i+2][k]
	MOVQ R15, DX              // &b[k][j]
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ kk+72(FP), CX
	SHRQ $2, CX               // chunks of four k
	JZ   tilerem
tilechunk:
	TILEMUL(Y4, Y5, Y6, Y7)
	TILEMUL(Y9, Y10, Y11, Y12)
	ADD4(Y9, Y10, Y11, Y12, Y4, Y5, Y6, Y7)
	TILEMUL(Y9, Y10, Y11, Y12)
	ADD4(Y9, Y10, Y11, Y12, Y4, Y5, Y6, Y7)
	TILEMUL(Y9, Y10, Y11, Y12)
	ADD4(Y9, Y10, Y11, Y12, Y4, Y5, Y6, Y7)
	ADD4(Y4, Y5, Y6, Y7, Y0, Y1, Y2, Y3)
	DECQ CX
	JNZ  tilechunk
tilerem:
	MOVQ kk+72(FP), CX
	ANDQ $3, CX
	JZ   tilestore
tileremk:
	TILEMUL(Y9, Y10, Y11, Y12)
	ADD4(Y9, Y10, Y11, Y12, Y0, Y1, Y2, Y3)
	DECQ CX
	JNZ  tileremk
tilestore:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (DI)(R8*1)
	VMOVUPD Y2, (DI)(R8*2)
	LEAQ (DI)(R8*2), AX
	VMOVUPD Y3, (AX)(R8*1)
	LEAQ (SI)(R9*4), SI
	LEAQ (DI)(R8*4), DI
	SUBQ $4, R14
	JNZ  tile
	ADDQ $4, R12
	CMPQ R12, n+64(FP)
	JLT  stripe

edge:
	MOVQ m+56(FP), R14
	MOVQ R14, AX
	ANDQ $-4, AX              // first leftover row
	ANDQ $3, R14              // leftover rows
	JZ   done
	MOVQ AX, BX
	IMULQ R9, AX
	MOVQ a+16(FP), SI
	ADDQ AX, SI               // &a[m4][0]
	IMULQ R8, BX
	MOVQ c+0(FP), DI
	ADDQ BX, DI               // &c[m4][0]
row:
	// A leftover row streams through b row by row, as the scalar loop
	// does, over the n&^3 columns of whole registers: c starts at +0 and
	// each chunk sum, then each leftover product, is added to it in memory.
	MOVQ n+64(FP), R12
	ANDQ $-4, R12
	LEAQ (DI)(R12*8), R12     // end of the whole registers of c's row
	VXORPD Y0, Y0, Y0
	MOVQ DI, BX
zero:
	VMOVUPD Y0, (BX)
	ADDQ $32, BX
	CMPQ BX, R12
	JLT  zero
	MOVQ SI, AX               // &a[i][k]
	MOVQ b+40(FP), R13        // &b[k][0]
	MOVQ kk+72(FP), CX
	SHRQ $2, CX
	JZ   streamrem
streamchunk:
	VBROADCASTSD (AX), Y12
	ADDQ R10, AX
	VBROADCASTSD (AX), Y13
	ADDQ R10, AX
	VBROADCASTSD (AX), Y14
	ADDQ R10, AX
	VBROADCASTSD (AX), Y15
	ADDQ R10, AX
	MOVQ R13, DX              // &b[k][j]
	LEAQ (R13)(R11*2), R15    // &b[k+2][j]
	MOVQ DI, BX               // &c[i][j]
streamj:
	VMULPD (DX), Y12, Y0
	VMULPD (DX)(R11*1), Y13, Y1
	VADDPD Y1, Y0, Y0
	VMULPD (R15), Y14, Y1
	VADDPD Y1, Y0, Y0
	VMULPD (R15)(R11*1), Y15, Y1
	VADDPD Y1, Y0, Y0
	VMOVUPD (BX), Y1
	VADDPD Y0, Y1, Y1
	VMOVUPD Y1, (BX)
	ADDQ $32, DX
	ADDQ $32, R15
	ADDQ $32, BX
	CMPQ BX, R12
	JLT  streamj
	LEAQ (R13)(R11*4), R13
	DECQ CX
	JNZ  streamchunk
streamrem:
	MOVQ kk+72(FP), CX
	ANDQ $3, CX
	JZ   tail
streamremk:
	VBROADCASTSD (AX), Y12
	ADDQ R10, AX
	MOVQ R13, DX
	MOVQ DI, BX
streamremj:
	VMULPD (DX), Y12, Y0
	VMOVUPD (BX), Y1
	VADDPD Y0, Y1, Y1
	VMOVUPD Y1, (BX)
	ADDQ $32, DX
	ADDQ $32, BX
	CMPQ BX, R12
	JLT  streamremj
	ADDQ R11, R13
	DECQ CX
	JNZ  streamremk
tail:
	// n%4 leftover columns: one register pass over the last four columns,
	// accumulated in registers and overlapping columns already written
	// with the same bits.
	MOVQ n+64(FP), BX
	TESTQ $3, BX
	JZ   nextrow
	SUBQ $4, BX               // j = n-4
	MOVQ SI, AX
	MOVQ b+40(FP), DX
	LEAQ (DX)(BX*8), DX
	VXORPD Y0, Y0, Y0
	MOVQ kk+72(FP), CX
	SHRQ $2, CX
	JZ   tailrem
tailchunk:
	NARROWMUL(Y4)
	NARROWMUL(Y9)
	VADDPD Y9, Y4, Y4
	NARROWMUL(Y10)
	VADDPD Y10, Y4, Y4
	NARROWMUL(Y11)
	VADDPD Y11, Y4, Y4
	VADDPD Y4, Y0, Y0
	DECQ CX
	JNZ  tailchunk
tailrem:
	MOVQ kk+72(FP), CX
	ANDQ $3, CX
	JZ   tailstore
tailremk:
	NARROWMUL(Y9)
	VADDPD Y9, Y0, Y0
	DECQ CX
	JNZ  tailremk
tailstore:
	VMOVUPD Y0, (DI)(BX*8)
nextrow:
	ADDQ R9, SI
	ADDQ R8, DI
	DECQ R14
	JNZ  row
done:
	VZEROUPPER
	RET

// func adaMaxBlocks64(w *float64, m *float64, u *float64, grad *float64, n int, beta1 float64, c1 float64, beta2 float64, step float64)
//
// The float64 twin of adaMaxBlocks: one AdaMax step over the first n&^3
// elements, four lanes at a time, with the same instruction sequence and so
// the same bits as the scalar loop.
TEXT ·adaMaxBlocks64(SB), NOSPLIT, $0-72
	MOVQ w+0(FP), DI
	MOVQ m+8(FP), SI
	MOVQ u+16(FP), DX
	MOVQ grad+24(FP), BX
	MOVQ n+32(FP), CX
	ANDQ $-4, CX
	JZ   done
	VBROADCASTSD beta1+40(FP), Y8
	VBROADCASTSD c1+48(FP), Y9
	VBROADCASTSD beta2+56(FP), Y10
	VBROADCASTSD step+64(FP), Y11
	VPCMPEQQ Y12, Y12, Y12
	VPSRLQ $1, Y12, Y12       // 0x7fff…: |x| mask
	VXORPD Y13, Y13, Y13      // 0
	XORQ AX, AX
loop:
	VMOVUPD (BX)(AX*8), Y1    // g
	VMULPD (SI)(AX*8), Y8, Y0 // beta1·m
	VMULPD Y1, Y9, Y2         // c1·g
	VADDPD Y2, Y0, Y0         // m
	VMOVUPD Y0, (SI)(AX*8)
	VMULPD (DX)(AX*8), Y10, Y3 // au = beta2·u
	VANDPD Y12, Y1, Y4        // ag = |g|
	VMAXPD Y3, Y4, Y3         // ag > au ? ag : au
	VMOVUPD Y3, (DX)(AX*8)
	VCMPPD $0x1e, Y13, Y3, Y5 // u > 0 (ordered)
	VMULPD Y0, Y11, Y6        // step·m
	VDIVPD Y3, Y6, Y6         // step·m/u
	VMOVUPD (DI)(AX*8), Y7    // w
	VSUBPD Y6, Y7, Y6         // w − step·m/u
	VBLENDVPD Y5, Y6, Y7, Y7  // u > 0 ? updated : w
	VMOVUPD Y7, (DI)(AX*8)
	ADDQ $4, AX
	CMPQ AX, CX
	JLT  loop
done:
	VZEROUPPER
	RET
