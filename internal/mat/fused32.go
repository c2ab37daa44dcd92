package mat

import "fmt"

// Float32 twins of the matmul family. They share the shape contracts, the
// serialMul/parallelRows parallelism policy and, on amd64 hosts with AVX2,
// the SIMD driver of gemm.go with the float64 kernels, but not the
// accumulation order: the float64 kernels are pinned bit-identical to their
// scalar loops, while the float32 twins only promise tolerance parity, which
// frees them to reassociate — gemm32 runs one FMA chain per output element.
// Without SIMD they fall back to the unrolled scalar forms below, tuned per
// kernel for what gc's register allocator will actually keep in registers.

// Mul32 returns a*b. It panics if the inner dimensions disagree.
func Mul32(a, b *Matrix32) *Matrix32 {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: Mul32 dimension mismatch %dx%d by %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := New32(a.rows, b.cols)
	MulTo32(out, a, b)
	return out
}

// MulTo32 computes out = a*b into a preallocated float32 matrix. out must be
// a.rows×b.cols and must not alias a or b. Large products are split across
// GOMAXPROCS goroutines by output row, following the same parallelThreshold
// policy as MulTo.
func MulTo32(out, a, b *Matrix32) {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: MulTo32 dimension mismatch %dx%d by %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	if out.rows != a.rows || out.cols != b.cols {
		panic(fmt.Sprintf("mat: MulTo32 output %dx%d, want %dx%d", out.rows, out.cols, a.rows, b.cols))
	}
	if serialMul(a.rows, a.rows*a.cols*b.cols) {
		mulRange32(out, a, b, 0, a.rows)
		return
	}
	parallelRows(a.rows, func(lo, hi int) {
		mulRange32(out, a, b, lo, hi)
	})
}

// mulRange32 computes rows [lo,hi) of out = a*b. The scalar fallback keeps
// the ikj loop order of mulRange, but an eight-wide k unroll: unlike the
// float64 kernel, whose four-wide accumulation order is pinned
// bit-identical, the float32 twin only promises tolerance parity, so it
// trades accumulation-order compatibility for halving the out-row
// load/store traffic per multiply-add. (Register tiling in Go was tried and
// measured slower — gc spills the accumulators — which is why the SIMD path
// tiles in assembly.)
func mulRange32(out, a, b *Matrix32, lo, hi int) {
	n := b.cols
	kk := a.cols
	if simdCols[float32](n) {
		gemmRows(out.data[lo*n:], n, a.data[lo*kk:], kk, 1, b.data, n, hi-lo, n, kk)
		return
	}
	for i := lo; i < hi; i++ {
		oi := out.data[i*n : i*n+n][:n]
		for j := range oi {
			oi[j] = 0
		}
		ai := a.data[i*kk : i*kk+kk]
		k := 0
		for ; k+8 <= kk; k += 8 {
			a0, a1, a2, a3 := ai[k], ai[k+1], ai[k+2], ai[k+3]
			a4, a5, a6, a7 := ai[k+4], ai[k+5], ai[k+6], ai[k+7]
			b0 := b.data[k*n : k*n+n][:n]
			b1 := b.data[(k+1)*n : (k+1)*n+n][:n]
			b2 := b.data[(k+2)*n : (k+2)*n+n][:n]
			b3 := b.data[(k+3)*n : (k+3)*n+n][:n]
			b4 := b.data[(k+4)*n : (k+4)*n+n][:n]
			b5 := b.data[(k+5)*n : (k+5)*n+n][:n]
			b6 := b.data[(k+6)*n : (k+6)*n+n][:n]
			b7 := b.data[(k+7)*n : (k+7)*n+n][:n]
			for j := range oi {
				s0 := a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
				s1 := a4*b4[j] + a5*b5[j] + a6*b6[j] + a7*b7[j]
				oi[j] += s0 + s1
			}
		}
		for ; k < kk; k++ {
			aik := ai[k]
			bk := b.data[k*n : k*n+n][:n]
			for j := range oi {
				oi[j] += aik * bk[j]
			}
		}
	}
}

// MulATTo32 computes out = aᵀ·b without materializing the transpose — the
// float32 backpropagation weight-gradient kernel. out must be a.cols×b.cols
// and must not alias a or b.
func MulATTo32(out, a, b *Matrix32) {
	if a.rows != b.rows {
		panic(fmt.Sprintf("mat: MulATTo32 dimension mismatch %dx%d by %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	if out.rows != a.cols || out.cols != b.cols {
		panic(fmt.Sprintf("mat: MulATTo32 output %dx%d, want %dx%d", out.rows, out.cols, a.cols, b.cols))
	}
	if serialMul(a.cols, a.rows*a.cols*b.cols) {
		mulATRange32(out, a, b, 0, a.cols)
		return
	}
	parallelRows(a.cols, func(lo, hi int) {
		mulATRange32(out, a, b, lo, hi)
	})
}

// mulATRange32 computes output rows [lo,hi) of out = aᵀ·b; the micro-kernel
// reads aᵀ through a's strides. The scalar fallback mirrors mulATRange:
// fusedBlock output-row tiles, four-wide unroll over the sample dimension
// (wider unrolls were measured slower — too many live slices for the
// register allocator).
func mulATRange32(out, a, b *Matrix32, lo, hi int) {
	n := b.cols
	ka := a.cols
	rows := a.rows
	if simdCols[float32](n) {
		gemmRows(out.data[lo*n:], n, a.data[lo:], 1, ka, b.data, n, hi-lo, n, rows)
		return
	}
	for k := lo; k < hi; k++ {
		ok := out.data[k*n : k*n+n]
		for j := range ok {
			ok[j] = 0
		}
	}
	for k0 := lo; k0 < hi; k0 += fusedBlock {
		k1 := k0 + fusedBlock
		if k1 > hi {
			k1 = hi
		}
		i := 0
		for ; i+4 <= rows; i += 4 {
			a0 := a.data[i*ka : i*ka+ka]
			a1 := a.data[(i+1)*ka : (i+1)*ka+ka]
			a2 := a.data[(i+2)*ka : (i+2)*ka+ka]
			a3 := a.data[(i+3)*ka : (i+3)*ka+ka]
			b0 := b.data[i*n : i*n+n][:n]
			b1 := b.data[(i+1)*n : (i+1)*n+n][:n]
			b2 := b.data[(i+2)*n : (i+2)*n+n][:n]
			b3 := b.data[(i+3)*n : (i+3)*n+n][:n]
			for k := k0; k < k1; k++ {
				c0, c1, c2, c3 := a0[k], a1[k], a2[k], a3[k]
				ok := out.data[k*n : k*n+n][:n]
				for j := range ok {
					ok[j] += c0*b0[j] + c1*b1[j] + c2*b2[j] + c3*b3[j]
				}
			}
		}
		for ; i < rows; i++ {
			ai := a.data[i*ka : i*ka+ka]
			bi := b.data[i*n : i*n+n][:n]
			for k := k0; k < k1; k++ {
				aik := ai[k]
				ok := out.data[k*n : k*n+n][:n]
				for j := range ok {
					ok[j] += aik * bi[j]
				}
			}
		}
	}
}

// MulBTTo32 computes out = a·bᵀ without materializing the transpose — the
// float32 backpropagation delta kernel. out must be a.rows×b.rows and must
// not alias a or b. On the SIMD path large products are split across
// GOMAXPROCS goroutines by column panels of out (see mulPanels).
func MulBTTo32(out, a, b *Matrix32) {
	if a.cols != b.cols {
		panic(fmt.Sprintf("mat: MulBTTo32 dimension mismatch %dx%d by %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	if out.rows != a.rows || out.cols != b.rows {
		panic(fmt.Sprintf("mat: MulBTTo32 output %dx%d, want %dx%d", out.rows, out.cols, a.rows, b.rows))
	}
	if simdCols[float32](b.rows) {
		mulPanels(out.data, a.data, b.data, a.rows, a.cols, b.rows, true)
		return
	}
	if serialMul(a.rows, a.rows*a.cols*b.rows) {
		mulBTRange32(out, a, b, 0, a.rows)
		return
	}
	parallelRows(a.rows, func(lo, hi int) {
		mulBTRange32(out, a, b, lo, hi)
	})
}

// mulBTRange32 is the scalar fallback of MulBTTo32. It keeps mulBTRange's
// fusedBlock tiling over the rows of b, but runs each dot product on four
// independent accumulators with an eight-wide unroll: a single running sum serializes on the ~4-cycle FP add latency,
// and the float32 kernel — unlike its bit-pinned float64 twin — is free to
// reassociate the reduction to keep the pipeline full.
func mulBTRange32(out, a, b *Matrix32, lo, hi int) {
	p := b.rows
	kk := a.cols
	for j0 := 0; j0 < p; j0 += fusedBlock {
		j1 := j0 + fusedBlock
		if j1 > p {
			j1 = p
		}
		for i := lo; i < hi; i++ {
			ai := a.data[i*kk : i*kk+kk][:kk]
			oi := out.data[i*p : i*p+p]
			// 1×4 micro-kernel: four output dots advance in lockstep over one
			// a-row, giving four independent accumulation chains (the dots the
			// training shapes produce are only a few dozen elements long, so a
			// single chain would spend most of its time stalled on FP-add
			// latency) and one load of ai[k] shared across four products.
			j := j0
			for ; j+4 <= j1; j += 4 {
				b0 := b.data[j*kk : j*kk+kk][:kk]
				b1 := b.data[(j+1)*kk : (j+1)*kk+kk][:kk]
				b2 := b.data[(j+2)*kk : (j+2)*kk+kk][:kk]
				b3 := b.data[(j+3)*kk : (j+3)*kk+kk][:kk]
				var s0, s1, s2, s3 float32
				for k, av := range ai {
					s0 += av * b0[k]
					s1 += av * b1[k]
					s2 += av * b2[k]
					s3 += av * b3[k]
				}
				oi[j], oi[j+1], oi[j+2], oi[j+3] = s0, s1, s2, s3
			}
			for ; j < j1; j++ {
				bj := b.data[j*kk : j*kk+kk][:kk]
				var s0, s1 float32
				k := 0
				for ; k+4 <= kk; k += 4 {
					s0 += ai[k]*bj[k] + ai[k+1]*bj[k+1]
					s1 += ai[k+2]*bj[k+2] + ai[k+3]*bj[k+3]
				}
				for ; k < kk; k++ {
					s0 += ai[k] * bj[k]
				}
				oi[j] = s0 + s1
			}
		}
	}
}
