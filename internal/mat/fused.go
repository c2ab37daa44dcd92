package mat

import "fmt"

// fusedBlock is the row-tile size of the fused kernels: MulATTo sweeps its
// output rows in tiles of this many rows so the accumulated tile stays in
// cache while the kernel streams through the shared dimension, and MulBTTo
// tiles the rows of b so they are reused across output rows. 64 rows of a
// 1500-wide matrix is ~750 KiB of float64 traffic, comfortably inside L2.
const fusedBlock = 64

// MulAT returns aᵀ·b without materializing the transpose.
// It panics unless a and b have the same number of rows.
func MulAT(a, b *Matrix) *Matrix {
	out := New(a.cols, b.cols)
	MulATTo(out, a, b)
	return out
}

// MulATTo computes out = aᵀ·b into a preallocated matrix without
// materializing aᵀ: the kernel reads a and b row-major and scatters each row's
// outer-product contribution into the output. It is the backpropagation
// weight-gradient kernel (dW = activationsᵀ·delta). out must be
// a.cols×b.cols and must not alias a or b. Large products are split across
// GOMAXPROCS goroutines by output row, following the same parallelThreshold
// policy as MulTo.
func MulATTo(out, a, b *Matrix) {
	if a.rows != b.rows {
		panic(fmt.Sprintf("mat: MulATTo dimension mismatch %dx%d by %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	if out.rows != a.cols || out.cols != b.cols {
		panic(fmt.Sprintf("mat: MulATTo output %dx%d, want %dx%d", out.rows, out.cols, a.cols, b.cols))
	}
	if serialMul(a.cols, a.rows*a.cols*b.cols) {
		mulATRange(out, a, b, 0, a.cols)
		return
	}
	parallelRows(a.cols, func(lo, hi int) {
		mulATRange(out, a, b, lo, hi)
	})
}

// mulATRange computes output rows [lo,hi) of out = aᵀ·b. The shared dimension
// (rows of a and b) is unrolled four-wide with the same accumulation order as
// mulRange, so MulATTo(out, a, b) is bit-identical to MulTo(out, a.T(), b).
// Output rows are processed in fusedBlock tiles so the accumulating tile
// stays cached across the full sweep of the shared dimension. The SIMD path
// runs gemm64 with aᵀ read through a's strides, in the same order.
func mulATRange(out, a, b *Matrix, lo, hi int) {
	n := b.cols
	ka := a.cols
	rows := a.rows
	if simdCols[float64](n) && rows > 0 {
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
			// The [:n] reslices pin every operand row to the output-row
			// length so the inner loops run without bounds checks.
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

// MulBT returns a·bᵀ without materializing the transpose.
// It panics unless a and b have the same number of columns.
func MulBT(a, b *Matrix) *Matrix {
	out := New(a.rows, b.rows)
	MulBTTo(out, a, b)
	return out
}

// MulBTTo computes out = a·bᵀ into a preallocated matrix without
// materializing bᵀ: every output element is a dot product of a row of a with
// a row of b, both contiguous in row-major storage. It is the
// backpropagation delta kernel (prevDelta = delta·Wᵀ). out must be
// a.rows×b.rows and must not alias a or b. Large products are split across
// GOMAXPROCS goroutines, following the same parallelThreshold policy as
// MulTo: by output row on the scalar path, by column panels of out on the
// SIMD path (see mulPanels).
func MulBTTo(out, a, b *Matrix) {
	if a.cols != b.cols {
		panic(fmt.Sprintf("mat: MulBTTo dimension mismatch %dx%d by %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	if out.rows != a.rows || out.cols != b.rows {
		panic(fmt.Sprintf("mat: MulBTTo output %dx%d, want %dx%d", out.rows, out.cols, a.rows, b.rows))
	}
	if simdCols[float64](b.rows) {
		mulPanels(out.data, a.data, b.data, a.rows, a.cols, b.rows, true)
		return
	}
	if serialMul(a.rows, a.rows*a.cols*b.rows) {
		mulBTRange(out, a, b, 0, a.rows)
		return
	}
	parallelRows(a.rows, func(lo, hi int) {
		mulBTRange(out, a, b, lo, hi)
	})
}

// mulBTRange computes output rows [lo,hi) of out = a·bᵀ as row-by-row dot
// products, tiling the rows of b in fusedBlock chunks so each chunk is reused
// across every output row before eviction. The dot products accumulate in
// chunks of four with single-element leftovers — the same order as mulRange —
// so MulBTTo(out, a, b) is bit-identical to MulTo(out, a, b.T()). It is the
// fallback and test oracle of the SIMD path, which packs b into panels for
// gemm64.
func mulBTRange(out, a, b *Matrix, lo, hi int) {
	p := b.rows
	kk := a.cols
	for j0 := 0; j0 < p; j0 += fusedBlock {
		j1 := j0 + fusedBlock
		if j1 > p {
			j1 = p
		}
		for i := lo; i < hi; i++ {
			ai := a.data[i*kk : i*kk+kk]
			oi := out.data[i*p : i*p+p]
			for j := j0; j < j1; j++ {
				bj := b.data[j*kk : j*kk+kk]
				// Walking shrinking subslices (instead of indexing with
				// k..k+3) lets the compiler drop all bounds checks from the
				// unrolled dot product.
				u, v := ai, bj
				s := 0.0
				for len(u) >= 4 && len(v) >= 4 {
					s += u[0]*v[0] + u[1]*v[1] + u[2]*v[2] + u[3]*v[3]
					u, v = u[4:], v[4:]
				}
				for k, uk := range u {
					s += uk * v[k]
				}
				oi[j] = s
			}
		}
	}
}
