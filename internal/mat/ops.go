package mat

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// parallelThreshold is the minimum number of multiply-adds in a matmul before
// the work is split across goroutines. Below it the goroutine and
// synchronization overhead outweighs the parallel speedup.
const parallelThreshold = 64 * 64 * 64

// Mul returns a*b. It panics if the inner dimensions disagree.
// Large products are computed in parallel across GOMAXPROCS goroutines.
func Mul(a, b *Matrix) *Matrix {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: Mul dimension mismatch %dx%d by %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := New(a.rows, b.cols)
	MulTo(out, a, b)
	return out
}

// MulTo computes out = a*b into a preallocated matrix, avoiding allocation in
// hot loops. out must be a.rows×b.cols and must not alias a or b. On the
// SIMD path, products of at least packRows rows pack b into column panels
// and split those across goroutines (see mulPanels).
func MulTo(out, a, b *Matrix) {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: MulTo dimension mismatch %dx%d by %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	if out.rows != a.rows || out.cols != b.cols {
		panic(fmt.Sprintf("mat: MulTo output %dx%d, want %dx%d", out.rows, out.cols, a.rows, b.cols))
	}
	if simdCols[float64](b.cols) && a.rows >= packRows {
		mulPanels(out.data, a.data, b.data, a.rows, a.cols, b.cols, false)
		return
	}
	if serialMul(a.rows, a.rows*a.cols*b.cols) {
		mulRange(out, a, b, 0, a.rows)
		return
	}
	parallelRows(a.rows, func(lo, hi int) {
		mulRange(out, a, b, lo, hi)
	})
}

// serialMul reports whether a matmul splitting `rows` output rows with `work`
// total multiply-adds should run on the calling goroutine. It is the shared
// parallelism policy of MulTo, MulATTo and MulBTTo; keeping the check at the
// call site lets the serial fast path return before any closure is built, so
// small products stay allocation-free.
func serialMul(rows, work int) bool {
	return work < parallelThreshold || runtime.GOMAXPROCS(0) < 2 || rows < 2
}

// SIMD reports whether the matmul, tanh and AdaMax kernels run on the vector
// assembly on this host rather than on the scalar Go loops.
func SIMD() bool { return useFMA }

// parallelRows splits the half-open row range [0, rows) across GOMAXPROCS
// goroutines and runs fn(lo, hi) on each chunk. Every kernel splits only its
// output rows, so workers write disjoint memory and need no locks.
func parallelRows(rows int, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > rows {
		workers = rows
	}
	chunk := (rows + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < rows; lo += chunk {
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// mulRange computes rows [lo,hi) of out = a*b. The scalar loop runs in ikj
// order, streaming through b row-by-row for cache friendliness. Its k loop
// is unrolled four-wide so each output element is loaded and stored once per
// four multiply-adds; the accumulation order (chunks of four, then single
// leftovers) is shared with mulATRange and mulBTRange so the fused kernels
// are bit-identical to MulTo on an explicitly transposed operand. The gemm64
// micro-kernel repeats that order in every lane, so the SIMD path gives the
// same bits; the scalar loop is its fallback and test oracle.
func mulRange(out, a, b *Matrix, lo, hi int) {
	n := b.cols
	kk := a.cols
	if simdCols[float64](n) {
		gemmRows(out.data[lo*n:], n, a.data[lo*kk:], kk, 1, b.data, n, hi-lo, n, kk)
		return
	}
	for i := lo; i < hi; i++ {
		// The [:n] reslices pin every row to the same length as the output
		// row, letting the compiler drop the per-element bounds checks in the
		// inner loops.
		oi := out.data[i*n : i*n+n][:n]
		for j := range oi {
			oi[j] = 0
		}
		ai := a.data[i*kk : i*kk+kk]
		k := 0
		for ; k+4 <= kk; k += 4 {
			a0, a1, a2, a3 := ai[k], ai[k+1], ai[k+2], ai[k+3]
			b0 := b.data[k*n : k*n+n][:n]
			b1 := b.data[(k+1)*n : (k+1)*n+n][:n]
			b2 := b.data[(k+2)*n : (k+2)*n+n][:n]
			b3 := b.data[(k+3)*n : (k+3)*n+n][:n]
			for j := range oi {
				oi[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
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

// Dot returns the inner product of x and y, which must have equal length.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d vs %d", len(x), len(y)))
	}
	s := 0.0
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	// Scaled accumulation avoids overflow for large components.
	scale, ssq := 0.0, 1.0
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := v
		if a < 0 {
			a = -a
		}
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}
