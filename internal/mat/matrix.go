// Package mat provides the dense linear algebra needed by the performance
// modelers and the neural-network library: matrices backed by contiguous
// float64 storage, basic BLAS-like kernels with optional goroutine
// parallelism, and a reusable QR factorization for least squares.
//
// The package is deliberately small: it implements exactly what the rest of
// the module needs, with predictable memory behavior (no hidden aliasing,
// explicit Clone), rather than a general numerical toolkit.
//
// The matmul family — MulTo and the fused transpose-free kernels MulATTo
// (aᵀ·b) and MulBTTo (a·bᵀ) — shares one accumulation order (each element
// starts from +0, adds the sums of chunks of four products, then the single
// leftovers) so the fused kernels are bit-identical to MulTo on an
// explicitly transposed operand, and one parallelism policy: products above
// parallelThreshold multiply-adds split their output rows or column panels
// across GOMAXPROCS goroutines (disjoint writes, no locks), smaller ones run
// serially without allocating. The order is a per-element contract, not a
// loop: on amd64 hosts with AVX2 the products run on the gemm64 assembly
// micro-kernel, whose lanes repeat it with separate multiplies and adds, so
// the SIMD path and the scalar Go loops give the same bits. The float32
// twins (Matrix32) share the SIMD driver but only promise tolerance parity.
// See DESIGN.md §6 and §11 and docs/PERFORMANCE.md.
package mat

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense, row-major matrix of float64 values.
// The zero value is an empty 0x0 matrix.
type Matrix struct {
	rows, cols int
	data       []float64
}

// New returns a rows×cols matrix of zeros.
// It panics if either dimension is negative.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewFromData wraps data as a rows×cols matrix without copying.
// It panics if len(data) != rows*cols.
func NewFromData(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("mat: data length %d does not match %dx%d", len(data), rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: data}
}

// NewFromRows builds a matrix from a slice of equally long rows, copying them.
func NewFromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	c := len(rows[0])
	m := New(len(rows), c)
	for i, r := range rows {
		if len(r) != c {
			panic(fmt.Sprintf("mat: ragged rows: row %d has %d values, want %d", i, len(r), c))
		}
		copy(m.data[i*c:(i+1)*c], r)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set stores v at row i, column j.
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// Row returns row i as a slice aliasing the matrix storage.
// Mutating the returned slice mutates the matrix.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range %d", i, m.rows))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Data returns the underlying row-major storage, aliased.
func (m *Matrix) Data() []float64 { return m.data }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// T returns a newly allocated transpose of m.
func (m *Matrix) T() *Matrix {
	t := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		ri := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range ri {
			t.data[j*m.rows+i] = v
		}
	}
	return t
}

// Scale multiplies every element of m by s, in place.
func (m *Matrix) Scale(s float64) {
	for i := range m.data {
		m.data[i] *= s
	}
}

// Add adds b to m element-wise, in place. The shapes must match.
func (m *Matrix) Add(b *Matrix) {
	m.sameShape(b)
	for i, v := range b.data {
		m.data[i] += v
	}
}

// Sub subtracts b from m element-wise, in place. The shapes must match.
func (m *Matrix) Sub(b *Matrix) {
	m.sameShape(b)
	for i, v := range b.data {
		m.data[i] -= v
	}
}

// AddScaled adds s*b to m element-wise, in place. The shapes must match.
func (m *Matrix) AddScaled(s float64, b *Matrix) {
	m.sameShape(b)
	for i, v := range b.data {
		m.data[i] += s * v
	}
}

// Zero sets every element of m to zero.
func (m *Matrix) Zero() {
	for i := range m.data {
		m.data[i] = 0
	}
}

func (m *Matrix) sameShape(b *Matrix) {
	if m.rows != b.rows || m.cols != b.cols {
		panic(fmt.Sprintf("mat: shape mismatch %dx%d vs %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
}

// Equal reports whether m and b have the same shape and all elements are
// within tol of each other.
func (m *Matrix) Equal(b *Matrix, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i, v := range m.data {
		if math.Abs(v-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// MaxAbs returns the largest absolute element value, or 0 for an empty matrix.
func (m *Matrix) MaxAbs() float64 {
	max := 0.0
	for _, v := range m.data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%dx%d[", m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		if i > 0 {
			sb.WriteString("; ")
		}
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%.4g", m.data[i*m.cols+j])
		}
	}
	sb.WriteByte(']')
	return sb.String()
}
