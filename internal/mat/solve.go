package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a solve encounters a (numerically) singular
// system.
var ErrSingular = errors.New("mat: singular system")

// rankTol is the numerical rank test of QR: a diagonal entry of R at or
// below rankTol times the largest one marks the design rank-deficient.
const rankTol = 1e-12

// QR is a reusable thin QR factorization A = Q·R of a tall rows×cols
// matrix, sized for the many small least-squares fits of PMNF hypothesis
// search. One Factor serves everything such a fit needs: the least-squares
// coefficients of a right-hand side (Solve), the fitted values Q·Qᵀb
// (Fitted) and the leverages hᵢᵢ = ‖Qᵢ,:‖², the diagonal of the hat matrix
// (Leverages), which give exact leave-one-out predictions without refitting.
//
// The design is written column by column through Col. Factor equilibrates
// every column to unit norm first — PMNF designs mix an intercept column of
// ones with term columns spanning many orders of magnitude — and
// orthogonalizes with classical Gram-Schmidt plus one re-orthogonalization
// pass (CGS2), which keeps Q orthonormal to working precision. The column
// scaling depends on A only, so every quantity derived from b is linear in
// b: scaling b by a power of two scales the coefficients and fitted values
// exactly.
//
// The zero value is ready for Reset. A QR is not safe for concurrent use.
type QR struct {
	rows, cols int
	q          []float64 // column-major rows×cols: the design until Factor, Q after
	r          []float64 // row-major cols×cols upper triangle of R
	scale      []float64 // column norms divided out by Factor
	proj       []float64 // Gram-Schmidt projection coefficients
	qtb        []float64 // Qᵀb of the last Solve
	x          []float64 // coefficients of the last Solve
}

// Reset sizes the factorization for a rows×cols design, reusing its buffers
// when they are large enough. The design columns must be written through Col
// before Factor. It panics if cols < 1 or rows < cols.
func (f *QR) Reset(rows, cols int) {
	if cols < 1 || rows < cols {
		panic(fmt.Sprintf("mat: QR needs rows >= cols >= 1, got %dx%d", rows, cols))
	}
	f.rows, f.cols = rows, cols
	f.q = grow(f.q, rows*cols)
	f.r = grow(f.r, cols*cols)
	f.scale = grow(f.scale, cols)
	f.proj = grow(f.proj, cols)
	f.qtb = grow(f.qtb, cols)
	f.x = grow(f.x, cols)
}

// grow returns s resliced to length n, reallocating only when its capacity
// is too small. The contents are unspecified.
func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// Col returns column j of the design (length rows) for writing. After
// Factor it holds column j of Q.
func (f *QR) Col(j int) []float64 {
	return f.q[j*f.rows : (j+1)*f.rows : (j+1)*f.rows]
}

// Factor equilibrates and factors the design. It returns ErrSingular when a
// column is zero or not finite, or when the design is numerically
// rank-deficient (a diagonal entry of R at or below 1e-12 times the largest).
func (f *QR) Factor() error {
	p := f.cols
	for i := range f.r {
		f.r[i] = 0
	}
	maxDiag := 0.0
	for j := 0; j < p; j++ {
		col := f.Col(j)
		// Scaled two-pass norm: the largest magnitude first, then the sum of
		// squares of the column divided by it, which cannot overflow.
		maxAbs := 0.0
		for _, v := range col {
			if a := math.Abs(v); a > maxAbs {
				maxAbs = a
			}
		}
		if maxAbs == 0 || math.IsInf(maxAbs, 0) {
			return ErrSingular
		}
		inv := 1 / maxAbs
		ss := 0.0
		for _, v := range col {
			s := v * inv
			ss += s * s
		}
		norm := maxAbs * math.Sqrt(ss)
		if math.IsNaN(norm) {
			return ErrSingular
		}
		f.scale[j] = norm
		scaleTo(col, 1/norm)

		// CGS2: project the previous Q columns out twice; the second pass
		// removes what rounding left of the first.
		for pass := 0; pass < 2; pass++ {
			for k := 0; k < j; k++ {
				f.proj[k] = Dot(f.Col(k), col)
			}
			for k := 0; k < j; k++ {
				c := f.proj[k]
				qk := f.Col(k)
				for i := range col {
					col[i] -= c * qk[i]
				}
				f.r[k*p+j] += c
			}
		}
		ss = 0
		for _, v := range col {
			ss += v * v
		}
		d := math.Sqrt(ss)
		if d == 0 {
			return ErrSingular
		}
		f.r[j*p+j] = d
		if d > maxDiag {
			maxDiag = d
		}
		scaleTo(col, 1/d)
	}
	for j := 0; j < p; j++ {
		if f.r[j*p+j] <= rankTol*maxDiag {
			return ErrSingular
		}
	}
	return nil
}

// scaleTo multiplies x by s in place.
func scaleTo(x []float64, s float64) {
	for i := range x {
		x[i] *= s
	}
}

// Solve returns the least-squares coefficients x minimizing ‖A·x − b‖₂ for
// the factored design: R·x' = Qᵀb, then x = x' unscaled by the column norms.
// The returned slice is owned by f and valid until the next Reset or Solve.
// It returns ErrSingular when a coefficient is not finite.
func (f *QR) Solve(b []float64) ([]float64, error) {
	if len(b) != f.rows {
		return nil, fmt.Errorf("mat: QR.Solve shape mismatch: %d rows vs %d rhs", f.rows, len(b))
	}
	p := f.cols
	for k := 0; k < p; k++ {
		f.qtb[k] = Dot(f.Col(k), b)
	}
	for i := p - 1; i >= 0; i-- {
		s := f.qtb[i]
		for j := i + 1; j < p; j++ {
			s -= f.r[i*p+j] * f.x[j]
		}
		f.x[i] = s / f.r[i*p+i]
	}
	for i := range f.x {
		f.x[i] /= f.scale[i]
		if math.IsNaN(f.x[i]) || math.IsInf(f.x[i], 0) {
			return nil, ErrSingular
		}
	}
	return f.x, nil
}

// Fitted writes the fitted values Q·Qᵀb of the last Solve into dst
// (length rows).
func (f *QR) Fitted(dst []float64) {
	for i := range dst[:f.rows] {
		dst[i] = 0
	}
	for k := 0; k < f.cols; k++ {
		c := f.qtb[k]
		for i, v := range f.Col(k) {
			dst[i] += v * c
		}
	}
}

// Leverages writes the hat-matrix diagonal hᵢᵢ = ‖Qᵢ,:‖² of the factored
// design into dst (length rows). Each lies in [0, 1] up to rounding.
func (f *QR) Leverages(dst []float64) {
	for i := range dst[:f.rows] {
		dst[i] = 0
	}
	for k := 0; k < f.cols; k++ {
		for i, v := range f.Col(k) {
			dst[i] += v * v
		}
	}
}

// LeastSquares solves min_x ‖A·x − b‖₂ for a full-column-rank A through QR.
// A is rows×cols with rows >= cols, b has length rows. The returned slice
// has length cols.
func LeastSquares(a *Matrix, b []float64) ([]float64, error) {
	if a.rows != len(b) {
		return nil, fmt.Errorf("mat: LeastSquares shape mismatch: %d rows vs %d rhs", a.rows, len(b))
	}
	if a.rows < a.cols {
		return nil, fmt.Errorf("mat: LeastSquares underdetermined: %dx%d", a.rows, a.cols)
	}
	if a.cols == 0 {
		return []float64{}, nil
	}
	var f QR
	f.Reset(a.rows, a.cols)
	for j := 0; j < a.cols; j++ {
		col := f.Col(j)
		for i := range col {
			col[i] = a.data[i*a.cols+j]
		}
	}
	if err := f.Factor(); err != nil {
		return nil, err
	}
	return f.Solve(b)
}
