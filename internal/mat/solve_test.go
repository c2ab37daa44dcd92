package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLeastSquaresExact(t *testing.T) {
	// Square full-rank system: LS solution equals exact solution.
	a := NewFromRows([][]float64{{2, 1}, {1, 3}})
	x, err := LeastSquares(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-10 || math.Abs(x[1]-3) > 1e-10 {
		t.Fatalf("x = %v, want [1 3]", x)
	}
}

func TestLeastSquaresOverdetermined(t *testing.T) {
	// Fit y = 2 + 3t over noisy-free samples; recovery must be exact.
	ts := []float64{1, 2, 3, 4, 5, 6}
	rows := make([][]float64, len(ts))
	b := make([]float64, len(ts))
	for i, tv := range ts {
		rows[i] = []float64{1, tv}
		b[i] = 2 + 3*tv
	}
	x, err := LeastSquares(NewFromRows(rows), b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-10 || math.Abs(x[1]-3) > 1e-10 {
		t.Fatalf("x = %v, want [2 3]", x)
	}
}

func TestLeastSquaresResidualOrthogonality(t *testing.T) {
	// Property: at the LS optimum the residual is orthogonal to the column
	// space, i.e. A^T (Ax - b) == 0.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := 6+rng.Intn(10), 2+rng.Intn(3)
		a := New(m, n)
		for i := range a.Data() {
			a.Data()[i] = rng.NormFloat64()
		}
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := LeastSquares(a, b)
		if err != nil {
			return true // singular random draw: skip
		}
		r := mulVec(a, x)
		for i := range r {
			r[i] -= b[i]
		}
		atr := mulVec(a.T(), r)
		for _, v := range atr {
			if math.Abs(v) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLeastSquaresSingular(t *testing.T) {
	// Duplicate columns → singular.
	a := NewFromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	if _, err := LeastSquares(a, []float64{1, 2, 3}); err == nil {
		t.Fatal("expected error for rank-deficient system")
	}
}

func TestLeastSquaresUnderdetermined(t *testing.T) {
	if _, err := LeastSquares(New(2, 3), []float64{1, 2}); err == nil {
		t.Fatal("expected error for underdetermined system")
	}
}

func TestLeastSquaresShapeMismatch(t *testing.T) {
	if _, err := LeastSquares(New(3, 2), []float64{1, 2}); err == nil {
		t.Fatal("expected error for rhs length mismatch")
	}
}

// mulVec returns a·x.
func mulVec(a *Matrix, x []float64) []float64 {
	out := make([]float64, a.Rows())
	for i := range out {
		out[i] = Dot(a.Row(i), x)
	}
	return out
}

// solveNormal solves the normal equations AᵀA·x = Aᵀb by Gaussian
// elimination with partial pivoting: an oracle independent of QR for
// well-conditioned problems.
func solveNormal(a *Matrix, b []float64) []float64 {
	n := a.Cols()
	g := Mul(a.T(), a)
	rhs := mulVec(a.T(), b)
	for k := 0; k < n; k++ {
		piv := k
		for i := k + 1; i < n; i++ {
			if math.Abs(g.At(i, k)) > math.Abs(g.At(piv, k)) {
				piv = i
			}
		}
		for j := 0; j < n; j++ {
			pk, ij := g.At(k, j), g.At(piv, j)
			g.Set(k, j, ij)
			g.Set(piv, j, pk)
		}
		rhs[k], rhs[piv] = rhs[piv], rhs[k]
		for i := k + 1; i < n; i++ {
			f := g.At(i, k) / g.At(k, k)
			for j := k; j < n; j++ {
				g.Set(i, j, g.At(i, j)-f*g.At(k, j))
			}
			rhs[i] -= f * rhs[k]
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := rhs[i]
		for j := i + 1; j < n; j++ {
			s -= g.At(i, j) * x[j]
		}
		x[i] = s / g.At(i, i)
	}
	return x
}

// Property: QR least squares and the normal-equation solve agree on
// well-conditioned problems.
func TestSolversAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := 8+rng.Intn(8), 2+rng.Intn(3)
		a := New(m, n)
		for i := range a.Data() {
			a.Data()[i] = rng.NormFloat64() + 2 // keep away from singularity
		}
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x1, err := LeastSquares(a, b)
		if err != nil {
			return true
		}
		x2 := solveNormal(a, b)
		for i := range x1 {
			if math.Abs(x1[i]-x2[i]) > 1e-6*(1+math.Abs(x1[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// randomQR factors a random rows×cols design whose columns span several
// orders of magnitude, like a PMNF design, and returns it with the matrix.
func randomQR(t *testing.T, rng *rand.Rand, rows, cols int) (*QR, *Matrix) {
	t.Helper()
	a := New(rows, cols)
	for j := 0; j < cols; j++ {
		mag := math.Pow(10, float64(rng.Intn(9)))
		for i := 0; i < rows; i++ {
			a.Set(i, j, mag*(rng.Float64()+0.1))
		}
	}
	var f QR
	f.Reset(rows, cols)
	for j := 0; j < cols; j++ {
		col := f.Col(j)
		for i := range col {
			col[i] = a.At(i, j)
		}
	}
	if err := f.Factor(); err != nil {
		t.Fatal(err)
	}
	return &f, a
}

// Leverages must equal the diagonal of the hat matrix A(AᵀA)⁻¹Aᵀ, computed
// here column by column from the normal-equation oracle: hᵢᵢ is the fitted
// value at i of the least-squares fit to the unit vector eᵢ.
func TestQRLeveragesMatchHatMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		rows, cols := 6+rng.Intn(10), 1+rng.Intn(4)
		f, a := randomQR(t, rng, rows, cols)
		h := make([]float64, rows)
		f.Leverages(h)
		sum := 0.0
		for i := 0; i < rows; i++ {
			e := make([]float64, rows)
			e[i] = 1
			want := Dot(a.Row(i), solveNormal(a, e))
			if math.Abs(h[i]-want) > 1e-8 {
				t.Fatalf("trial %d: h[%d] = %v, hat matrix %v", trial, i, h[i], want)
			}
			if h[i] < 0 || h[i] > 1+1e-12 {
				t.Fatalf("trial %d: h[%d] = %v outside [0, 1]", trial, i, h[i])
			}
			sum += h[i]
		}
		// The trace of a projection equals its rank.
		if math.Abs(sum-float64(cols)) > 1e-10 {
			t.Fatalf("trial %d: trace of hat matrix %v, want %d", trial, sum, cols)
		}
	}
}

// Fitted must be A·x for the coefficients Solve returned, and the whole fit
// must be linear in b: scaling b by a power of two scales the coefficients
// and fitted values bit for bit.
func TestQRFittedAndLinearInRHS(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 20; trial++ {
		rows, cols := 6+rng.Intn(10), 1+rng.Intn(4)
		f, a := randomQR(t, rng, rows, cols)
		b := make([]float64, rows)
		for i := range b {
			b[i] = rng.NormFloat64() * 1e3
		}
		x, err := f.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		x = append([]float64(nil), x...)
		fit := make([]float64, rows)
		f.Fitted(fit)
		ax := mulVec(a, x)
		for i := range fit {
			if math.Abs(fit[i]-ax[i]) > 1e-9*(1+math.Abs(ax[i])) {
				t.Fatalf("trial %d: fitted[%d] = %v, A·x = %v", trial, i, fit[i], ax[i])
			}
		}
		scaled := make([]float64, rows)
		for i, v := range b {
			scaled[i] = v * 0x1p37
		}
		xs, err := f.Solve(scaled)
		if err != nil {
			t.Fatal(err)
		}
		fitScaled := make([]float64, rows)
		f.Fitted(fitScaled)
		for i := range x {
			if xs[i] != x[i]*0x1p37 {
				t.Fatalf("trial %d: coefficient %d not linear in b: %v vs %v", trial, i, xs[i], x[i]*0x1p37)
			}
		}
		for i := range fit {
			if fitScaled[i] != fit[i]*0x1p37 {
				t.Fatalf("trial %d: fitted value %d not linear in b", trial, i)
			}
		}
	}
}

func TestQRRejectsBadColumns(t *testing.T) {
	for name, col := range map[string][]float64{
		"zero": {0, 0, 0, 0},
		"inf":  {1, math.Inf(1), 2, 3},
		"nan":  {1, math.NaN(), 2, 3},
	} {
		var f QR
		f.Reset(4, 2)
		copy(f.Col(0), []float64{1, 1, 1, 1})
		copy(f.Col(1), col)
		if err := f.Factor(); err != ErrSingular {
			t.Errorf("%s column: Factor error %v, want ErrSingular", name, err)
		}
	}
}
