package mat

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("got %dx%d, want 3x4", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Errorf("At(%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1, 2) did not panic")
		}
	}()
	New(-1, 2)
}

func TestSetAt(t *testing.T) {
	m := New(2, 2)
	m.Set(0, 1, 3.5)
	m.Set(1, 0, -2)
	if m.At(0, 1) != 3.5 || m.At(1, 0) != -2 {
		t.Fatalf("Set/At round-trip failed: %v", m)
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	m := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("At(2,0) did not panic")
		}
	}()
	m.At(2, 0)
}

func TestNewFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged NewFromRows did not panic")
		}
	}()
	NewFromRows([][]float64{{1, 2}, {3}})
}

func TestNewFromDataLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewFromData with wrong length did not panic")
		}
	}()
	NewFromData(2, 2, []float64{1, 2, 3})
}

func TestIdentity(t *testing.T) {
	id := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Errorf("Identity(3)[%d,%d] = %v, want %v", i, j, id.At(i, j), want)
			}
		}
	}
}

func TestTranspose(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows() != 3 || tr.Cols() != 2 {
		t.Fatalf("transpose shape %dx%d, want 3x2", tr.Rows(), tr.Cols())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Errorf("T mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(8), 1+rng.Intn(8)
		m := New(r, c)
		for i := range m.Data() {
			m.Data()[i] = rng.NormFloat64()
		}
		return m.T().T().Equal(m, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCloneIndependent(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestAddSubScale(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {3, 4}})
	b := NewFromRows([][]float64{{10, 20}, {30, 40}})
	a.Add(b)
	want := NewFromRows([][]float64{{11, 22}, {33, 44}})
	if !a.Equal(want, 0) {
		t.Fatalf("Add: got %v want %v", a, want)
	}
	a.Sub(b)
	if !a.Equal(NewFromRows([][]float64{{1, 2}, {3, 4}}), 0) {
		t.Fatalf("Sub did not undo Add: %v", a)
	}
	a.Scale(2)
	if !a.Equal(NewFromRows([][]float64{{2, 4}, {6, 8}}), 0) {
		t.Fatalf("Scale: %v", a)
	}
	a.AddScaled(0.5, b)
	if !a.Equal(NewFromRows([][]float64{{7, 14}, {21, 28}}), 1e-12) {
		t.Fatalf("AddScaled: %v", a)
	}
}

func TestAddShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add with shape mismatch did not panic")
		}
	}()
	New(2, 2).Add(New(2, 3))
}

func TestZero(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2}, {3, 4}})
	m.Zero()
	if m.MaxAbs() != 0 {
		t.Fatalf("Zero left nonzero entries: %v", m)
	}
}

func TestRowAliases(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2}, {3, 4}})
	r := m.Row(1)
	r[0] = 30
	if m.At(1, 0) != 30 {
		t.Fatal("Row should alias matrix storage")
	}
}

func TestMaxAbs(t *testing.T) {
	m := NewFromRows([][]float64{{1, -7}, {3, 4}})
	if m.MaxAbs() != 7 {
		t.Fatalf("MaxAbs = %v, want 7", m.MaxAbs())
	}
	if New(0, 0).MaxAbs() != 0 {
		t.Fatal("MaxAbs of empty matrix should be 0")
	}
}

func TestStringContainsShape(t *testing.T) {
	s := New(2, 3).String()
	if len(s) == 0 || s[0] != '2' {
		t.Fatalf("String() = %q, want leading shape", s)
	}
}

func TestMulSmall(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {3, 4}})
	b := NewFromRows([][]float64{{5, 6}, {7, 8}})
	got := Mul(a, b)
	want := NewFromRows([][]float64{{19, 22}, {43, 50}})
	if !got.Equal(want, 1e-12) {
		t.Fatalf("Mul = %v, want %v", got, want)
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := New(5, 5)
	for i := range a.Data() {
		a.Data()[i] = rng.NormFloat64()
	}
	if !Mul(a, Identity(5)).Equal(a, 1e-12) {
		t.Fatal("A*I != A")
	}
	if !Mul(Identity(5), a).Equal(a, 1e-12) {
		t.Fatal("I*A != A")
	}
}

func TestMulMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Mul with mismatched inner dims did not panic")
		}
	}()
	Mul(New(2, 3), New(2, 3))
}

// TestMulParallelMatchesSerial verifies that the goroutine-parallel path
// produces identical results to the serial path on a product large enough to
// trigger parallelism.
func TestMulParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 96 // 96^3 > parallelThreshold
	a, b := New(n, n), New(n, n)
	for i := range a.Data() {
		a.Data()[i] = rng.NormFloat64()
		b.Data()[i] = rng.NormFloat64()
	}
	par := Mul(a, b)
	ser := New(n, n)
	mulRange(ser, a, b, 0, n)
	if !par.Equal(ser, 1e-9) {
		t.Fatal("parallel and serial matmul disagree")
	}
}

func TestMulToRejectsBadOutput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MulTo with wrong output shape did not panic")
		}
	}()
	MulTo(New(2, 2), New(2, 3), New(3, 3))
}

func TestDotAndNorm(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("Dot wrong")
	}
	if math.Abs(Norm2([]float64{3, 4})-5) > 1e-12 {
		t.Fatal("Norm2 wrong")
	}
	if Norm2(nil) != 0 {
		t.Fatal("Norm2(nil) should be 0")
	}
	// Norm2 must not overflow on huge components.
	huge := math.MaxFloat64 / 2
	if math.IsInf(Norm2([]float64{huge, huge}), 0) {
		t.Fatal("Norm2 overflowed")
	}
}

// Property: (A*B)^T == B^T * A^T.
func TestMulTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, k, c := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a, b := New(r, k), New(k, c)
		for i := range a.Data() {
			a.Data()[i] = rng.NormFloat64()
		}
		for i := range b.Data() {
			b.Data()[i] = rng.NormFloat64()
		}
		return Mul(a, b).T().Equal(Mul(b.T(), a.T()), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestMulParallelPathForced raises GOMAXPROCS so the goroutine-parallel
// matmul path executes even on single-core machines.
func TestMulParallelPathForced(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	rng := rand.New(rand.NewSource(5))
	n := 96
	a, b := New(n, n), New(n, n)
	for i := range a.Data() {
		a.Data()[i] = rng.NormFloat64()
		b.Data()[i] = rng.NormFloat64()
	}
	par := Mul(a, b)
	ser := New(n, n)
	mulRange(ser, a, b, 0, n)
	if !par.Equal(ser, 1e-9) {
		t.Fatal("forced-parallel matmul disagrees with serial")
	}
	// More workers than rows: the per-worker clamp path.
	small := New(2, 200)
	for i := range small.Data() {
		small.Data()[i] = rng.NormFloat64()
	}
	wide := New(200, 200)
	for i := range wide.Data() {
		wide.Data()[i] = rng.NormFloat64()
	}
	got := Mul(small, wide)
	want := New(2, 200)
	mulRange(want, small, wide, 0, 2)
	if !got.Equal(want, 1e-9) {
		t.Fatal("row-clamped parallel matmul disagrees")
	}
}

func TestRowOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Row(-1) did not panic")
		}
	}()
	New(2, 2).Row(-1)
}

func TestEqualShapeMismatch(t *testing.T) {
	if New(2, 2).Equal(New(2, 3), 1) {
		t.Fatal("different shapes must not be equal")
	}
}
