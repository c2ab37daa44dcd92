package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// withScalarKernels runs f with the SIMD dispatch disabled so tests can
// compare the assembly kernels against the pure-Go fallback on the same host.
func withScalarKernels(f func()) {
	saved := useFMA
	useFMA = false
	defer func() { useFMA = saved }()
	f()
}

// TestSIMDKernelParity compares the SIMD float32 matmul family against the
// scalar fallback across shapes that exercise every stripe and edge case:
// column counts below, at, and off the 16-column stripe width, row counts
// off the 4-row tile, and single rows/columns. The two paths reassociate
// differently, so parity is relative-tolerance, not bitwise.
func TestSIMDKernelParity(t *testing.T) {
	if !useFMA {
		t.Skip("no SIMD on this host; nothing to compare")
	}
	rng := rand.New(rand.NewSource(7))
	shapes := []struct{ m, k, n int }{
		{1, 1, 1}, {1, 1, 8}, {1, 1, 9}, {3, 5, 7}, {4, 8, 8},
		{5, 7, 12}, {8, 9, 16}, {16, 43, 48}, {64, 48, 43}, {2, 64, 33},
	}
	const tol = 1e-4
	for _, s := range shapes {
		a := New32(s.m, s.k)
		b := New32(s.k, s.n)
		bt := New32(s.n, s.k)
		for i := range a.data {
			a.data[i] = float32(rng.NormFloat64())
		}
		for i := range b.data {
			b.data[i] = float32(rng.NormFloat64())
		}
		for i := range bt.data {
			bt.data[i] = float32(rng.NormFloat64())
		}

		check := func(name string, got, want *Matrix32) {
			t.Helper()
			for i, g := range got.data {
				w := want.data[i]
				if d := math.Abs(float64(g - w)); d > tol*(1+math.Abs(float64(w))) {
					t.Fatalf("%s %dx%dx%d element %d: simd %v scalar %v", name, s.m, s.k, s.n, i, g, w)
				}
			}
		}

		simd, scalar := New32(s.m, s.n), New32(s.m, s.n)
		MulTo32(simd, a, b)
		withScalarKernels(func() { MulTo32(scalar, a, b) })
		check("MulTo32", simd, scalar)

		// MulATTo32 contracts a.rows with b.rows, so build a matching b.
		bm := New32(s.m, s.n)
		for i := range bm.data {
			bm.data[i] = float32(rng.NormFloat64())
		}
		atSIMD := New32(s.k, s.n)
		atRef := New32(s.k, s.n)
		MulATTo32(atSIMD, a, bm)
		withScalarKernels(func() { MulATTo32(atRef, a, bm) })
		check("MulATTo32", atSIMD, atRef)

		btSIMD := New32(s.m, s.n)
		btRef := New32(s.m, s.n)
		MulBTTo32(btSIMD, a, bt)
		withScalarKernels(func() { MulBTTo32(btRef, a, bt) })
		check("MulBTTo32", btSIMD, btRef)
	}
}

func sameBits32(t *testing.T, what string, got, want *Matrix32) {
	t.Helper()
	for i := range want.data {
		if math.Float32bits(got.data[i]) != math.Float32bits(want.data[i]) {
			t.Fatalf("%s: element %d = %v, serial %v (must not depend on the split)", what, i, got.data[i], want.data[i])
		}
	}
}

// TestSIMDKernelDeterminism pins that the SIMD path is deterministic and
// independent of how work is split: for all three float32 products, the
// serial result must be bit-identical to row splits that cut through the
// 4-row tiles, to the public entry points (which may run in parallel) and,
// for MulBTTo32, to splits over the 16-column panels. Column counts hit
// every stripe case: n%16 ∈ {0, 1, 11, 15}, below and above one stripe.
func TestSIMDKernelDeterminism(t *testing.T) {
	if !useFMA {
		t.Skip("no SIMD on this host")
	}
	rng := rand.New(rand.NewSource(9))
	// k is large enough that the public entry points split the wider
	// products across goroutines (m·k·n above parallelThreshold).
	const m, k = 37, 200
	rowCuts := []int{0, 5, 6, 19, 37}
	for _, n := range []int{16, 32, 1, 17, 11, 43, 15, 79} {
		name := func(op string) string { return fmt.Sprintf("%s n=%d", op, n) }
		split := func(out *Matrix32, rows func(out *Matrix32, lo, hi int)) {
			for c := 1; c < len(rowCuts); c++ {
				rows(out, rowCuts[c-1], rowCuts[c])
			}
		}

		_, a := randPair(rng, m, k)
		_, b := randPair(rng, k, n)
		serial, cut, pub := New32(m, n), New32(m, n), New32(m, n)
		mulRange32(serial, a, b, 0, m)
		split(cut, func(o *Matrix32, lo, hi int) { mulRange32(o, a, b, lo, hi) })
		sameBits32(t, name("MulTo32 row split"), cut, serial)
		MulTo32(pub, a, b)
		sameBits32(t, name("MulTo32"), pub, serial)

		// MulATTo32: out (m×n) = xᵀ·y with x k×m, y k×n; rows of out are
		// columns of x.
		_, x := randPair(rng, k, m)
		_, y := randPair(rng, k, n)
		serial, cut, pub = New32(m, n), New32(m, n), New32(m, n)
		mulATRange32(serial, x, y, 0, m)
		split(cut, func(o *Matrix32, lo, hi int) { mulATRange32(o, x, y, lo, hi) })
		sameBits32(t, name("MulATTo32 row split"), cut, serial)
		MulATTo32(pub, x, y)
		sameBits32(t, name("MulATTo32"), pub, serial)

		// MulBTTo32: out (m×n) = a·zᵀ with z n×k.
		_, z := randPair(rng, n, k)
		serial, cut, pub = New32(m, n), New32(m, n), New32(m, n)
		mulPanelRange(serial.data, a.data, z.data, k, n, true, 0, m, 0, n)
		split(cut, func(o *Matrix32, lo, hi int) { mulPanelRange(o.data, a.data, z.data, k, n, true, lo, hi, 0, n) })
		sameBits32(t, name("MulBTTo32 row split"), cut, serial)
		if n >= 2*btPanel {
			cols := New32(m, n)
			mulPanelRange(cols.data, a.data, z.data, k, n, true, 0, m, 0, btPanel)
			mulPanelRange(cols.data, a.data, z.data, k, n, true, 0, m, btPanel, n)
			sameBits32(t, name("MulBTTo32 panel split"), cols, serial)
		}
		MulBTTo32(pub, a, z)
		sameBits32(t, name("MulBTTo32"), pub, serial)
	}
}

// TestSIMDKernelParityPaperShapes checks the three float32 products at the
// training shapes of the paper topology (batch 64, layers 1500-1500-750-250,
// 43 classes) against the float64 product of the same float32 inputs. The
// bound is the statistical one for a k-term float32 accumulation: a few
// units of float32 epsilon times √k, relative to Σ|a·b| of each element.
// A dropped or doubled term is off by ~Σ|a·b|/k, far above it.
func TestSIMDKernelParityPaperShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-shape float64 references take seconds")
	}
	const eps32 = 1.0 / (1 << 23)
	rng := rand.New(rand.NewSource(11))
	for _, s := range []struct{ m, k, n int }{
		{64, 1500, 1500}, {1500, 64, 1500}, {64, 1500, 750}, {64, 250, 43},
	} {
		// check compares got (m×n) with the float64 product A·B, given A as
		// m×k and Bᵀ as n×k row-major float64 slices.
		check := func(op string, got *Matrix32, a, bt []float64) {
			t.Helper()
			tol := 4 * eps32 * math.Sqrt(float64(s.k))
			worst := 0.0
			for i := 0; i < s.m; i++ {
				ai := a[i*s.k : (i+1)*s.k]
				for j := 0; j < s.n; j++ {
					bj := bt[j*s.k : (j+1)*s.k][:len(ai)]
					var want, bound float64
					for k, av := range ai {
						p := av * bj[k]
						want += p
						bound += math.Abs(p)
					}
					d := math.Abs(float64(got.data[i*s.n+j]) - want)
					if d > tol*bound {
						t.Fatalf("%s %dx%dx%d (%d,%d): got %v want %v (|diff| %g > %g)", op, s.m, s.k, s.n, i, j, got.data[i*s.n+j], want, d, tol*bound)
					}
					worst = math.Max(worst, d/bound)
				}
			}
			t.Logf("%s %dx%dx%d: worst |diff|/Σ|a·b| = %.3g (bound %.3g)", op, s.m, s.k, s.n, worst, tol)
		}
		// The references use the float32 operands' exact values.
		_, a := randPair(rng, s.m, s.k)
		_, b := randPair(rng, s.k, s.n)
		a64, b64 := a.To64(), b.To64()
		out := New32(s.m, s.n)
		MulTo32(out, a, b)
		check("MulTo32", out, a64.data, b64.T().data)

		_, x := randPair(rng, s.k, s.m)
		MulATTo32(out, x, b)
		check("MulATTo32", out, x.To64().T().data, b64.T().data)

		_, z := randPair(rng, s.n, s.k)
		MulBTTo32(out, a, z)
		check("MulBTTo32", out, a64.data, z.To64().data)
	}
}

// TestAdaMaxStep32MatchesScalar pins the vectorized AdaMax step bit for bit
// to the scalar reference loop, over several consecutive steps, at lengths
// around the eight-lane block width and above the parallel threshold, with
// lanes holding zero and negative-zero gradients, u = 0, and NaN/Inf in
// every operand.
func TestAdaMaxStep32MatchesScalar(t *testing.T) {
	testAdaMaxMatchesScalar(t, AdaMaxStep32, func(x float32) uint64 { return uint64(math.Float32bits(x)) })
}

// testAdaMaxMatchesScalar runs the AdaMax pin for one element type: step is
// the public entry point, bits the raw encoding compared.
func testAdaMaxMatchesScalar[T float](t *testing.T, adaMax func(w, m, u, g []T, beta1, beta2, step T), bits func(T) uint64) {
	rng := rand.New(rand.NewSource(13))
	nan := T(math.NaN())
	inf := T(math.Inf(1))
	negZero := T(math.Copysign(0, -1))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 100, adaMaxParallel + 13} {
		w, m, u := make([]T, n), make([]T, n), make([]T, n)
		for i := range w {
			w[i] = T(rng.NormFloat64())
			m[i] = T(rng.NormFloat64()) * 0.1
			u[i] = T(rng.Float64())
			switch i % 11 {
			case 3:
				u[i] = 0
			case 5:
				u[i] = nan
			case 7:
				m[i] = nan
			case 9:
				w[i] = nan
			}
		}
		w2, m2, u2 := append([]T(nil), w...), append([]T(nil), m...), append([]T(nil), u...)
		g := make([]T, n)
		for step := 0; step < 3; step++ {
			for i := range g {
				g[i] = T(rng.NormFloat64())
				switch (i + step) % 13 {
				case 1:
					g[i] = 0
				case 2:
					g[i] = negZero
				case 4:
					g[i] = nan
				case 6:
					g[i] = -inf
				case 8:
					g[i] = 1e-30 // |g| below beta2·u: u decays
				}
			}
			lr := T(0.002) / T(1-math.Pow(0.9, float64(step+1)))
			adaMax(w, m, u, g, 0.9, 0.999, lr)
			adaMaxScalar(w2, m2, u2, g, 0.9, 0.999, lr)
			for i := range w {
				for _, p := range [][2]T{{w[i], w2[i]}, {m[i], m2[i]}, {u[i], u2[i]}} {
					if bits(p[0]) != bits(p[1]) {
						t.Fatalf("n=%d step %d element %d: w/m/u = %v/%v/%v, scalar %v/%v/%v",
							n, step, i, w[i], m[i], u[i], w2[i], m2[i], u2[i])
					}
				}
			}
		}
	}
}

// TestTanh32sMatchesScalar checks the vectorized tanh against the scalar
// reference on a range sweep including saturation; the vector clamp path is
// allowed one ULP of slack at ±1.
func TestTanh32sMatchesScalar(t *testing.T) {
	var v []float32
	for x := -12.0; x <= 12.0; x += 1e-2 {
		v = append(v, float32(x))
	}
	v = append(v, 0, 100, -100, 7.9053, -7.9053)
	got := make([]float32, len(v))
	copy(got, v)
	Tanh32s(got)
	for i, x := range v {
		want := math.Tanh(float64(x))
		if d := math.Abs(float64(got[i]) - want); d > 5e-7 {
			t.Fatalf("Tanh32s(%v) = %v, want %v (diff %v)", x, got[i], want, d)
		}
	}
	// Odd lengths exercise the scalar tail after the eight-lane blocks.
	for _, n := range []int{0, 1, 7, 8, 9, 15, 17} {
		w := make([]float32, n)
		for i := range w {
			w[i] = float32(i)*0.3 - 2
		}
		Tanh32s(w)
		for i := range w {
			want := math.Tanh(float64(float32(i)*0.3 - 2))
			if d := math.Abs(float64(w[i]) - want); d > 5e-7 {
				t.Fatalf("len %d element %d: %v want %v", n, i, w[i], want)
			}
		}
	}
}
