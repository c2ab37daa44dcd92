package mat

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// gemm64Values fills data with values whose magnitudes span 1e-3 to 1e3 and
// both signs; when special is set, about one element in sixteen is
// replaced by ±0, ±Inf or NaN.
func gemm64Values(rng *rand.Rand, data []float64, special bool) {
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}
	for i := range data {
		v := math.Pow(10, 6*rng.Float64()-3)
		if rng.Intn(2) == 0 {
			v = -v
		}
		if special && rng.Intn(16) == 0 {
			v = specials[rng.Intn(len(specials))]
		}
		data[i] = v
	}
}

func gemm64Matrix(rng *rand.Rand, rows, cols int, special bool) *Matrix {
	m := New(rows, cols)
	gemm64Values(rng, m.data, special)
	return m
}

// sameBits64 fails unless got and want hold the same float64 bits element
// by element; NaNs compare by NaN-ness, since the payload of a NaN produced
// from two NaN operands depends on operand order, which IEEE 754 leaves open.
func sameBits64(t *testing.T, what string, got, want *Matrix) {
	t.Helper()
	for i, w := range want.data {
		g := got.data[i]
		if math.IsNaN(g) && math.IsNaN(w) {
			continue
		}
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: element %d (row %d, col %d) = %v (%#x), scalar %v (%#x)",
				what, i, i/want.cols, i%want.cols, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// checkGEMM64Bits runs the three float64 products with out = m×n and shared
// dimension kk on the SIMD path — through the public entry points (which
// split large products across goroutines), through the serial range
// functions, and split by rows and, for the packed MulTo and MulBTTo paths,
// by column panels — and compares each bit for bit with the scalar loops.
func checkGEMM64Bits(t *testing.T, rng *rand.Rand, m, kk, n int, special bool) {
	t.Helper()
	shape := fmt.Sprintf("%dx%dx%d special=%v", m, kk, n, special)
	cut := m / 3
	split := func(rows func(out *Matrix, lo, hi int)) *Matrix {
		out := New(m, n)
		rows(out, 0, cut)
		rows(out, cut, m)
		return out
	}
	check := func(op string, public func(out, a, b *Matrix), rows func(out, a, b *Matrix, lo, hi int), a, b *Matrix) {
		t.Helper()
		want := New(m, n)
		withScalarKernels(func() { public(want, a, b) })
		got := New(m, n)
		public(got, a, b)
		sameBits64(t, op+" "+shape, got, want)
		serial := New(m, n)
		rows(serial, a, b, 0, m)
		sameBits64(t, op+" serial "+shape, serial, want)
		sameBits64(t, op+" row split "+shape, split(func(o *Matrix, lo, hi int) { rows(o, a, b, lo, hi) }), want)
	}
	check("MulTo", MulTo, mulRange, gemm64Matrix(rng, m, kk, special), gemm64Matrix(rng, kk, n, special))
	check("MulATTo", MulATTo, mulATRange, gemm64Matrix(rng, kk, m, special), gemm64Matrix(rng, kk, n, special))

	a, b := gemm64Matrix(rng, m, kk, special), gemm64Matrix(rng, n, kk, special)
	btRows := func(out, a, b *Matrix, lo, hi int) {
		if simdCols[float64](n) {
			mulPanelRange(out.data, a.data, b.data, kk, n, true, lo, hi, 0, n)
		} else {
			mulBTRange(out, a, b, lo, hi)
		}
	}
	check("MulBTTo", MulBTTo, btRows, a, b)
	if n < 2*btPanel {
		return
	}
	bn := gemm64Matrix(rng, kk, n, special)
	for _, p := range []struct {
		op     string
		public func(out, a, b *Matrix)
		b      *Matrix
		bt     bool
	}{{"MulTo", MulTo, bn, false}, {"MulBTTo", MulBTTo, b, true}} {
		want := New(m, n)
		withScalarKernels(func() { p.public(want, a, p.b) })
		for _, c := range []int{btPanel, (n / btPanel / 2) * btPanel} {
			got := New(m, n)
			mulPanelRange(got.data, a.data, p.b.data, kk, n, p.bt, 0, m, 0, c)
			mulPanelRange(got.data, a.data, p.b.data, kk, n, p.bt, 0, m, c, n)
			sameBits64(t, fmt.Sprintf("%s panel split at %d %s", p.op, c, shape), got, want)
		}
	}
}

// TestSIMDFloat64MatchesScalarBits pins the gemm64 path bit for bit to the
// scalar float64 kernels, which carry the package's accumulation-order
// contract: every remainder of m, n and kk modulo four, outputs narrower
// than one register (scalar) and than one MulBTTo panel, kk = 0, empty
// outputs, values over six decades with ±0, ±Inf and NaN, and the paper's
// training shapes.
func TestSIMDFloat64MatchesScalarBits(t *testing.T) {
	if !useFMA {
		t.Skip("no SIMD on this host; nothing to compare")
	}
	// Let the public entry points split the larger products even on a
	// single-CPU host.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(4, runtime.GOMAXPROCS(0))))
	rng := rand.New(rand.NewSource(17))
	dims := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 15, 16, 17, 34}
	for _, m := range dims {
		for _, kk := range dims {
			for _, n := range dims {
				checkGEMM64Bits(t, rng, m, kk, n, false)
			}
		}
	}
	for _, s := range [][3]int{{5, 9, 6}, {7, 13, 33}, {13, 250, 43}, {37, 200, 79}, {64, 67, 21}} {
		checkGEMM64Bits(t, rng, s[0], s[1], s[2], true)
		checkGEMM64Bits(t, rng, s[0], s[1], s[2], false)
	}
	if testing.Short() {
		return
	}
	for _, s := range paperShapes {
		checkGEMM64Bits(t, rng, s.m, s.k, s.n, false)
	}
}

// FuzzGEMM64 differentially fuzzes the gemm64 path against the scalar
// float64 kernels over small shapes, value seeds and special values.
func FuzzGEMM64(f *testing.F) {
	if !useFMA {
		f.Skip("no SIMD on this host; nothing to compare")
	}
	f.Add(uint8(5), uint8(7), uint8(6), int64(1), false)
	f.Add(uint8(4), uint8(0), uint8(17), int64(2), true)
	f.Add(uint8(33), uint8(13), uint8(3), int64(3), true)
	f.Fuzz(func(t *testing.T, m, kk, n uint8, seed int64, special bool) {
		checkGEMM64Bits(t, rand.New(rand.NewSource(seed)), int(m%48), int(kk%48), int(n%48), special)
	})
}

// TestAdaMaxStep64MatchesScalar is the float64 twin of
// TestAdaMaxStep32MatchesScalar.
func TestAdaMaxStep64MatchesScalar(t *testing.T) {
	testAdaMaxMatchesScalar(t, AdaMaxStep, func(x float64) uint64 { return math.Float64bits(x) })
}
