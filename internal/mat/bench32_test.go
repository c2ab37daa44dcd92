package mat

import (
	"fmt"
	"math/rand"
	"testing"
)

// Kernel benchmarks at the shapes the training loop actually produces
// (batch 64, layers 11→64→48→43), float64 vs float32 side by side. These are
// the inputs to the precision fast-path speedup table in docs/PERFORMANCE.md:
// the f32 twins are allowed a different accumulation schedule, so the ratio
// here is unrolling + cache-density gain, not just element width.

func benchMat(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data() {
		m.Data()[i] = rng.NormFloat64()
	}
	return m
}

var kernelShapes = []struct {
	name    string
	m, k, n int
}{
	{"64x64x48", 64, 64, 48}, // forward: batch 64, hidden 64→48
	{"64x48x43", 64, 48, 43}, // forward: hidden 48 → 43 classes
	{"256x64x64", 256, 64, 64},
}

func BenchmarkMulTo(b *testing.B) {
	for _, s := range kernelShapes {
		rng := rand.New(rand.NewSource(1))
		a := benchMat(rng, s.m, s.k)
		bb := benchMat(rng, s.k, s.n)
		a32, b32 := a.To32(), bb.To32()
		out := New(s.m, s.n)
		out32 := New32(s.m, s.n)
		b.Run(s.name+"/float64", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MulTo(out, a, bb)
			}
		})
		b.Run(s.name+"/float32", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MulTo32(out32, a32, b32)
			}
		})
	}
}

func BenchmarkMulATTo(b *testing.B) {
	for _, s := range kernelShapes {
		rng := rand.New(rand.NewSource(2))
		a := benchMat(rng, s.m, s.k)
		bb := benchMat(rng, s.m, s.n)
		a32, b32 := a.To32(), bb.To32()
		out := New(s.k, s.n)
		out32 := New32(s.k, s.n)
		b.Run(s.name+"/float64", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MulATTo(out, a, bb)
			}
		})
		b.Run(s.name+"/float32", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MulATTo32(out32, a32, b32)
			}
		})
	}
}

func BenchmarkMulBTTo(b *testing.B) {
	for _, s := range kernelShapes {
		rng := rand.New(rand.NewSource(3))
		a := benchMat(rng, s.m, s.k)
		bb := benchMat(rng, s.n, s.k)
		a32, b32 := a.To32(), bb.To32()
		out := New(s.m, s.n)
		out32 := New32(s.m, s.n)
		b.Run(s.name+"/float64", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MulBTTo(out, a, bb)
			}
		})
		b.Run(s.name+"/float32", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MulBTTo32(out32, a32, b32)
			}
		})
	}
}

// paperShapes are the products of one training step of the paper topology
// (batch 64, layers 1500-1500-750-250-250, 43 classes), named m×k×n for an
// m×n output contracting k: the hidden forward product and delta product,
// the hidden weight gradient, and a narrower layer and the output layer.
var paperShapes = []struct {
	name    string
	m, k, n int
}{
	{"64x1500x1500", 64, 1500, 1500},
	{"1500x64x1500", 1500, 64, 1500},
	{"64x1500x750", 64, 1500, 750},
	{"64x250x43", 64, 250, 43},
}

// BenchmarkGEMMPaper runs all three training products at every paper shape
// in both precisions and reports GFLOP/s (2·m·k·n per op), the unit of the
// mat.*_gflops benchmark rows.
func BenchmarkGEMMPaper(b *testing.B) {
	mk := func(m, k, n int) (int, int) { return m, k }
	km := func(m, k, n int) (int, int) { return k, m }
	kn := func(m, k, n int) (int, int) { return k, n }
	nk := func(m, k, n int) (int, int) { return n, k }
	// a and b give each product's operand shapes for an m×k×n product.
	products := []struct {
		name string
		a, b func(m, k, n int) (int, int)
		f64  func(out, a, b *Matrix)
		f32  func(out, a, b *Matrix32)
	}{
		{"MulTo", mk, kn, MulTo, MulTo32},
		{"MulATTo", km, kn, MulATTo, MulATTo32},
		{"MulBTTo", mk, nk, MulBTTo, MulBTTo32},
	}
	for _, p := range products {
		for _, s := range paperShapes {
			rng := rand.New(rand.NewSource(4))
			ar, ac := p.a(s.m, s.k, s.n)
			br, bc := p.b(s.m, s.k, s.n)
			a, bb := benchMat(rng, ar, ac), benchMat(rng, br, bc)
			a32, b32 := a.To32(), bb.To32()
			out, out32 := New(s.m, s.n), New32(s.m, s.n)
			flop := 2 * float64(s.m) * float64(s.k) * float64(s.n)
			report := func(b *testing.B) {
				b.ReportMetric(flop*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			}
			b.Run(p.name+"/"+s.name+"/float64", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					p.f64(out, a, bb)
				}
				report(b)
			})
			b.Run(p.name+"/"+s.name+"/float32", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					p.f32(out32, a32, b32)
				}
				report(b)
			})
		}
	}
}

// BenchmarkMulToSmallRows runs the float64 forward chain of the default
// topology (11-256-256-128-64-64-43, dnnmodel.DefaultTopology) at the few
// rows a warm-path classification feeds it: the shapes where a SIMD kernel
// has the least work to amortize its setup over.
func BenchmarkMulToSmallRows(b *testing.B) {
	widths := []int{11, 256, 256, 128, 64, 64, 43}
	for _, rows := range []int{1, 3, 8} {
		rng := rand.New(rand.NewSource(5))
		acts := []*Matrix{benchMat(rng, rows, widths[0])}
		var ws []*Matrix
		for i := 1; i < len(widths); i++ {
			ws = append(ws, benchMat(rng, widths[i-1], widths[i]))
			acts = append(acts, New(rows, widths[i]))
		}
		b.Run(fmt.Sprintf("rows=%d/float64", rows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for l, w := range ws {
					MulTo(acts[l+1], acts[l], w)
				}
			}
		})
	}
}

// BenchmarkAdaMaxStep runs one AdaMax step over the weights of a 1500×1500
// paper-topology layer in each precision: seven streams of 2.25M elements,
// split across cores.
func BenchmarkAdaMaxStep(b *testing.B) {
	const n = 1500 * 1500
	rng := rand.New(rand.NewSource(6))
	w, m, u, g := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range w {
		w[i], g[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	w32, m32, u32, g32 := make([]float32, n), make([]float32, n), make([]float32, n), make([]float32, n)
	for i := range w {
		w32[i], g32[i] = float32(w[i]), float32(g[i])
	}
	b.Run("float32", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			AdaMaxStep32(w32, m32, u32, g32, 0.9, 0.999, 0.002)
		}
	})
	b.Run("float64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			AdaMaxStep(w, m, u, g, 0.9, 0.999, 0.002)
		}
	})
}
