package mat

import (
	"fmt"
	"math"
	"runtime"
)

// adaMaxParallel is the parameter count above which AdaMaxStep32 splits the
// update across GOMAXPROCS goroutines. The step is memory-bound (seven
// float32 streams per element), so only the largest layers gain.
const adaMaxParallel = 1 << 16

// AdaMaxStep32 applies one AdaMax step (Kingma & Ba, Algorithm 2) in place to
// the parameters w with first moments m, infinity-norm moments u and gradient
// g, all of one length:
//
//	m = beta1·m + (1−beta1)·g
//	u = max(beta2·u, |g|)
//	w = w − step·m/u   where u > 0
//
// step is the bias-corrected learning rate lr/(1−beta1ᵗ). Every element is
// bit-identical to the scalar loop whatever the dispatch: the SIMD blocks use
// no FMA and the same operation order, and the split across goroutines is
// element-wise.
func AdaMaxStep32(w, m, u, g []float32, beta1, beta2, step float32) {
	n := len(w)
	if len(m) != n || len(u) != n || len(g) != n {
		panic(fmt.Sprintf("mat: AdaMaxStep32 length mismatch w=%d m=%d u=%d g=%d", n, len(m), len(u), len(g)))
	}
	if !useFMA {
		adaMaxScalar32(w, m, u, g, beta1, beta2, step)
		return
	}
	if n < adaMaxParallel || runtime.GOMAXPROCS(0) < 2 {
		adaMaxRange32(w, m, u, g, beta1, beta2, step)
		return
	}
	const block = 8
	parallelRows((n+block-1)/block, func(lo, hi int) {
		lo, hi = lo*block, min(hi*block, n)
		adaMaxRange32(w[lo:hi], m[lo:hi], u[lo:hi], g[lo:hi], beta1, beta2, step)
	})
}

// adaMaxRange32 runs the eight-lane assembly blocks and the scalar tail.
func adaMaxRange32(w, m, u, g []float32, beta1, beta2, step float32) {
	n8 := len(w) &^ 7
	if n8 > 0 {
		adaMaxBlocks(&w[0], &m[0], &u[0], &g[0], n8, beta1, 1-beta1, beta2, step)
	}
	adaMaxScalar32(w[n8:], m[n8:], u[n8:], g[n8:], beta1, beta2, step)
}

// adaMaxScalar32 is the reference AdaMax loop: the non-amd64 path, the tail
// of the SIMD path and the oracle of its tests. The explicit float32
// conversions forbid the compiler from fusing the moment update into an FMA
// (which it may do on some targets), so every operation rounds on its own,
// as the assembly does. |g| clears the sign bit, as the assembly's mask does.
func adaMaxScalar32(w, m, u, g []float32, beta1, beta2, step float32) {
	c1 := 1 - beta1
	u = u[:len(w)]
	m = m[:len(w)]
	g = g[:len(w)]
	for i := range w {
		m[i] = float32(beta1*m[i]) + float32(c1*g[i])
		au := beta2 * u[i]
		if ag := math.Float32frombits(math.Float32bits(g[i]) &^ (1 << 31)); ag > au {
			au = ag
		}
		u[i] = au
		if au > 0 {
			w[i] -= step * m[i] / au
		}
	}
}
