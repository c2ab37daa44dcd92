package mat

import (
	"fmt"
	"math"
	"runtime"
)

// adaMaxParallel is the parameter count above which the AdaMax step splits
// the update across GOMAXPROCS goroutines. The step is memory-bound (seven
// streams per element), so only the largest layers gain.
const adaMaxParallel = 1 << 16

// AdaMaxStep applies one AdaMax step (Kingma & Ba, Algorithm 2) in place to
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
func AdaMaxStep(w, m, u, g []float64, beta1, beta2, step float64) {
	adaMaxStep(w, m, u, g, beta1, beta2, step)
}

// AdaMaxStep32 is the float32 AdaMaxStep.
func AdaMaxStep32(w, m, u, g []float32, beta1, beta2, step float32) {
	adaMaxStep(w, m, u, g, beta1, beta2, step)
}

func adaMaxStep[T float](w, m, u, g []T, beta1, beta2, step T) {
	n := len(w)
	if len(m) != n || len(u) != n || len(g) != n {
		panic(fmt.Sprintf("mat: AdaMaxStep length mismatch w=%d m=%d u=%d g=%d", n, len(m), len(u), len(g)))
	}
	if !useFMA {
		adaMaxScalar(w, m, u, g, beta1, beta2, step)
		return
	}
	if n < adaMaxParallel || runtime.GOMAXPROCS(0) < 2 {
		adaMaxRange(w, m, u, g, beta1, beta2, step)
		return
	}
	const block = 8
	parallelRows((n+block-1)/block, func(lo, hi int) {
		lo, hi = lo*block, min(hi*block, n)
		adaMaxRange(w[lo:hi], m[lo:hi], u[lo:hi], g[lo:hi], beta1, beta2, step)
	})
}

// adaMaxRange runs the assembly blocks of T over whole ymm registers (eight
// float32 or four float64 lanes) and the scalar loop over the tail.
func adaMaxRange[T float](w, m, u, g []T, beta1, beta2, step T) {
	nb := len(w) &^ (lanes[T]() - 1)
	if nb > 0 {
		switch w := any(&w[0]).(type) {
		case *float32:
			adaMaxBlocks(w, any(&m[0]).(*float32), any(&u[0]).(*float32), any(&g[0]).(*float32), nb,
				float32(beta1), float32(1-beta1), float32(beta2), float32(step))
		case *float64:
			adaMaxBlocks64(w, any(&m[0]).(*float64), any(&u[0]).(*float64), any(&g[0]).(*float64), nb,
				float64(beta1), float64(1-beta1), float64(beta2), float64(step))
		}
	}
	adaMaxScalar(w[nb:], m[nb:], u[nb:], g[nb:], beta1, beta2, step)
}

// adaMaxScalar is the reference AdaMax loop: the non-amd64 path, the tail
// of the SIMD path and the oracle of its tests. The explicit conversions
// forbid the compiler from fusing the moment update into an FMA (which it
// may do on some targets), so every operation rounds on its own, as the
// assembly does. |g| clears the sign bit, as the assembly's mask does.
func adaMaxScalar[T float](w, m, u, g []T, beta1, beta2, step T) {
	c1 := 1 - beta1
	u = u[:len(w)]
	m = m[:len(w)]
	g = g[:len(w)]
	for i := range w {
		m[i] = T(beta1*m[i]) + T(c1*g[i])
		au := beta2 * u[i]
		if ag := T(math.Abs(float64(g[i]))); ag > au {
			au = ag
		}
		u[i] = au
		if au > 0 {
			w[i] -= step * m[i] / au
		}
	}
}
