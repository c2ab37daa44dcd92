package regression

import (
	"sync"

	"extrapdnn/internal/mat"
	"extrapdnn/internal/stats"
)

// looDenTol is the smallest 1 − hᵢᵢ the leave-one-out identity divides by:
// a point with a larger leverage fully determines its own fit, and its
// in-sample prediction stands in for the leave-one-out one.
const looDenTol = 1e-10

// fitEngine is the one hypothesis-fit engine behind FitLine and Combine. A
// hypothesis is a linear least-squares design: an intercept column of ones
// plus one column per term. One equilibrated QR factorization per
// hypothesis (mat.QR) yields the coefficients, the fitted values and the
// hat diagonal, and the hat identity
//
//	pred_i = y_i − r_i / (1 − h_ii)
//
// turns them into the exact leave-one-out predictions that the
// cross-validated SMAPE scores, without refitting per point.
//
// Engines are pooled; one serves a whole FitLine or Combine call, so the
// steady state reuses every buffer.
type fitEngine struct {
	qr  mat.QR
	fit []float64 // in-sample fitted values
	hat []float64 // leverages
	loo []float64 // leave-one-out predictions

	cands []Candidate // FitLine's candidate buffer

	// Combine state: basis columns per (parameter, candidate), canonical
	// candidate codes, the dedupe set and the best hypothesis so far.
	basis    []float64
	codes    []uint16
	seen     map[comboKey]struct{}
	bestCoef []float64
	partM    int
	parts    [][][]int
}

var enginePool = sync.Pool{New: func() any { return new(fitEngine) }}

func getEngine() *fitEngine  { return enginePool.Get().(*fitEngine) }
func putEngine(e *fitEngine) { enginePool.Put(e) }

// grow returns s resliced to length n, reallocating only when its capacity
// is too small. The contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// design sizes the engine for an n-point hypothesis with p coefficients and
// fills the intercept column; the caller writes term column t into
// e.qr.Col(t+1).
func (e *fitEngine) design(n, p int) {
	e.qr.Reset(n, p)
	for i, col := 0, e.qr.Col(0); i < n; i++ {
		col[i] = 1
	}
}

// score factors the design set up by design, fits y and returns the
// coefficients (owned by the engine, valid until the next score) and the
// leave-one-out cross-validated SMAPE. ok is false when the design is
// numerically singular.
func (e *fitEngine) score(y []float64) (coef []float64, smape float64, ok bool) {
	if err := e.qr.Factor(); err != nil {
		return nil, 0, false
	}
	coef, err := e.qr.Solve(y)
	if err != nil {
		return nil, 0, false
	}
	n := len(y)
	e.fit = grow(e.fit, n)
	e.hat = grow(e.hat, n)
	e.loo = grow(e.loo, n)
	e.qr.Fitted(e.fit)
	e.qr.Leverages(e.hat)
	for i, yi := range y {
		den := 1 - e.hat[i]
		if den < looDenTol {
			// The hypothesis is too flexible for this point's LOO fold.
			e.loo[i] = e.fit[i]
			continue
		}
		e.loo[i] = yi - (yi-e.fit[i])/den
	}
	return coef, stats.SMAPE(e.loo, y), true
}

// scoreConstant is the closed form of the intercept-only hypothesis: the
// fit is the mean, and the leave-one-out prediction for point i is the mean
// of the remaining points.
func (e *fitEngine) scoreConstant(y []float64) (c0, smape float64) {
	n := len(y)
	total := 0.0
	for _, v := range y {
		total += v
	}
	e.loo = grow(e.loo, n)
	for i, v := range y {
		e.loo[i] = (total - v) / float64(n-1)
	}
	return total / float64(n), stats.SMAPE(e.loo, y)
}
