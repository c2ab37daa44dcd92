package regression

// The previous hypothesis fitter is retained here, verbatim up to package
// boundaries, as the executable reference of the QR engine: Householder
// least squares over columns equilibrated with math.Hypot, then leave-one-out
// hat values from the inverse of the Gram matrix of a re-equilibrated copy,
// inverted column by column through Cholesky solves. The engine must agree
// with it to a relative 1e-9 in coefficients and SMAPE and rank the
// candidates in the same order, except where the reference's own SMAPEs tie
// within 1e-9 (the engine's hat values are better conditioned, so the last
// bits differ).

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"extrapdnn/internal/mat"
	"extrapdnn/internal/pmnf"
	"extrapdnn/internal/stats"
	"extrapdnn/internal/synth"
)

var errRefSingular = errors.New("reference: singular system")

// refLeastSquares is the previous mat.LeastSquares: Householder QR over
// columns equilibrated with math.Hypot norms.
func refLeastSquares(a *mat.Matrix, b []float64) ([]float64, error) {
	m, n := a.Rows(), a.Cols()
	r := a.Clone()
	rd := r.Data()
	y := make([]float64, m)
	copy(y, b)

	colScale := make([]float64, n)
	for j := 0; j < n; j++ {
		norm := 0.0
		for i := 0; i < m; i++ {
			norm = math.Hypot(norm, rd[i*n+j])
		}
		if norm == 0 {
			return nil, errRefSingular
		}
		colScale[j] = norm
		for i := 0; i < m; i++ {
			rd[i*n+j] /= norm
		}
	}

	v := make([]float64, m)
	for k := 0; k < n; k++ {
		norm := 0.0
		for i := k; i < m; i++ {
			norm = math.Hypot(norm, rd[i*n+k])
		}
		if norm == 0 {
			return nil, errRefSingular
		}
		alpha := -math.Copysign(norm, rd[k*n+k])
		vnorm2 := 0.0
		for i := k; i < m; i++ {
			v[i] = rd[i*n+k]
			if i == k {
				v[i] -= alpha
			}
			vnorm2 += v[i] * v[i]
		}
		if vnorm2 == 0 {
			return nil, errRefSingular
		}
		for j := k; j < n; j++ {
			dot := 0.0
			for i := k; i < m; i++ {
				dot += v[i] * rd[i*n+j]
			}
			f := 2 * dot / vnorm2
			for i := k; i < m; i++ {
				rd[i*n+j] -= f * v[i]
			}
		}
		dot := 0.0
		for i := k; i < m; i++ {
			dot += v[i] * y[i]
		}
		f := 2 * dot / vnorm2
		for i := k; i < m; i++ {
			y[i] -= f * v[i]
		}
	}

	maxDiag := 0.0
	for i := 0; i < n; i++ {
		if d := math.Abs(rd[i*n+i]); d > maxDiag {
			maxDiag = d
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= rd[i*n+j] * x[j]
		}
		d := rd[i*n+i]
		if math.Abs(d) <= 1e-12*maxDiag {
			return nil, errRefSingular
		}
		x[i] = s / d
	}
	for i := range x {
		x[i] /= colScale[i]
		if math.IsNaN(x[i]) || math.IsInf(x[i], 0) {
			return nil, errRefSingular
		}
	}
	return x, nil
}

// refSolveCholesky is the previous mat.SolveCholesky.
func refSolveCholesky(a *mat.Matrix, b []float64) ([]float64, error) {
	n := a.Rows()
	l := a.Clone()
	ld := l.Data()
	for j := 0; j < n; j++ {
		d := ld[j*n+j]
		for k := 0; k < j; k++ {
			d -= ld[j*n+k] * ld[j*n+k]
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, errRefSingular
		}
		d = math.Sqrt(d)
		ld[j*n+j] = d
		for i := j + 1; i < n; i++ {
			s := ld[i*n+j]
			for k := 0; k < j; k++ {
				s -= ld[i*n+k] * ld[j*n+k]
			}
			ld[i*n+j] = s / d
		}
	}
	z := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= ld[i*n+k] * z[k]
		}
		z[i] = s / ld[i*n+i]
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := z[i]
		for k := i + 1; k < n; k++ {
			s -= ld[k*n+i] * x[k]
		}
		x[i] = s / ld[i*n+i]
	}
	return x, nil
}

// refGram is the previous mat.Gram.
func refGram(a *mat.Matrix) *mat.Matrix {
	n := a.Cols()
	g := mat.New(n, n)
	gd, ad := g.Data(), a.Data()
	for i := 0; i < a.Rows(); i++ {
		ri := ad[i*n : (i+1)*n]
		for p, vp := range ri {
			if vp == 0 {
				continue
			}
			gp := gd[p*n : (p+1)*n]
			for q, vq := range ri {
				gp[q] += vp * vq
			}
		}
	}
	return g
}

// refMulVec is the previous mat.MulVec.
func refMulVec(a *mat.Matrix, x []float64) []float64 {
	out := make([]float64, a.Rows())
	for i := range out {
		s := 0.0
		for j, v := range a.Row(i) {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// refLooPredictions is the previous looPredictions: exact leave-one-out
// predictions through hᵢᵢ = aᵢᵀ(AᵀA)⁻¹aᵢ on a column-equilibrated copy.
func refLooPredictions(a *mat.Matrix, y, coef []float64) ([]float64, error) {
	n, p := a.Rows(), a.Cols()
	fits := refMulVec(a, coef)
	a = a.Clone()
	for j := 0; j < p; j++ {
		norm := 0.0
		for i := 0; i < n; i++ {
			norm = math.Hypot(norm, a.At(i, j))
		}
		if norm == 0 {
			continue
		}
		for i := 0; i < n; i++ {
			a.Set(i, j, a.At(i, j)/norm)
		}
	}
	gram := refGram(a)
	inv := mat.New(p, p)
	unit := make([]float64, p)
	for j := 0; j < p; j++ {
		unit[j] = 1
		col, err := refSolveCholesky(gram, unit)
		if err != nil {
			return nil, err
		}
		for i := 0; i < p; i++ {
			inv.Set(i, j, col[i])
		}
		unit[j] = 0
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		ai := a.Row(i)
		fit := fits[i]
		h := mat.Dot(ai, refMulVec(inv, ai))
		den := 1 - h
		if den < 1e-10 {
			out[i] = fit
			continue
		}
		out[i] = y[i] - (y[i]-fit)/den
	}
	return out, nil
}

// refFitHypothesis is the previous per-class fit of FitLine.
func refFitHypothesis(xs, vs []float64, e pmnf.Exponents) (Candidate, bool) {
	n := len(xs)
	if e.IsConstant() {
		total := 0.0
		for _, v := range vs {
			total += v
		}
		loo := make([]float64, n)
		for i, v := range vs {
			loo[i] = (total - v) / float64(n-1)
		}
		return Candidate{Exps: e, C0: total / float64(n), SMAPE: stats.SMAPE(loo, vs)}, true
	}
	a := mat.New(n, 2)
	for i, x := range xs {
		a.Set(i, 0, 1)
		a.Set(i, 1, e.Eval(x))
	}
	coef, err := refLeastSquares(a, vs)
	if err != nil {
		return Candidate{}, false
	}
	loo, err := refLooPredictions(a, vs, coef)
	if err != nil {
		return Candidate{}, false
	}
	return Candidate{Exps: e, C0: coef[0], C1: coef[1], SMAPE: stats.SMAPE(loo, vs)}, true
}

// refFitLine is the previous FitLine over refFitHypothesis.
func refFitLine(xs, vs []float64, classes []pmnf.Exponents) []Candidate {
	var cands []Candidate
	seenConstant := false
	for _, e := range classes {
		if e.IsConstant() {
			seenConstant = true
		}
		if c, ok := refFitHypothesis(xs, vs, e); ok {
			cands = append(cands, c)
		}
	}
	if !seenConstant {
		if c, ok := refFitHypothesis(xs, vs, pmnf.Exponents{}); ok {
			cands = append(cands, c)
		}
	}
	sort.SliceStable(cands, func(a, b int) bool {
		da, db := cands[a].SMAPE, cands[b].SMAPE
		if diff := da - db; diff < -1e-9 || diff > 1e-9 {
			return da < db
		}
		ca := cands[a].Exps.I + cands[a].Exps.J/4
		cb := cands[b].Exps.I + cands[b].Exps.J/4
		return ca < cb
	})
	return cands
}

// refTol is the relative agreement the engine owes the reference.
const refTol = 1e-9

// TestFitLineMatchesReference is the differential test of the engine
// against the retained reference fitter: every class fits on both or on
// neither, coefficients and SMAPE agree to a relative 1e-9, and the full
// ranking is the same except between candidates whose reference SMAPEs tie
// within 1e-9.
func TestFitLineMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	classes := append(pmnf.Classes(), pmnf.Exponents{})
	for trial := 0; trial < 200; trial++ {
		n := 5 + rng.Intn(4)
		xs := synth.GenSequence(rng, synth.RandomSequenceKind(rng), n)
		truth := pmnf.Class(rng.Intn(pmnf.NumClasses))
		noise := []float64{0.02, 0.1, 0.5, 1}[trial%4]
		vs := make([]float64, n)
		for i, x := range xs {
			vs[i] = (1 + 10*rng.Float64()) * (1 + truth.Eval(x)) * synth.NoiseFactor(rng, noise)
		}
		e := getEngine()
		for _, cls := range classes {
			got, gotOK := e.fitClass(xs, vs, cls)
			want, wantOK := refFitHypothesis(xs, vs, cls)
			if gotOK != wantOK {
				t.Fatalf("trial %d class %+v: ok=%v, reference ok=%v", trial, cls, gotOK, wantOK)
			}
			if !gotOK {
				continue
			}
			if got.Exps != want.Exps || !relClose(got.C0, want.C0, refTol) ||
				!relClose(got.C1, want.C1, refTol) || !relClose(got.SMAPE, want.SMAPE, refTol) {
				t.Fatalf("trial %d class %+v: engine fit %+v differs from reference %+v",
					trial, cls, got, want)
			}
		}
		putEngine(e)

		got, err := FitLine(xs, vs, classes, len(classes))
		if err != nil {
			t.Fatal(err)
		}
		want := refFitLine(xs, vs, classes)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d candidates, reference %d", trial, len(got), len(want))
		}
		for k := range want {
			if got[k].Exps == want[k].Exps {
				continue
			}
			// A different candidate at rank k is allowed only inside a
			// reference tie: the candidate the engine put here must score
			// within 1e-9 of the reference's candidate at this rank.
			if d := math.Abs(got[k].SMAPE - want[k].SMAPE); d > 1e-9 {
				t.Fatalf("trial %d rank %d: engine %+v, reference %+v (SMAPE gap %.3g)",
					trial, k, got[k], want[k], d)
			}
		}
	}
}
