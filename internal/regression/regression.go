// Package regression implements the classic Extra-P regression modeler that
// the paper uses as its baseline (Section III): for every admissible PMNF
// exponent pair it fits the hypothesis c0 + c1 * x^i * log2(x)^j by linear
// least squares, scores hypotheses with leave-one-out cross-validated SMAPE,
// and selects the best. Multi-parameter models are found by first modeling
// every parameter separately along a measurement line and then testing all
// additive and multiplicative combinations of the top single-parameter
// hypotheses.
//
// The hypothesis-fitting and combination machinery is exported because the
// DNN modeler shares it: the DNN merely replaces the exhaustive search over
// all 43 classes with the network's top-3 predicted classes.
package regression

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"extrapdnn/internal/measurement"
	"extrapdnn/internal/obs"
	"extrapdnn/internal/pmnf"
)

// DefaultTopK is the number of best single-parameter hypotheses per
// parameter carried into the multi-parameter combination search, matching
// the paper's use of the network's top three classification results.
const DefaultTopK = 3

// Options configures the modeler.
type Options struct {
	// TopK bounds the single-parameter hypotheses per parameter considered
	// during multi-parameter combination. Zero means DefaultTopK.
	TopK int
	// Classes restricts the searched exponent classes. Nil means all 43
	// admissible classes (the classic Extra-P search).
	Classes []pmnf.Exponents
}

func (o Options) topK() int {
	if o.TopK <= 0 {
		return DefaultTopK
	}
	return o.TopK
}

func (o Options) classes() []pmnf.Exponents {
	if o.Classes == nil {
		return pmnf.Classes()
	}
	return o.Classes
}

// Result is a selected performance model together with its cross-validated
// SMAPE score (percent, smaller is better).
type Result struct {
	Model pmnf.Model
	SMAPE float64
}

// Candidate is one fitted single-parameter hypothesis.
type Candidate struct {
	Exps   pmnf.Exponents
	C0, C1 float64
	SMAPE  float64 // leave-one-out cross-validated SMAPE
}

// Eval returns the candidate's prediction at x.
func (c Candidate) Eval(x float64) float64 {
	if c.Exps.IsConstant() {
		return c.C0
	}
	return c.C0 + c.C1*c.Exps.Eval(x)
}

// FitLine searches the given exponent classes over one single-parameter
// measurement line (strictly increasing xs, median values vs) and returns up
// to topK candidates ordered by ascending cross-validated SMAPE. The
// constant hypothesis is always searched so a parameter without influence on
// performance can be recognized.
func FitLine(xs, vs []float64, classes []pmnf.Exponents, topK int) ([]Candidate, error) {
	return FitLineCtx(context.Background(), xs, vs, classes, topK)
}

// FitLineCtx is FitLine traced as a "fit_single" span (child of the span ctx
// carries) with the number of fitted hypotheses as attribute.
func FitLineCtx(ctx context.Context, xs, vs []float64, classes []pmnf.Exponents, topK int) ([]Candidate, error) {
	_, span := obs.StartSpan(ctx, spanFitSingle)
	cands, hypotheses, err := fitLine(xs, vs, classes, topK)
	span.SetInt(attrHypotheses, int64(hypotheses))
	span.End()
	return cands, err
}

// Stage span names and attribute of the hypothesis search; benchmarks use
// the same names for the same stages.
const (
	spanFitSingle  = "fit_single"
	spanFitCombine = "fit_combine"
	attrHypotheses = "hypotheses"
)

// fitLine is FitLine without the span; it also returns the number of
// hypotheses fitted.
func fitLine(xs, vs []float64, classes []pmnf.Exponents, topK int) ([]Candidate, int, error) {
	if len(xs) != len(vs) {
		return nil, 0, fmt.Errorf("regression: %d positions vs %d values", len(xs), len(vs))
	}
	if len(xs) < measurement.MinPointsPerParameter {
		return nil, 0, fmt.Errorf("regression: need at least %d points per parameter, got %d",
			measurement.MinPointsPerParameter, len(xs))
	}
	e := getEngine()
	defer putEngine(e)
	cands := e.cands[:0]
	seenConstant := false
	for _, cls := range classes {
		if cls.IsConstant() {
			seenConstant = true
		}
		if c, ok := e.fitClass(xs, vs, cls); ok {
			cands = append(cands, c)
		}
	}
	hypotheses := len(classes)
	if !seenConstant {
		hypotheses++
		if c, ok := e.fitClass(xs, vs, pmnf.Exponents{}); ok {
			cands = append(cands, c)
		}
	}
	e.cands = cands
	if len(cands) == 0 {
		return nil, hypotheses, errors.New("regression: no hypothesis could be fitted")
	}
	// Rank by cross-validated SMAPE; on (near-)ties prefer the simpler
	// hypothesis — the same bias toward the simplest explanation that the
	// PMNF itself encodes.
	less := func(a, b Candidate) bool {
		if diff := a.SMAPE - b.SMAPE; diff < -1e-9 || diff > 1e-9 {
			return a.SMAPE < b.SMAPE
		}
		return a.Exps.I+a.Exps.J/4 < b.Exps.I+b.Exps.J/4
	}
	slices.SortStableFunc(cands, func(a, b Candidate) int {
		switch {
		case less(a, b):
			return -1
		case less(b, a):
			return 1
		}
		return 0
	})
	out := make([]Candidate, min(len(cands), topK))
	copy(out, cands)
	return out, hypotheses, nil
}

// fitClass fits one exponent class c0 + c1·x^i·log2(x)^j to a line and
// scores it by leave-one-out cross-validation.
func (e *fitEngine) fitClass(xs, vs []float64, cls pmnf.Exponents) (Candidate, bool) {
	if cls.IsConstant() {
		c0, smape := e.scoreConstant(vs)
		return Candidate{Exps: cls, C0: c0, SMAPE: smape}, true
	}
	e.design(len(xs), 2)
	col := e.qr.Col(1)
	for i, x := range xs {
		col[i] = cls.Eval(x)
	}
	coef, smape, ok := e.score(vs)
	if !ok {
		return Candidate{}, false
	}
	return Candidate{Exps: cls, C0: coef[0], C1: coef[1], SMAPE: smape}, true
}

// Model builds a performance model for a measurement set with any number of
// parameters using the classic exhaustive regression search.
func Model(set *measurement.Set, opts Options) (Result, error) {
	return ModelCtx(context.Background(), set, opts)
}

// ModelCtx is Model with its fit_single and fit_combine spans parented by
// the span ctx carries.
func ModelCtx(ctx context.Context, set *measurement.Set, opts Options) (Result, error) {
	if err := set.Validate(); err != nil {
		return Result{}, err
	}
	lines, err := SelectLines(set)
	if err != nil {
		return Result{}, err
	}
	perParam := make([][]Candidate, len(lines))
	for l, line := range lines {
		cands, err := FitLineCtx(ctx, line.Xs, line.Vs, opts.classes(), opts.topK())
		if err != nil {
			return Result{}, fmt.Errorf("parameter %d: %w", l, err)
		}
		perParam[l] = cands
	}
	return CombineCtx(ctx, set, perParam)
}
