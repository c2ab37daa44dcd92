package regression

import (
	"math"
	"math/rand"
	"testing"

	"extrapdnn/internal/mat"
	"extrapdnn/internal/measurement"
	"extrapdnn/internal/pmnf"
)

// lineSet builds a one-parameter measurement set from f evaluated at xs.
func lineSet(xs []float64, f func(x float64) float64) *measurement.Set {
	s := &measurement.Set{}
	for _, x := range xs {
		s.Data = append(s.Data, measurement.Measurement{
			Point:  measurement.Point{x},
			Values: []float64{f(x)},
		})
	}
	return s
}

// gridSet builds a two-parameter grid measurement set.
func gridSet(xs, ys []float64, f func(x, y float64) float64) *measurement.Set {
	s := &measurement.Set{}
	for _, x := range xs {
		for _, y := range ys {
			s.Data = append(s.Data, measurement.Measurement{
				Point:  measurement.Point{x, y},
				Values: []float64{f(x, y)},
			})
		}
	}
	return s
}

func TestFitHypothesisExactRecovery(t *testing.T) {
	xs := []float64{4, 8, 16, 32, 64}
	e := pmnf.Exponents{I: 1, J: 1}
	vs := make([]float64, len(xs))
	for i, x := range xs {
		vs[i] = 3 + 2*e.Eval(x)
	}
	c, ok := fitOne(xs, vs, e)
	if !ok {
		t.Fatal("fit failed")
	}
	if math.Abs(c.C0-3) > 1e-6 || math.Abs(c.C1-2) > 1e-6 {
		t.Fatalf("coefficients = %v/%v, want 3/2", c.C0, c.C1)
	}
	if c.SMAPE > 1e-6 {
		t.Fatalf("noiseless SMAPE = %v, want ~0", c.SMAPE)
	}
}

func TestFitHypothesisConstant(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	vs := []float64{7, 7, 7, 7, 7}
	c, ok := fitOne(xs, vs, pmnf.Exponents{})
	if !ok || math.Abs(c.C0-7) > 1e-12 || c.SMAPE > 1e-9 {
		t.Fatalf("constant fit = %+v", c)
	}
}

func TestFitLineSelectsTrueClass(t *testing.T) {
	// For several generating classes, the noiseless search must rank the true
	// exponents at (or indistinguishably near) the top.
	for _, e := range []pmnf.Exponents{
		{I: 1, J: 0}, {I: 2, J: 0}, {I: 0.5, J: 0}, {I: 1, J: 1}, {I: 0, J: 2}, {I: 3, J: 0},
	} {
		xs := []float64{4, 8, 16, 32, 64, 128}
		vs := make([]float64, len(xs))
		for i, x := range xs {
			vs[i] = 10 + 0.5*e.Eval(x)
		}
		cands, err := FitLine(xs, vs, pmnf.Classes(), 3)
		if err != nil {
			t.Fatal(err)
		}
		if d := pmnf.Distance(cands[0].Exps, e); d > 0.26 {
			t.Errorf("class %+v: best candidate %+v at distance %v", e, cands[0].Exps, d)
		}
	}
}

func TestFitLineTopKOrderedAndBounded(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	vs := []float64{11, 21, 31, 41, 51}
	cands, err := FitLine(xs, vs, pmnf.Classes(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 3 {
		t.Fatalf("got %d candidates", len(cands))
	}
	for i := 1; i < len(cands); i++ {
		if cands[i-1].SMAPE > cands[i].SMAPE {
			t.Fatal("candidates not sorted by SMAPE")
		}
	}
}

func TestFitLineTooFewPoints(t *testing.T) {
	if _, err := FitLine([]float64{1, 2}, []float64{1, 2}, pmnf.Classes(), 3); err == nil {
		t.Fatal("expected error for too few points")
	}
}

func TestFitLineMismatchedLengths(t *testing.T) {
	if _, err := FitLine([]float64{1, 2, 3, 4, 5}, []float64{1}, pmnf.Classes(), 3); err == nil {
		t.Fatal("expected error for mismatched lengths")
	}
}

func TestFitLineAlwaysConsidersConstant(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	vs := []float64{9, 9, 9, 9, 9}
	linear := []pmnf.Exponents{{I: 1, J: 0}}
	cands, err := FitLine(xs, vs, linear, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !cands[0].Exps.IsConstant() {
		t.Fatalf("constant data should select constant hypothesis, got %+v", cands[0].Exps)
	}
}

// fitOne fits a single exponent class through a pooled engine.
func fitOne(xs, vs []float64, e pmnf.Exponents) (Candidate, bool) {
	eng := getEngine()
	defer putEngine(eng)
	return eng.fitClass(xs, vs, e)
}

// checkLOO asserts the engine state after a successful score: every
// leverage in [0, 1] (up to rounding) and every leave-one-out prediction
// finite.
func checkLOO(t testing.TB, e *fitEngine, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if h := e.hat[i]; !(h >= 0 && h <= 1+1e-12) {
			t.Fatalf("leverage h[%d] = %v outside [0, 1]", i, h)
		}
		if v := e.loo[i]; math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("leave-one-out prediction %d = %v", i, v)
		}
	}
}

// TestLooPredictionsMatchExplicitRefit checks the engine's hat-identity
// leave-one-out predictions against explicit refits without the point, for
// designs of p = 1..4 coefficients shaped like Combine's: an intercept plus
// products of PMNF basis columns over a parameter grid. The point sequences
// include exponential ones (2^k, 8^k) and the values spread over nine orders
// of magnitude, which makes the designs ill-conditioned.
func TestLooPredictionsMatchExplicitRefit(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	sequences := [][]float64{
		{1, 2, 3, 4, 5, 6},
		{4, 8, 16, 32, 64, 128},
		{2, 16, 128, 1024, 8192, 65536},
		{10, 20, 30, 40, 50, 60},
	}
	classes := pmnf.Classes()
	e := getEngine()
	defer putEngine(e)
	for trial := 0; trial < 120; trial++ {
		p := 1 + trial%4
		// A grid over p-1 parameters (one parameter for p = 1).
		m := max(p-1, 1)
		seqs := make([][]float64, m)
		for l := range seqs {
			seqs[l] = sequences[rng.Intn(len(sequences))]
		}
		var points [][]float64
		var rec func(pt []float64)
		rec = func(pt []float64) {
			if len(pt) == m {
				points = append(points, append([]float64(nil), pt...))
				return
			}
			for _, v := range seqs[len(pt)][:4+rng.Intn(3)] {
				rec(append(pt, v))
			}
		}
		rec(nil)
		n := len(points)
		// Term t multiplies a random class of parameter t with, sometimes, a
		// class of another parameter.
		terms := make([][]pmnf.Exponents, p-1)
		for tm := range terms {
			exps := make([]pmnf.Exponents, m)
			exps[tm] = classes[rng.Intn(len(classes))]
			if o := rng.Intn(m); o != tm && rng.Intn(2) == 0 {
				exps[o] = classes[rng.Intn(len(classes))]
			}
			terms[tm] = exps
		}
		a := mat.New(n, p)
		for i, pt := range points {
			a.Set(i, 0, 1)
			for tm, exps := range terms {
				a.Set(i, tm+1, pmnf.Term{Coefficient: 1, Exps: exps}.Eval(pt))
			}
		}
		spread := math.Pow(10, float64(rng.Intn(10))) // up to 1e9
		y := make([]float64, n)
		for i := range y {
			y[i] = 1 + spread*rng.Float64()
		}

		e.design(n, p)
		for j := 1; j < p; j++ {
			col := e.qr.Col(j)
			for i := range col {
				col[i] = a.At(i, j)
			}
		}
		if _, _, ok := e.score(y); !ok {
			continue // numerically rank-deficient draw
		}
		checkLOO(t, e, n)
		maxY := 0.0
		for _, v := range y {
			maxY = math.Max(maxY, math.Abs(v))
		}
		for i := 0; i < n; i++ {
			if e.hat[i] > 1-1e-6 {
				continue // the explicit refit itself is ill-posed here
			}
			sub := mat.New(n-1, p)
			suby := make([]float64, 0, n-1)
			r := 0
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				for c := 0; c < p; c++ {
					sub.Set(r, c, a.At(j, c))
				}
				suby = append(suby, y[j])
				r++
			}
			subcoef, err := refLeastSquares(sub, suby)
			if err != nil {
				continue
			}
			want := 0.0
			for c := 0; c < p; c++ {
				want += subcoef[c] * a.At(i, c)
			}
			if d := math.Abs(e.loo[i] - want); d > 1e-9*maxY/(1-e.hat[i]) {
				t.Fatalf("trial %d (p=%d, n=%d): LOO prediction %d: hat identity %v vs refit %v (diff %.3g)",
					trial, p, n, i, e.loo[i], want, d)
			}
		}
		if p == 1 {
			// The closed form of the constant hypothesis agrees with the QR path.
			qrLOO := append([]float64(nil), e.loo[:n]...)
			e.scoreConstant(y)
			for i := range qrLOO {
				if math.Abs(qrLOO[i]-e.loo[i]) > 1e-12*maxY {
					t.Fatalf("constant LOO %d: QR %v vs closed form %v", i, qrLOO[i], e.loo[i])
				}
			}
		}
	}
}

func TestModelSingleParameterRecovery(t *testing.T) {
	e := pmnf.Exponents{I: 1.0 / 2, J: 1}
	set := lineSet([]float64{4, 8, 16, 32, 64}, func(x float64) float64 {
		return 5 + 0.25*e.Eval(x)
	})
	res, err := Model(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lead := res.Model.LeadExponents()
	if d := pmnf.Distance(lead[0], e); d > 0.26 {
		t.Fatalf("recovered %v (lead %+v), want exponents %+v", res.Model, lead[0], e)
	}
	if res.SMAPE > 0.5 {
		t.Fatalf("SMAPE = %v, want near 0", res.SMAPE)
	}
}

func TestModelTwoParameterAdditive(t *testing.T) {
	set := gridSet(
		[]float64{4, 8, 16, 32, 64},
		[]float64{10, 20, 30, 40, 50},
		func(x, y float64) float64 { return 3 + 2*x + 5*y },
	)
	res, err := Model(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lead := res.Model.LeadExponents()
	if pmnf.Distance(lead[0], pmnf.Exponents{I: 1}) > 0.26 ||
		pmnf.Distance(lead[1], pmnf.Exponents{I: 1}) > 0.26 {
		t.Fatalf("lead exponents %+v, want linear in both", lead)
	}
	// Prediction at an extrapolation point should be close.
	got := res.Model.Eval([]float64{128, 60})
	want := 3.0 + 2*128 + 5*60
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("extrapolation %v, want %v", got, want)
	}
}

func TestModelTwoParameterMultiplicative(t *testing.T) {
	set := gridSet(
		[]float64{4, 8, 16, 32, 64},
		[]float64{2, 4, 6, 8, 10},
		func(x, y float64) float64 { return 1 + 0.5*x*y*y },
	)
	res, err := Model(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Model.Eval([]float64{128, 12})
	want := 1 + 0.5*128*144
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("extrapolation %v, want %v (model %v)", got, want, res.Model)
	}
}

func TestModelConstantData(t *testing.T) {
	set := lineSet([]float64{1, 2, 3, 4, 5}, func(x float64) float64 { return 42 })
	res, err := Model(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lead := res.Model.LeadExponents()
	if !lead[0].IsConstant() {
		t.Fatalf("constant data modeled as %v", res.Model)
	}
	if math.Abs(res.Model.Eval([]float64{100})-42) > 1e-6 {
		t.Fatalf("constant model value %v", res.Model.Eval([]float64{100}))
	}
}

func TestModelInvalidSet(t *testing.T) {
	if _, err := Model(&measurement.Set{}, Options{}); err == nil {
		t.Fatal("expected error for empty set")
	}
}

func TestSelectLines(t *testing.T) {
	set := gridSet(
		[]float64{4, 8, 16, 32, 64},
		[]float64{10, 20, 30, 40, 50},
		func(x, y float64) float64 { return x + y },
	)
	lines, err := SelectLines(set)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 {
		t.Fatalf("%d lines", len(lines))
	}
	for l, line := range lines {
		if line.Param != l || len(line.Xs) != 5 {
			t.Fatalf("line %d = %+v", l, line)
		}
		for i := 1; i < len(line.Xs); i++ {
			if line.Xs[i-1] >= line.Xs[i] {
				t.Fatal("line not sorted")
			}
		}
	}
}

func TestSelectLinesSparseCross(t *testing.T) {
	// Two crossing lines (the FASTEST/RELeARN layout): 5 points varying x
	// with y=50, plus 5 points varying y with x=4, overlapping at (4,50).
	s := &measurement.Set{}
	for _, x := range []float64{4, 8, 16, 32, 64} {
		s.Data = append(s.Data, measurement.Measurement{Point: measurement.Point{x, 50}, Values: []float64{x + 50}})
	}
	for _, y := range []float64{10, 20, 30, 40} {
		s.Data = append(s.Data, measurement.Measurement{Point: measurement.Point{4, y}, Values: []float64{4 + y}})
	}
	lines, err := SelectLines(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines[0].Xs) != 5 {
		t.Fatalf("x line has %d points", len(lines[0].Xs))
	}
	if len(lines[1].Xs) != 5 {
		t.Fatalf("y line has %d points (should include the crossing point)", len(lines[1].Xs))
	}
}

func TestSelectLinesInsufficient(t *testing.T) {
	s := lineSet([]float64{1, 2, 3}, func(x float64) float64 { return x })
	if _, err := SelectLines(s); err == nil {
		t.Fatal("expected error for 3-point line")
	}
}

func TestCombineErrors(t *testing.T) {
	set := lineSet([]float64{1, 2, 3, 4, 5}, func(x float64) float64 { return x })
	if _, err := Combine(set, nil); err == nil {
		t.Fatal("expected error for wrong candidate list count")
	}
	if _, err := Combine(set, [][]Candidate{{}}); err == nil {
		t.Fatal("expected error for empty candidate list")
	}
}

func TestSetPartitionsCounts(t *testing.T) {
	for m, want := range map[int]int{1: 1, 2: 2, 3: 5, 4: 15} {
		if got := len(setPartitions(m)); got != want {
			t.Errorf("Bell(%d) = %d, want %d", m, got, want)
		}
	}
}

func TestModelNoisyStillReasonable(t *testing.T) {
	// With mild noise the regression modeler should stay near the truth.
	rng := rand.New(rand.NewSource(77))
	e := pmnf.Exponents{I: 1, J: 0}
	set := lineSet([]float64{4, 8, 16, 32, 64}, func(x float64) float64 {
		return (2 + 3*e.Eval(x)) * (1 + 0.05*(rng.Float64()-0.5))
	})
	res, err := Model(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lead := res.Model.LeadExponents()
	if d := pmnf.Distance(lead[0], e); d > 0.5 {
		t.Fatalf("noisy recovery too far: %v (d=%v)", res.Model, d)
	}
}

func TestThreeParameterKripkeShape(t *testing.T) {
	// f = 8.51 + 0.11 * x1^(1/3) * x2 * x3^(4/5): the multiplicative
	// three-parameter model from the paper's Kripke case study.
	s := &measurement.Set{}
	for _, x1 := range []float64{8, 64, 512, 4096, 32768} {
		for _, x2 := range []float64{2, 4, 6, 8, 10} {
			for _, x3 := range []float64{32, 64, 96, 128, 160} {
				v := 8.51 + 0.11*math.Pow(x1, 1.0/3)*x2*math.Pow(x3, 0.8)
				s.Data = append(s.Data, measurement.Measurement{
					Point:  measurement.Point{x1, x2, x3},
					Values: []float64{v},
				})
			}
		}
	}
	res, err := Model(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pred := res.Model.Eval([]float64{32768, 12, 160})
	want := 8.51 + 0.11*math.Pow(32768, 1.0/3)*12*math.Pow(160, 0.8)
	if math.Abs(pred-want)/want > 0.1 {
		t.Fatalf("Kripke extrapolation %v, want %v (model %v)", pred, want, res.Model)
	}
}

// TestModelConcurrentMatchesSerial: the daemon models many sets at once, and
// the pooled engines must not leak state between concurrent calls — every
// concurrent result equals the serial one bit for bit (run under -race by
// scripts/check.sh).
func TestModelConcurrentMatchesSerial(t *testing.T) {
	sets := goldenSets()
	if testing.Short() {
		sets = sets[:len(sets)/4]
	}
	want := make([]Result, len(sets))
	for i, gs := range sets {
		want[i], _ = Model(gs.set, Options{})
	}
	const workers = 4
	errs := make(chan string, len(sets))
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := w; i < len(sets); i += workers {
				got, _ := Model(sets[i].set, Options{})
				if got.Model.String() != want[i].Model.String() ||
					math.Float64bits(got.SMAPE) != math.Float64bits(want[i].SMAPE) {
					errs <- sets[i].name
				}
			}
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	close(errs)
	for name := range errs {
		t.Errorf("%s: concurrent result differs from serial", name)
	}
}
