package regression

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"extrapdnn/internal/pmnf"
	"extrapdnn/internal/synth"
)

// Property: on noiseless data generated from any admissible class, the
// selected hypothesis reproduces the data essentially exactly — its
// cross-validated SMAPE is ~0 and its in-range predictions match.
func TestFitLineNoiselessRecoveryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		class := rng.Intn(pmnf.NumClasses)
		e := pmnf.Class(class)
		xs := synth.GenSequence(rng, synth.RandomSequenceKind(rng), 5+rng.Intn(3))
		c0 := 0.5 + rng.Float64()*100
		c1 := 0.01 + rng.Float64()*10
		vs := make([]float64, len(xs))
		for i, x := range xs {
			vs[i] = c0 + c1*e.Eval(x)
		}
		// Skip draws whose values span more than ~12 orders of magnitude
		// (e.g. x^3*log2(x) over an 8^k sequence): with float64 arithmetic
		// the intercept is then fundamentally unrecoverable — no
		// implementation could pass — and such ranges cannot be measured in
		// practice anyway.
		if vs[len(vs)-1] > 1e12*vs[0] {
			return true
		}
		cands, err := FitLine(xs, vs, pmnf.Classes(), 1)
		if err != nil {
			return false
		}
		best := cands[0]
		if best.SMAPE > 0.5 {
			return false
		}
		for i, x := range xs {
			if math.Abs(best.Eval(x)-vs[i]) > 0.05*math.Abs(vs[i])+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the selected model never fits worse (by cross-validated SMAPE)
// than the constant hypothesis — the search must dominate its own fallback.
func TestModelNeverWorseThanConstantProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		inst := synth.GenInstance(rng, synth.TaskSpec{
			NumParams:      1,
			PointsPerParam: 5,
			Reps:           3,
			NoiseLevel:     rng.Float64(),
			EvalPoints:     1,
		})
		res, err := Model(inst.Set, Options{})
		if err != nil {
			return true // degenerate draws may legitimately fail
		}
		_, vs := inst.Set.Medians()
		constCand, ok := fitOne(xsOf(inst), vs, pmnf.Exponents{})
		if !ok {
			return true
		}
		return res.SMAPE <= constCand.SMAPE+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func xsOf(inst synth.Instance) []float64 {
	xs := make([]float64, len(inst.Set.Data))
	for i, d := range inst.Set.Data {
		xs[i] = d.Point[0]
	}
	return xs
}

// Property: model selection is invariant to uniform scaling of the values —
// scaling all measurements by k scales the model but not the chosen
// exponents.
func TestFitLineScaleInvarianceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := []float64{4, 8, 16, 32, 64}
		vs := make([]float64, len(xs))
		for i := range vs {
			vs[i] = 1 + rng.Float64()*100
		}
		k := 1 + rng.Float64()*999
		scaled := make([]float64, len(vs))
		for i, v := range vs {
			scaled[i] = v * k
		}
		a, err1 := FitLine(xs, vs, pmnf.Classes(), 1)
		b, err2 := FitLine(xs, scaled, pmnf.Classes(), 1)
		if err1 != nil || err2 != nil {
			return false
		}
		return a[0].Exps == b[0].Exps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
