package regression

import (
	"math"
	"math/rand"
	"testing"

	"extrapdnn/internal/measurement"
	"extrapdnn/internal/pmnf"
	"extrapdnn/internal/synth"
)

// FuzzCombine drives the full search (FitLine per parameter, then Combine)
// over seeded synthetic sets of m = 1..3 parameters at any noise level and
// value scale, and checks the engine on the design Combine selected:
// rebuilt from the model's terms and refitted, it must reproduce the
// selected SMAPE bit for bit, with every leverage in [0, 1] and every
// leave-one-out prediction finite. Scaling all measurements by a power of
// two must select the same model with the same SMAPE, bit for bit.
func FuzzCombine(f *testing.F) {
	f.Add(int64(1), uint8(0), 0.02, int8(0))
	f.Add(int64(2), uint8(1), 0.5, int8(30))
	f.Add(int64(3), uint8(2), 1.0, int8(-20))
	f.Add(int64(4), uint8(2), 0.1, int8(9))
	f.Fuzz(func(t *testing.T, seed int64, mSel uint8, noise float64, exp int8) {
		if math.IsNaN(noise) || math.IsInf(noise, 0) {
			noise = 0
		}
		inst := synth.GenInstance(rand.New(rand.NewSource(seed)), synth.TaskSpec{
			NumParams:      1 + int(mSel%3),
			PointsPerParam: 5,
			Reps:           3,
			NoiseLevel:     math.Min(math.Abs(noise), 2),
			EvalPoints:     1,
		})
		set := inst.Set
		res, err := Model(set, Options{})
		if err != nil {
			return // a degenerate draw: no hypothesis fits
		}
		if math.IsNaN(res.SMAPE) || res.SMAPE < 0 || math.IsInf(res.SMAPE, 0) {
			t.Fatalf("selected %s with SMAPE %v", res.Model, res.SMAPE)
		}

		points, values := set.Medians()
		e := getEngine()
		defer putEngine(e)
		var smape float64
		if len(res.Model.Terms) == 0 {
			_, smape = e.scoreConstant(values)
		} else {
			e.design(len(points), 1+len(res.Model.Terms))
			for t, term := range res.Model.Terms {
				col := e.qr.Col(t + 1)
				unit := pmnf.Term{Coefficient: 1, Exps: term.Exps}
				for i, pt := range points {
					col[i] = unit.Eval(pt)
				}
			}
			var ok bool
			if _, smape, ok = e.score(values); !ok {
				t.Fatalf("selected design %s no longer factors", res.Model)
			}
			checkLOO(t, e, len(points))
		}
		if math.Float64bits(smape) != math.Float64bits(res.SMAPE) {
			t.Fatalf("refit of %s: SMAPE %v, Combine reported %v", res.Model, smape, res.SMAPE)
		}

		k := int(exp) % 60
		scaled := &measurement.Set{ParamNames: set.ParamNames, Metric: set.Metric}
		for _, d := range set.Data {
			vals := make([]float64, len(d.Values))
			for i, v := range d.Values {
				vals[i] = math.Ldexp(v, k)
			}
			scaled.Data = append(scaled.Data, measurement.Measurement{Point: d.Point, Values: vals})
		}
		sres, err := Model(scaled, Options{})
		if err != nil {
			t.Fatalf("scaled by 2^%d: %v", k, err)
		}
		if termStructure(sres.Model) != termStructure(res.Model) ||
			math.Float64bits(sres.SMAPE) != math.Float64bits(res.SMAPE) {
			t.Fatalf("scaled by 2^%d: %s (SMAPE %v), unscaled %s (SMAPE %v)",
				k, sres.Model, sres.SMAPE, res.Model, res.SMAPE)
		}
	})
}
