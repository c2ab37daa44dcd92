package regression

import (
	"context"
	"math/rand"
	"testing"

	"extrapdnn/internal/measurement"
	"extrapdnn/internal/obs"
	"extrapdnn/internal/pmnf"
	"extrapdnn/internal/synth"
)

const allocRuns = 200

// skipUnderRace skips an allocation gate in -race builds, where sync.Pool
// drops items at random; scripts/check.sh runs the gates without -race.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
}

// allocLine is a noisy six-point line for the allocation gates.
func allocLine() (xs, vs []float64) {
	xs = []float64{4, 8, 16, 32, 64, 128}
	e := pmnf.Exponents{I: 1, J: 1}
	rng := rand.New(rand.NewSource(3))
	vs = make([]float64, len(xs))
	for i, x := range xs {
		vs[i] = (3 + 2*e.Eval(x)) * synth.NoiseFactor(rng, 0.2)
	}
	return xs, vs
}

// allocSet is a seeded three-parameter set with its per-parameter
// candidates at the given topK.
func allocSet(t *testing.T, topK int) (*measurement.Set, [][]Candidate) {
	t.Helper()
	inst := synth.GenInstance(rand.New(rand.NewSource(5)), synth.TaskSpec{
		NumParams: 3, PointsPerParam: 5, Reps: 3, NoiseLevel: 0.1, EvalPoints: 1,
	})
	lines, err := SelectLines(inst.Set)
	if err != nil {
		t.Fatal(err)
	}
	perParam := make([][]Candidate, len(lines))
	for l, line := range lines {
		if perParam[l], err = FitLine(line.Xs, line.Vs, pmnf.Classes(), topK); err != nil {
			t.Fatal(err)
		}
	}
	return inst.Set, perParam
}

// TestFitLineAllocations: the engine's buffers are pooled and reused across
// hypotheses, so searching all 43 classes allocates no more than searching
// three.
func TestFitLineAllocations(t *testing.T) {
	skipUnderRace(t)
	xs, vs := allocLine()
	all := pmnf.Classes()
	fit := func(classes []pmnf.Exponents) func() {
		return func() {
			if _, err := FitLine(xs, vs, classes, DefaultTopK); err != nil {
				t.Fatal(err)
			}
		}
	}
	few := testing.AllocsPerRun(allocRuns, fit(all[:3]))
	many := testing.AllocsPerRun(allocRuns, fit(all))
	if many > few {
		t.Fatalf("FitLine allocates %v times over %d classes, %v over 3", many, len(all), few)
	}
}

// TestCombineAllocations: basis columns, dedupe keys and designs live in
// the pooled engine, so Combine's allocations do not grow with the number
// of hypotheses (m = 3: 15 term structures at topK 1, 135 at topK 3).
func TestCombineAllocations(t *testing.T) {
	skipUnderRace(t)
	count := func(topK int) float64 {
		set, perParam := allocSet(t, topK)
		return testing.AllocsPerRun(allocRuns, func() {
			if _, err := Combine(set, perParam); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, three := count(1), count(3)
	if three > one {
		t.Fatalf("Combine allocates %v times at topK 3, %v at topK 1", three, one)
	}
}

// TestFitSpansDisabledAllocations is the regression-side twin of obs's
// disabled-path gate: with no tracer installed, the fit_single and
// fit_combine spans add no allocation to FitLine and Combine.
func TestFitSpansDisabledAllocations(t *testing.T) {
	skipUnderRace(t)
	if prev := obs.SetTracer(nil); prev != nil {
		defer obs.SetTracer(prev)
	}
	ctx := context.Background()
	xs, vs := allocLine()
	classes := pmnf.Classes()
	traced := testing.AllocsPerRun(allocRuns, func() { FitLineCtx(ctx, xs, vs, classes, DefaultTopK) })
	bare := testing.AllocsPerRun(allocRuns, func() { fitLine(xs, vs, classes, DefaultTopK) })
	if traced != bare {
		t.Fatalf("FitLineCtx allocates %v times, the unspanned search %v", traced, bare)
	}
	set, perParam := allocSet(t, DefaultTopK)
	traced = testing.AllocsPerRun(allocRuns, func() { CombineCtx(ctx, set, perParam) })
	bare = testing.AllocsPerRun(allocRuns, func() { combine(set, perParam) })
	if traced != bare {
		t.Fatalf("CombineCtx allocates %v times, the unspanned search %v", traced, bare)
	}
}
