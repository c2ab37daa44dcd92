package regression

import (
	"fmt"
	"math/rand"
	"testing"

	"extrapdnn/internal/pmnf"
	"extrapdnn/internal/synth"
)

// BenchmarkFitLine measures the full 43-class single-parameter search that
// dominates the regression modeler: one pooled engine, one QR per class,
// and a single allocation (the returned candidates) in the steady state.
func BenchmarkFitLine(b *testing.B) {
	xs, vs := allocLine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitLine(xs, vs, pmnf.Classes(), DefaultTopK); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCombine measures the multi-parameter combination search alone on
// a seeded 10%-noise grid of 5 points per parameter (25 points for m2, 125
// for m3) with the default top-3 candidates per parameter: 11 and 135
// hypotheses before dedupe.
func BenchmarkCombine(b *testing.B) {
	for _, m := range []int{2, 3} {
		b.Run(fmt.Sprintf("m%d", m), func(b *testing.B) {
			inst := synth.GenInstance(rand.New(rand.NewSource(int64(m))), synth.TaskSpec{
				NumParams: m, PointsPerParam: 5, Reps: 5, NoiseLevel: 0.1, EvalPoints: 1,
			})
			lines, err := SelectLines(inst.Set)
			if err != nil {
				b.Fatal(err)
			}
			perParam := make([][]Candidate, m)
			for l, line := range lines {
				if perParam[l], err = FitLine(line.Xs, line.Vs, pmnf.Classes(), DefaultTopK); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Combine(inst.Set, perParam); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
