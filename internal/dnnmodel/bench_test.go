package dnnmodel

import (
	"math/rand"
	"testing"

	"extrapdnn/internal/measurement"
	"extrapdnn/internal/nn"
	"extrapdnn/internal/synth"
)

// BenchmarkBuildDataset measures synthetic dataset generation at the default
// domain-adaptation size (200 samples per class over a fixed task sequence).
// This is the allocation-regression gate for the generation fast path: rows
// must be encoded straight into the preallocated dataset matrix through the
// per-worker generation workspace, so allocs/op stays O(classes), not
// O(samples). Baselines live in docs/PERFORMANCE.md.
func BenchmarkBuildDataset(b *testing.B) {
	spec := TrainSpec{
		SamplesPerClass: 200,
		Reps:            5,
		NoiseMin:        0.1,
		NoiseMax:        0.5,
		ParamValues:     [][]float64{{8, 64, 512, 4096, 32768}},
		PerPointNoise:   true,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildDataset(rand.New(rand.NewSource(int64(i))), spec)
	}
}

// BenchmarkBuildDatasetRandomLines exercises the pretraining shape: random
// sequences of 5–11 points per sample, so the sequence-generation scratch of
// the workspace is on the hot path too.
func BenchmarkBuildDatasetRandomLines(b *testing.B) {
	spec := TrainSpec{
		SamplesPerClass: 100,
		Reps:            5,
		NoiseMax:        1,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildDataset(rand.New(rand.NewSource(int64(i))), spec)
	}
}

// BenchmarkDomainAdapt is the end-to-end adaptation path (dataset generation
// plus retraining) that ModelProfile runs once per kernel; the adaptation
// dataset pool keeps its steady-state heap traffic flat across entries.
//
//   - small: a 96-64 network at 60 samples per class, the allocation row.
//   - paper/{float64,float32}: the paper topology at the benchmark's cold
//     campaign settings (9 samples per class, 1 epoch, batch 64), one
//     adaptation per op in each training precision; run with -benchtime 1x.
func BenchmarkDomainAdapt(b *testing.B) {
	task := TaskInfo{
		ParamValues: [][]float64{{8, 64, 512, 4096, 32768}},
		Reps:        5,
		NoiseMin:    0.1,
		NoiseMax:    0.5,
	}
	adapt := func(b *testing.B, m *Modeler, cfg AdaptConfig) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.DomainAdapt(rand.New(rand.NewSource(int64(i))), task, cfg)
		}
	}
	b.Run("small", func(b *testing.B) {
		m, _ := Pretrain(PretrainConfig{
			Hidden:          []int{96, 64},
			SamplesPerClass: 60,
			Epochs:          1,
			Seed:            1,
		})
		adapt(b, m, AdaptConfig{SamplesPerClass: 60, Epochs: 1})
	})
	b.Run("paper", func(b *testing.B) {
		m, _ := Pretrain(PretrainConfig{
			Hidden:          PaperTopology,
			SamplesPerClass: 8,
			Epochs:          1,
			Seed:            1,
			Precision:       nn.Float32,
		})
		for _, prec := range []nn.Precision{nn.Float64, nn.Float32} {
			b.Run(prec.String(), func(b *testing.B) {
				adapt(b, m, AdaptConfig{SamplesPerClass: 9, Epochs: 1, Precision: prec})
			})
		}
	})
}

// benchModeler builds a realistically-sized modeler for the end-to-end
// prediction benchmarks (the tiny test topology would understate the
// network-forward share of Model's cost).
func benchModeler(b *testing.B, prec nn.Precision) *Modeler {
	b.Helper()
	m, _ := Pretrain(PretrainConfig{
		Hidden:          []int{96, 64},
		SamplesPerClass: 60,
		Epochs:          1,
		Seed:            1,
	})
	m.Precision = prec
	return m
}

func benchBatchSets(n int) []*measurement.Set {
	sets := make([]*measurement.Set, n)
	for i := range sets {
		rng := rand.New(rand.NewSource(200 + int64(i)))
		spec := synth.TaskSpec{NumParams: 2, PointsPerParam: 5, Reps: 5, NoiseLevel: 0.05, EvalPoints: 1}
		sets[i] = synth.GenInstance(rng, spec).Set
	}
	return sets
}

// BenchmarkModelPerSet is the per-kernel baseline: Model on each set in turn,
// one classification forward per set. One op models 16 sets; ns/set is the
// per-kernel figure.
func BenchmarkModelPerSet(b *testing.B) {
	m := benchModeler(b, nn.Float64)
	sets := benchBatchSets(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, set := range sets {
			if _, err := m.Model(set); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(sets)), "ns/set")
}

// BenchmarkPredictBatch models the same sets through the cross-kernel batched
// inference path (one network forward for all sets) at both precisions.
func BenchmarkPredictBatch(b *testing.B) {
	for _, prec := range []nn.Precision{nn.Float64, nn.Float32} {
		b.Run(prec.String(), func(b *testing.B) {
			m := benchModeler(b, prec)
			sets := benchBatchSets(16)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, r := range m.ModelBatch(sets) {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(sets)), "ns/set")
		})
	}
}
