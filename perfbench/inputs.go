package main

import (
	"fmt"
	"math"
	"math/rand"

	"extrapdnn/internal/apps"
	"extrapdnn/internal/core"
	"extrapdnn/internal/measurement"
	"extrapdnn/internal/pmnf"
	"extrapdnn/internal/profile"
	"extrapdnn/internal/synth"
)

// kernel is one modeling input together with the model that generated it.
type kernel struct {
	Name      string
	Set       *measurement.Set
	Truth     pmnf.Model
	EvalPoint measurement.Point // the extrapolation point P+
	EvalTruth float64           // the noiseless truth at P+
	Level     float64           // injected noise level of a synthetic kernel
	Sig       string            // adaptation task signature (core.TaskSignature)
}

// noiseLevels are the injected noise levels of the synthetic kernels.
var noiseLevels = []float64{0.02, 0.10, 0.50, 1.00}

// pilotDraws is the number of candidates drawn to find a group's most
// frequent task signature.
const pilotDraws = 64

// admitGroup draws candidates from gen and keeps n of them. A candidate is
// kept only when its adaptation task signature is the most frequent one of a
// pilot sample, so that the group costs exactly one adaptation however many
// kernels it holds. Names are prefix-i.
func admitGroup(prefix string, n int, gen func() kernel) ([]kernel, error) {
	draw := func() (kernel, error) {
		k := gen()
		sig, err := core.TaskSignature(k.Set, 0)
		if err != nil {
			return k, fmt.Errorf("%s: generated an invalid set: %w", prefix, err)
		}
		k.Sig = sig
		return k, nil
	}
	var pilot []kernel
	count := map[string]int{}
	var order []string
	for i := 0; i < pilotDraws; i++ {
		k, err := draw()
		if err != nil {
			return nil, err
		}
		if count[k.Sig] == 0 {
			order = append(order, k.Sig)
		}
		count[k.Sig]++
		pilot = append(pilot, k)
	}
	mode := ""
	for _, sig := range order {
		if count[sig] > count[mode] {
			mode = sig
		}
	}
	var out []kernel
	add := func(k kernel) {
		if len(out) < n && k.Sig == mode {
			k.Name = fmt.Sprintf("%s-%03d", prefix, len(out))
			out = append(out, k)
		}
	}
	for _, k := range pilot {
		add(k)
	}
	for tries := 0; len(out) < n; tries++ {
		if tries > 1000*n {
			return nil, fmt.Errorf("%s: only %d of %d kernels matched the group's signature", prefix, len(out), n)
		}
		k, err := draw()
		if err != nil {
			return nil, err
		}
		add(k)
	}
	return out, nil
}

// paramNames returns x1..xm, the names the rendered models use, so that a
// model read back from a result line parses.
func paramNames(m int) []string {
	names := make([]string, m)
	for i := range names {
		names[i] = fmt.Sprintf("x%d", i+1)
	}
	return names
}

// designs returns n experiment layouts of m parameter-value sequences with
// five points each. The layouts are the same for every seed, like the fixed
// experiment design of a real campaign: the seed draws the kernels measured
// on them, not the design.
func designs(m, n int) [][][]float64 {
	rng := rand.New(rand.NewSource(int64(1000 + m)))
	out := make([][][]float64, n)
	for i := range out {
		out[i] = synth.GenInstance(rng, synth.TaskSpec{NumParams: m, PointsPerParam: 5, Reps: 5, EvalPoints: 1}).ParamValues
	}
	return out
}

// synthGen generates synthetic kernels with m parameters on a fixed layout at
// one noise level.
func synthGen(rng *rand.Rand, layout [][]float64, level float64) func() kernel {
	m := len(layout)
	return func() kernel {
		inst := synth.GenInstance(rng, synth.TaskSpec{
			NumParams: m, PointsPerParam: 5, Reps: 5, NoiseLevel: level, EvalPoints: 1, ParamValues: layout,
		})
		inst.Set.ParamNames = paramNames(m)
		return kernel{Set: inst.Set, Truth: inst.Truth, EvalPoint: inst.EvalPoints[0], EvalTruth: inst.EvalTruth[0], Level: level}
	}
}

// appGen generates the kernels of a case-study application in turn.
func appGen(rng *rand.Rand, app *apps.App) func() kernel {
	i := 0
	return func() kernel {
		k := app.Kernels[i%len(app.Kernels)]
		i++
		return kernel{Set: app.Generate(rng, k), Truth: k.Truth, EvalPoint: app.EvalPoint, EvalTruth: app.EvalTruth(k)}
	}
}

// synthGroups builds kernels on the given layouts at every noise level, one
// signature per (layout, level) group and perGroup kernels in each.
func synthGroups(rng *rand.Rand, prefix string, layouts [][][]float64, perGroup int) ([]kernel, error) {
	var out []kernel
	for li, layout := range layouts {
		for _, level := range noiseLevels {
			ks, err := admitGroup(fmt.Sprintf("%s-m%d-l%d-n%03.0f", prefix, len(layout), li, level*100), perGroup, synthGen(rng, layout, level))
			if err != nil {
				return nil, err
			}
			out = append(out, ks...)
		}
	}
	return out, nil
}

// signatures returns the distinct task signatures of ks and, for each, the
// first kernel that has it.
func signatures(ks []kernel) []kernel {
	seen := map[string]bool{}
	var firsts []kernel
	for _, k := range ks {
		if !seen[k.Sig] {
			seen[k.Sig] = true
			firsts = append(firsts, k)
		}
	}
	return firsts
}

// rescaled returns a copy of set with every value multiplied by 2^exp. The
// scaling is exact in floating point, so the noise estimate, the task
// signature, SMAPE and the model selection are all unchanged, while every
// request differs in content from the primed original.
func rescaled(set *measurement.Set, exp int) *measurement.Set {
	out := &measurement.Set{ParamNames: set.ParamNames, Metric: set.Metric, Data: make([]measurement.Measurement, len(set.Data))}
	f := math.Ldexp(1, exp)
	for i, m := range set.Data {
		vals := make([]float64, len(m.Values))
		for j, v := range m.Values {
			vals[j] = v * f
		}
		out.Data[i] = measurement.Measurement{Point: m.Point, Values: vals}
	}
	return out
}

// randomExp draws the power of two a rescaled request uses: a non-zero
// exponent in [-10, 10].
func randomExp(rng *rand.Rand) int {
	e := rng.Intn(20) - 10
	if e >= 0 {
		e++
	}
	return e
}

// entries turns kernels into profile entries.
func entries(ks []kernel, set func(kernel) *measurement.Set) []profile.Entry {
	out := make([]profile.Entry, len(ks))
	for i, k := range ks {
		out[i] = profile.Entry{Kernel: k.Name, Metric: "runtime", Set: set(k)}
	}
	return out
}

// original is the identity set selector for entries.
func original(k kernel) *measurement.Set { return k.Set }

// minErrPct keeps the logarithm of an exact prediction finite.
const minErrPct = 1e-6

// accuracy returns the paper's accuracy bucket and predictive power over the
// kernels' selected models: the share whose lead exponents lie within
// distance 1/2 of the generating model, and the typical relative error (in
// percent) at the extrapolation point. The typical error is the geometric
// mean over the kernels: the median of log-normally distributed errors, but
// steadier across seeds than the sample median, which falls between the low-
// and the high-noise kernels, where a few kernels move it far.
func accuracy(ks []kernel, models []pmnf.Model) (accHalf, pplusErrPct float64) {
	var hits int
	var logSum float64
	for i, k := range ks {
		if pmnf.LeadDistance(models[i], k.Truth) <= 0.5 {
			hits++
		}
		e := math.Abs(models[i].Eval(k.EvalPoint)-k.EvalTruth) / math.Abs(k.EvalTruth) * 100
		logSum += math.Log(math.Max(e, minErrPct))
	}
	n := float64(len(ks))
	return float64(hits) / n, math.Exp(logSum / n)
}

// outcome is what a modeling call must return again for a rescaled copy of
// its input.
type outcome struct {
	SMAPE       float64
	Noise       float64
	SelectedDNN bool
}

// finite returns "" when the outcome's SMAPE is finite, else a description.
func (o outcome) finite(name string) string {
	if math.IsNaN(o.SMAPE) || math.IsInf(o.SMAPE, 0) {
		return fmt.Sprintf("%s: non-finite SMAPE %v", name, o.SMAPE)
	}
	return ""
}

// compare returns "" when got matches want bit for bit, else a description.
func (want outcome) compare(name string, got outcome) string {
	if msg := got.finite(name); msg != "" {
		return msg
	}
	if got != want {
		return fmt.Sprintf("%s: got %+v, primed original gave %+v", name, got, want)
	}
	return ""
}
