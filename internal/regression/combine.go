package regression

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"extrapdnn/internal/measurement"
	"extrapdnn/internal/obs"
	"extrapdnn/internal/pmnf"
)

// Combine builds the best multi-parameter model from per-parameter candidate
// hypotheses (Section IV-D): every selection of one candidate per parameter
// is combined through every set partition of the parameters — parameters in
// the same block multiply within one term, distinct blocks add — the
// coefficients are refitted on all measurement points, and the model with
// the smallest leave-one-out cross-validated SMAPE wins. A purely constant
// model is always among the candidates.
//
// For a single parameter this reduces to selecting the best candidate, with
// coefficients refitted on the full set.
func Combine(set *measurement.Set, perParam [][]Candidate) (Result, error) {
	return CombineCtx(context.Background(), set, perParam)
}

// CombineCtx is Combine traced as a "fit_combine" span (child of the span
// ctx carries) with the number of distinct hypotheses fitted as attribute.
func CombineCtx(ctx context.Context, set *measurement.Set, perParam [][]Candidate) (Result, error) {
	_, span := obs.StartSpan(ctx, spanFitCombine)
	res, hypotheses, err := combine(set, perParam)
	span.SetInt(attrHypotheses, int64(hypotheses))
	span.End()
	return res, err
}

// maxComboParams bounds the parameter count of the combination search: its
// cost grows as topK^m times the Bell number of m, so the modelers use
// m <= 3 in practice, and the dedupe key is a fixed-size array.
const maxComboParams = 8

// termKey identifies one term: per parameter, 0 when the parameter does not
// appear in it, else 1 + the index of the first candidate of that parameter
// with the term's exponents.
type termKey [maxComboParams]uint16

// comboKey identifies a term structure independent of term order: its
// terms sorted, unused slots zero (a real term always has a nonzero entry).
type comboKey [maxComboParams]termKey

func termLess(a, b *termKey) bool {
	for l := range a {
		if a[l] != b[l] {
			return a[l] < b[l]
		}
	}
	return false
}

// combine is Combine without the span; it also returns the number of
// distinct hypotheses fitted.
func combine(set *measurement.Set, perParam [][]Candidate) (Result, int, error) {
	m := set.NumParams()
	if len(perParam) != m {
		return Result{}, 0, fmt.Errorf("regression: %d candidate lists for %d parameters", len(perParam), m)
	}
	if m > maxComboParams {
		return Result{}, 0, fmt.Errorf("regression: combination search supports at most %d parameters, got %d",
			maxComboParams, m)
	}
	for l, c := range perParam {
		if len(c) == 0 {
			return Result{}, 0, fmt.Errorf("regression: no candidates for parameter %d", l)
		}
		if len(c) >= math.MaxUint16 {
			return Result{}, 0, fmt.Errorf("regression: %d candidates for parameter %d", len(c), l)
		}
	}
	points, values := set.Medians()
	n := len(points)

	e := getEngine()
	defer putEngine(e)

	// Canonical candidate codes and basis columns: each distinct
	// non-constant exponent pair of a parameter is evaluated once over all
	// points, at the slot of its first candidate.
	var offset [maxComboParams + 1]int
	for l := 0; l < m; l++ {
		offset[l+1] = offset[l] + len(perParam[l])
	}
	e.codes = grow(e.codes, offset[m])
	e.basis = grow(e.basis, offset[m]*n)
	for l, cands := range perParam {
		for c, cand := range cands {
			code := uint16(0)
			if !cand.Exps.IsConstant() {
				first := slices.IndexFunc(cands[:c+1], func(o Candidate) bool { return o.Exps == cand.Exps })
				code = uint16(first + 1)
				if first == c {
					col := e.basis[(offset[l]+c)*n : (offset[l]+c+1)*n]
					for i, pt := range points {
						col[i] = cand.Exps.Eval(pt[l])
					}
				}
			}
			e.codes[offset[l]+c] = code
		}
	}
	if e.partM != m || e.parts == nil {
		e.parts, e.partM = setPartitions(m), m
	}
	if e.seen == nil {
		e.seen = make(map[comboKey]struct{})
	}
	clear(e.seen)

	bestSMAPE := math.Inf(1)
	var bestTerms [maxComboParams]termKey
	bestCount := 0
	var terms [maxComboParams]termKey
	tryModel := func(count int) {
		key := comboKey{}
		copy(key[:count], terms[:count])
		for i := 1; i < count; i++ {
			for j := i; j > 0 && termLess(&key[j], &key[j-1]); j-- {
				key[j], key[j-1] = key[j-1], key[j]
			}
		}
		if _, dup := e.seen[key]; dup {
			return
		}
		e.seen[key] = struct{}{}
		p := 1 + count
		if n < p+1 {
			return // too few points to cross-validate p coefficients
		}
		if count == 0 {
			if c0, smape := e.scoreConstant(values); smape < bestSMAPE {
				bestSMAPE, bestCount = smape, 0
				e.bestCoef = append(e.bestCoef[:0], c0)
			}
			return
		}
		e.design(n, p)
		for t := 0; t < count; t++ {
			col := e.qr.Col(t + 1)
			first := true
			// Multiply the factors in parameter order, as Term.Eval does.
			for l := 0; l < m; l++ {
				code := terms[t][l]
				if code == 0 {
					continue
				}
				b := e.basis[(offset[l]+int(code)-1)*n : (offset[l]+int(code))*n]
				if first {
					copy(col, b)
					first = false
					continue
				}
				for i := range col {
					col[i] *= b[i]
				}
			}
		}
		coef, smape, ok := e.score(values)
		if ok && smape < bestSMAPE {
			bestSMAPE = smape
			bestTerms, bestCount = terms, count
			e.bestCoef = append(e.bestCoef[:0], coef...)
		}
	}

	// The constant model is the fallback when no parameter influences
	// performance.
	tryModel(0)

	// Every selection of one candidate per parameter, the last parameter
	// varying fastest, through every partition.
	var sel [maxComboParams]int
	for {
		for _, blocks := range e.parts {
			count := 0
			for _, block := range blocks {
				var t termKey
				nonConstant := false
				for _, l := range block {
					t[l] = e.codes[offset[l]+sel[l]]
					nonConstant = nonConstant || t[l] != 0
				}
				if nonConstant {
					terms[count] = t
					count++
				}
			}
			tryModel(count)
		}
		l := m - 1
		for ; l >= 0; l-- {
			if sel[l]++; sel[l] < len(perParam[l]) {
				break
			}
			sel[l] = 0
		}
		if l < 0 {
			break
		}
	}
	hypotheses := len(e.seen)

	if math.IsInf(bestSMAPE, 1) {
		return Result{}, hypotheses, errors.New("regression: no combination could be fitted")
	}
	model := pmnf.Model{Constant: e.bestCoef[0]}
	if bestCount > 0 {
		model.Terms = make([]pmnf.Term, bestCount)
	}
	for t := 0; t < bestCount; t++ {
		exps := make([]pmnf.Exponents, m)
		for l := 0; l < m; l++ {
			if code := bestTerms[t][l]; code != 0 {
				exps[l] = perParam[l][code-1].Exps
			}
		}
		model.Terms[t] = pmnf.Term{Coefficient: e.bestCoef[t+1], Exps: exps}
	}
	// Preserve the parameter count even for models without terms (NumParams
	// falls back to len(ParamNames)).
	names := set.ParamNames
	if len(names) != m {
		names = make([]string, m)
		copy(names, set.ParamNames)
	}
	model.ParamNames = names
	return Result{Model: model, SMAPE: bestSMAPE}, hypotheses, nil
}

// setPartitions enumerates all set partitions of {0..m-1}. The count is the
// Bell number (1, 2, 5, 15, …); the modelers use m <= 3 in practice.
func setPartitions(m int) [][][]int {
	var out [][][]int
	var current [][]int
	var rec func(l int)
	rec = func(l int) {
		if l == m {
			cp := make([][]int, len(current))
			for i, b := range current {
				cb := make([]int, len(b))
				copy(cb, b)
				cp[i] = cb
			}
			out = append(out, cp)
			return
		}
		for i := range current {
			current[i] = append(current[i], l)
			rec(l + 1)
			current[i] = current[i][:len(current[i])-1]
		}
		current = append(current, []int{l})
		rec(l + 1)
		current = current[:len(current)-1]
	}
	rec(0)
	return out
}
