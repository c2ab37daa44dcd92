package regression

// The golden model-selection corpus pins *what* the regression modeler
// selects, not how fast: ~200 seeded measurement sets (synthetic m = 1..3 at
// 2/10/50/100% noise plus the Kripke, FASTEST and RELeARN case studies), each
// with the model Model selected for it, the model's cross-validated SMAPE and
// its lead exponents. A rewrite of the fitting numerics must reproduce every
// selection exactly and every SMAPE and coefficient within a relative 1e-9.
//
// Regenerate the corpus (only when a selection change is intended and
// explained) with:
//
//	go test ./internal/regression/ -run TestGoldenModelSelection -update

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"extrapdnn/internal/apps"
	"extrapdnn/internal/measurement"
	"extrapdnn/internal/pmnf"
	"extrapdnn/internal/synth"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_selection.json from the current modeler")

const goldenPath = "testdata/golden_selection.json"

// goldenTol is the relative tolerance on SMAPE and coefficients.
const goldenTol = 1e-9

type goldenSet struct {
	name string
	set  *measurement.Set
}

// goldenEntry is one corpus record. Terms is the coefficient-free term
// structure ("x1^(1/2) | x2*x3" style), so the selection comparison does not
// depend on how coefficients round in Model.String.
type goldenEntry struct {
	Name         string       `json:"name"`
	Model        string       `json:"model"`
	Terms        string       `json:"terms"`
	Lead         [][2]float64 `json:"lead"`
	SMAPE        float64      `json:"smape"`
	Constant     float64      `json:"constant"`
	Coefficients []float64    `json:"coefficients"`
}

// goldenSets generates the corpus inputs deterministically.
func goldenSets() []goldenSet {
	var out []goldenSet
	noises := []float64{0.02, 0.10, 0.50, 1.00}
	perNoise := map[int]int{1: 16, 2: 12, 3: 10}
	for m := 1; m <= 3; m++ {
		for _, noise := range noises {
			for k := 0; k < perNoise[m]; k++ {
				seed := int64(1000*m + int(noise*100)*10 + k)
				inst := synth.GenInstance(rand.New(rand.NewSource(seed)), synth.TaskSpec{
					NumParams:      m,
					PointsPerParam: 5,
					Reps:           5,
					NoiseLevel:     noise,
					EvalPoints:     1,
				})
				out = append(out, goldenSet{fmt.Sprintf("synth/m%d/noise%g/%d", m, noise*100, k), inst.Set})
			}
		}
	}
	for _, app := range apps.All() {
		for _, kern := range app.Kernels {
			for seed := int64(1); seed <= 2; seed++ {
				set := app.Generate(rand.New(rand.NewSource(seed)), kern)
				out = append(out, goldenSet{fmt.Sprintf("%s/%s/%d", app.Name, kern.Name, seed), set})
			}
		}
	}
	return out
}

// termStructure renders a model's terms without coefficients.
func termStructure(m pmnf.Model) string {
	parts := make([]string, len(m.Terms))
	for t, term := range m.Terms {
		var factors []string
		for l, e := range term.Exps {
			if !e.IsConstant() {
				factors = append(factors, e.FactorString(fmt.Sprintf("x%d", l+1)))
			}
		}
		parts[t] = strings.Join(factors, "*")
	}
	return strings.Join(parts, " | ")
}

func goldenRecord(name string, res Result) goldenEntry {
	e := goldenEntry{
		Name:     name,
		Model:    res.Model.String(),
		Terms:    termStructure(res.Model),
		SMAPE:    res.SMAPE,
		Constant: res.Model.Constant,
	}
	for _, lead := range res.Model.LeadExponents() {
		e.Lead = append(e.Lead, [2]float64{lead.I, lead.J})
	}
	for _, t := range res.Model.Terms {
		e.Coefficients = append(e.Coefficients, t.Coefficient)
	}
	return e
}

func relClose(got, want, tol float64) bool {
	if got == want {
		return true
	}
	return math.Abs(got-want) <= tol*math.Max(math.Abs(got), math.Abs(want))
}

func TestGoldenModelSelection(t *testing.T) {
	sets := goldenSets()
	got := make([]goldenEntry, len(sets))
	for i, gs := range sets {
		res, err := Model(gs.set, Options{})
		if err != nil {
			t.Fatalf("%s: %v", gs.name, err)
		}
		got[i] = goldenRecord(gs.name, res)
	}
	if *updateGolden {
		// One entry per line, so a corpus diff reads entry by entry.
		var sb strings.Builder
		sb.WriteString("[\n")
		for i, e := range got {
			line, err := json.Marshal(e)
			if err != nil {
				t.Fatal(err)
			}
			sb.Write(line)
			if i < len(got)-1 {
				sb.WriteByte(',')
			}
			sb.WriteByte('\n')
		}
		sb.WriteString("]\n")
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d entries to %s", len(got), goldenPath)
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenEntry
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("corpus has %d entries, generator produced %d", len(want), len(got))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Name != w.Name {
			t.Fatalf("entry %d: generated %q, corpus has %q", i, g.Name, w.Name)
		}
		if g.Terms != w.Terms || fmt.Sprint(g.Lead) != fmt.Sprint(w.Lead) {
			t.Errorf("%s: selected %q (lead %v), corpus %q (lead %v)", w.Name, g.Model, g.Lead, w.Model, w.Lead)
			continue
		}
		if !relClose(g.SMAPE, w.SMAPE, goldenTol) {
			t.Errorf("%s: SMAPE %.17g, corpus %.17g (rel %.2g)", w.Name, g.SMAPE, w.SMAPE,
				math.Abs(g.SMAPE-w.SMAPE)/math.Abs(w.SMAPE))
		}
		if !relClose(g.Constant, w.Constant, goldenTol) {
			t.Errorf("%s: constant %.17g, corpus %.17g", w.Name, g.Constant, w.Constant)
		}
		for k := range w.Coefficients {
			if !relClose(g.Coefficients[k], w.Coefficients[k], goldenTol) {
				t.Errorf("%s: coefficient %d %.17g, corpus %.17g", w.Name, k, g.Coefficients[k], w.Coefficients[k])
			}
		}
	}
}
