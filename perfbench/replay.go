package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"extrapdnn"
	"extrapdnn/internal/adaptcache"
	"extrapdnn/internal/cliutil"
	"extrapdnn/internal/core"
	"extrapdnn/internal/dnnmodel"
	"extrapdnn/internal/mat"
	"extrapdnn/internal/measurement"
	"extrapdnn/internal/nn"
	"extrapdnn/internal/noise"
	"extrapdnn/internal/obs"
	"extrapdnn/internal/pmnf"
	"extrapdnn/internal/profile"
	"extrapdnn/internal/regression"
)

// layerEnv is what the layer replay of a traced run needs from a workload.
type layerEnv struct {
	pre     *dnnmodel.Modeler // the pretrained network, as the program loads it
	net     []byte            // the same network, saved
	opts    extrapdnn.Options // options of the in-process modeler for the stream probe
	coreCfg core.Config       // configuration of core
	core    *core.Modeler     // a modeler in the workload's state: fresh (cold) or primed (warm)
	daemon  *daemon           // serves core; nil starts one once the replay has primed core
	warm    bool              // adaptations are primed before the kernels are replayed
	replay  []kernel          // kernels replayed stage by stage
	stream  []kernel          // campaign of the stream probe, one parameter count
	seed    int64
}

// Stage names shared with the program's own spans.
var stages = []string{"noise", "adapt", "classify", "fit_single", "fit_combine"}

// serverProbeKernels bounds the kernels sent both through the daemon and
// in-process to measure the server's overhead.
const serverProbeKernels = 64

// taskOf derives the adaptation task of a set the way core does: the lines'
// parameter values, the repetitions, and the estimated noise range clamped
// to 100% and quantized to the default bucket width.
func taskOf(set *measurement.Set, na noise.Analysis, lines []regression.Line) dnnmodel.TaskInfo {
	q := func(v float64) float64 {
		return math.Min(1, math.Max(0, math.Round(v/core.DefaultNoiseBucketWidth)*core.DefaultNoiseBucketWidth))
	}
	hi := math.Min(na.Max, 1)
	lo := math.Min(na.Min, hi)
	task := dnnmodel.TaskInfo{Reps: set.Repetitions(), NoiseMin: q(lo), NoiseMax: q(hi), PerPointNoise: true}
	for _, l := range lines {
		task.ParamValues = append(task.ParamValues, l.Xs)
	}
	return task
}

// replayer runs kernels through the layer functions one stage at a time,
// with a span around every call, keeping its own cache of adapted networks.
type replayer struct {
	ctx     context.Context
	env     layerEnv
	tr      *tracer
	adapted map[string]*dnnmodel.Modeler
	fp      uint64 // fingerprint of the pretrained network
}

// adapt returns the adapted network of a task, adapting under a span on a
// miss. The random stream is seeded from the task's signature exactly as the
// program seeds it, so the network matches the one the program adapts.
func (r *replayer) adapt(set *measurement.Set, task dnnmodel.TaskInfo, parent *span) (*dnnmodel.Modeler, error) {
	cfg := r.env.coreCfg.Adapt.WithDefaults()
	key := adaptcache.Signature{
		ParamNames: set.ParamNames, ParamValues: task.ParamValues, Reps: task.Reps,
		NoiseMin: task.NoiseMin, NoiseMax: task.NoiseMax, PerPointNoise: task.PerPointNoise,
		SamplesPerClass: cfg.SamplesPerClass, Epochs: cfg.Epochs, BatchSize: cfg.BatchSize,
		LearningRate: cfg.LearningRate, Fingerprint: r.fp,
		Seed: r.env.coreCfg.Seed, Precision: cfg.Precision,
	}.Key()
	if mod, ok := r.adapted[key]; ok {
		return mod, nil
	}
	s := r.tr.begin("adapt", parent)
	mod, _, err := r.env.pre.DomainAdaptCtx(r.ctx, rand.New(rand.NewSource(adaptcache.RetrySeed(key, 0))), task, r.env.coreCfg.Adapt)
	s.end()
	if err != nil {
		return nil, err
	}
	r.adapted[key] = mod
	return mod, nil
}

// analyze runs the noise estimate and the line selection under spans.
func (r *replayer) analyze(set *measurement.Set, parent *span) (noise.Analysis, []regression.Line, error) {
	s := r.tr.begin("noise", parent)
	na := noise.Analyze(set)
	s.end()
	s = r.tr.begin("select_lines", parent)
	lines, err := regression.SelectLines(set)
	s.end()
	return na, lines, err
}

// fit fits every line against its classes and combines the candidates.
func (r *replayer) fit(set *measurement.Set, lines []regression.Line, classes func(l int) []pmnf.Exponents, parent *span) (regression.Result, error) {
	perParam := make([][]regression.Candidate, len(lines))
	for l, line := range lines {
		cls := classes(l)
		s := r.tr.begin("fit_single", parent)
		s.Count = len(cls)
		cands, err := regression.FitLine(line.Xs, line.Vs, cls, regression.DefaultTopK)
		s.end()
		if err != nil {
			return regression.Result{}, err
		}
		perParam[l] = cands
	}
	s := r.tr.begin("fit_combine", parent)
	s.M = set.NumParams()
	res, err := regression.Combine(set, perParam)
	s.end()
	return res, err
}

// kernelResult is the outcome of one replayed kernel.
type kernelResult struct {
	selected, dnn regression.Result
	reg           *regression.Result
	mod           *dnnmodel.Modeler
}

// kernel replays the adaptive pipeline on one set: noise estimate, line
// selection, adaptation (on a miss), classification, the DNN hypotheses'
// fit and combination, the exhaustive regression search below the noise
// threshold, and the selection by SMAPE.
func (r *replayer) kernel(k kernel) (kernelResult, error) {
	var out kernelResult
	root := r.tr.begin("kernel", nil)
	root.M = k.Set.NumParams()
	defer root.end()
	na, lines, err := r.analyze(k.Set, root)
	if err != nil {
		return out, err
	}
	if out.mod, err = r.adapt(k.Set, taskOf(k.Set, na, lines), root); err != nil {
		return out, err
	}
	classes := make([][]pmnf.Exponents, len(lines))
	for l, line := range lines {
		s := r.tr.begin("classify", root)
		classes[l], err = out.mod.ClassifyLine(line.Xs, line.Vs)
		s.end()
		if err != nil {
			return out, err
		}
	}
	if out.dnn, err = r.fit(k.Set, lines, func(l int) []pmnf.Exponents { return classes[l] }, root); err != nil {
		return out, err
	}
	out.selected = out.dnn
	if na.Global <= core.DefaultNoiseThreshold {
		reg, err := r.fit(k.Set, lines, func(int) []pmnf.Exponents { return pmnf.Classes() }, root)
		if err != nil {
			return out, err
		}
		out.reg = &reg
		if reg.SMAPE < out.dnn.SMAPE {
			out.selected = reg
		}
	}
	return out, nil
}

// layerMetrics replays the workload's inputs through every layer's public
// functions under spans and derives the per-layer metrics from the spans.
// Replayed results that differ from the program's are counted in
// replay.mismatches; failures of the program's own calls fail the run.
func layerMetrics(ctx context.Context, env layerEnv, t *tally, tr *tracer) (map[string]metric, error) {
	r := &replayer{ctx: ctx, env: env, tr: tr, adapted: map[string]*dnnmodel.Modeler{}, fp: env.pre.Net.Fingerprint()}
	if env.warm {
		prime := tr.begin("adapt.prime", nil)
		for _, k := range signatures(env.replay) {
			na, lines, err := r.analyze(k.Set, prime)
			if err != nil {
				return nil, err
			}
			if _, err := r.adapt(k.Set, taskOf(k.Set, na, lines), prime); err != nil {
				return nil, err
			}
		}
		prime.end()
	}

	mismatches := 0
	var coreAdapt, coreTotal time.Duration
	for _, k := range env.replay {
		res, err := r.kernel(k)
		if err != nil {
			t.fail("replay %s: %v", k.Name, err)
			continue
		}
		s := tr.begin("dnnmodel.predict", nil)
		s.M = k.Set.NumParams()
		dnn, err := res.mod.ModelCtx(ctx, k.Set)
		s.end()
		if err != nil || dnn.SMAPE != res.dnn.SMAPE {
			mismatches++
		}
		s = tr.begin("regression.model", nil)
		reg, err := regression.Model(k.Set, regression.Options{})
		s.end()
		if err != nil || (res.reg != nil && reg.SMAPE != res.reg.SMAPE) {
			mismatches++
		}
		s = tr.begin("core.model", nil)
		rep, err := env.core.Model(k.Set)
		s.end()
		if err != nil {
			t.fail("%s: %v", k.Name, err)
			continue
		}
		if rep.Model.SMAPE != res.selected.SMAPE {
			mismatches++
		}
		coreAdapt += rep.Durations.Adapt
		coreTotal += rep.Durations.Total
		t.ok()
	}

	d := env.daemon
	if d == nil {
		var err error
		if d, err = startDaemon(env.core); err != nil {
			return nil, err
		}
		defer d.close()
	}
	overheadMS, err := serverProbe(ctx, d, env, t, tr)
	if err != nil {
		return nil, err
	}
	streamShare, err := streamProbe(ctx, d, env, t, tr)
	if err != nil {
		return nil, err
	}
	if err := codecProbe(env.stream, tr); err != nil {
		return nil, err
	}
	if err := regressionProbe(r, env); err != nil {
		return nil, err
	}
	allocs := regressionAllocs(env.replay)
	evictions, err := defaultShardEvictions(env)
	if err != nil {
		return nil, err
	}
	trainS, buildMS, trainFlop, trainBytes, err := adaptDecomposed(ctx, r)
	if err != nil {
		return nil, err
	}
	matFlop, matBytes := matProbe(tr, env.coreCfg.Adapt.Precision)

	ms := func(name string, keep func(*span) bool) float64 { return median(tr.durations(name, keep)) * 1e3 }
	us := func(name string, keep func(*span) bool) float64 { return median(tr.durations(name, keep)) * 1e6 }
	withM := func(m int) func(*span) bool { return func(s *span) bool { return s.M == m } }
	gflops := func(name string) float64 {
		var flop, secs float64
		for _, s := range tr.spans {
			if s.Name == name {
				flop += s.Flop
				secs += s.Dur.Seconds()
			}
		}
		return flop / secs / 1e9
	}
	snap := obs.Default().Snapshot()
	var rejected uint64
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "extrapdnn_server_rejected_total") {
			rejected += v
		}
	}
	shares := tr.stageShares("kernel", stages)

	m := map[string]metric{
		"dnnmodel.adapt_s":                   {median(tr.durations("adapt", nil)), "s"},
		"dnnmodel.build_dataset_ms":          {buildMS, "ms"},
		"nn.train_s":                         {trainS, "s"},
		"nn.train_gflop":                     {trainFlop / 1e9, "GFLOP"},
		"nn.train_gbyte":                     {trainBytes / 1e9, "GB"},
		"nn.train_gflops":                    {trainFlop / trainS / 1e9, "GFLOP/s"},
		"mat.mul_gflops":                     {gflops("mat.mul"), "GFLOP/s"},
		"mat.mulat_gflops":                   {gflops("mat.mulat"), "GFLOP/s"},
		"mat.mulbt_gflops":                   {gflops("mat.mulbt"), "GFLOP/s"},
		"mat.step_gflop":                     {matFlop / 1e9, "GFLOP"},
		"mat.bytes_per_flop":                 {matBytes / matFlop, "B/FLOP"},
		"regression.fit_combine_ms.m2":       {ms("fit_combine", withM(2)), "ms"},
		"regression.fit_combine_ms.m3":       {ms("fit_combine", withM(3)), "ms"},
		"regression.model_ms":                {ms("regression.model", nil), "ms"},
		"regression.allocs_per_set":          {allocs, "count"},
		"regression.fit_single_us":           {us("fit_single", func(s *span) bool { return s.Count == pmnf.NumClasses }), "us"},
		"dnnmodel.classify_us":               {us("classify", nil), "us"},
		"dnnmodel.predict_ms":                {ms("dnnmodel.predict", nil), "ms"},
		"core.model_ms":                      {coreTotal.Seconds() * 1e3 / float64(len(env.replay)), "ms"},
		"core.adapt_share":                   {coreAdapt.Seconds() / coreTotal.Seconds(), "ratio"},
		"noise.analyze_us":                   {us("noise", nil), "us"},
		"server.overhead_ms":                 {overheadMS, "ms"},
		"server.stream_overhead_share":       {streamShare, "ratio"},
		"profile.encode_us":                  {us("profile.encode", nil), "us"},
		"profile.decode_us":                  {us("profile.decode", nil), "us"},
		"server.rejected":                    {float64(rejected), "count"},
		"client.retries":                     {float64(snap.Counter("extrapdnn_client_retries_total")), "count"},
		"replay.mismatches":                  {float64(mismatches), "count"},
		"adaptcache.default_shard_evictions": {float64(evictions), "count"},
		"trace.spans":                        {float64(len(tr.spans)), "count"},
	}
	for _, st := range stages {
		m["stage."+st+".self_share"] = metric{shares[st], "ratio"}
	}
	return m, nil
}

// serverProbe sends kernels through the daemon and through its modeler
// in-process, alternately, and returns the median per-kernel difference: the
// cost of HTTP, JSON and admission on a cache hit.
func serverProbe(ctx context.Context, d *daemon, env layerEnv, t *tally, tr *tracer) (float64, error) {
	sample := env.replay
	if len(sample) > serverProbeKernels {
		sample = sample[:serverProbeKernels]
	}
	root := tr.begin("probe.server", nil)
	defer root.end()
	var diffs []float64
	for _, k := range sample {
		s := tr.begin("server.request", root)
		resp, err := d.cl.Model(ctx, k.Set)
		s.end()
		c := tr.begin("core.model.warm", root)
		rep, cerr := env.core.Model(k.Set)
		c.end()
		switch {
		case err != nil || cerr != nil:
			t.fail("%s: daemon %v, in-process %v", k.Name, err, cerr)
		case resp.SMAPE != rep.Model.SMAPE || resp.AdaptAttempts != 0:
			t.fail("%s: daemon and in-process results differ or the daemon adapted", k.Name)
		default:
			t.ok()
			diffs = append(diffs, float64(s.Dur-c.Dur)/1e6)
		}
	}
	return median(diffs), nil
}

// streamProbe models one campaign in-process through ModelProfileStream and
// through the daemon's /v1/profile, alternately, and returns the share of
// the streamed wall time that the in-process run does not need.
func streamProbe(ctx context.Context, d *daemon, env layerEnv, t *tally, tr *tracer) (float64, error) {
	am, err := extrapdnn.NewAdaptiveModelerFromNetwork(bytes.NewReader(env.net), env.opts)
	if err != nil {
		return 0, err
	}
	ents := entries(env.stream, original)
	names := env.stream[0].Set.ParamNames
	local := func() (map[string]float64, error) {
		got := map[string]float64{}
		err := am.ModelProfileStream(ctx, profile.Entries(ents), extrapdnn.StreamOptions{Workers: workers()}, func(r extrapdnn.StreamReport) error {
			if r.Err != nil {
				return r.Err
			}
			got[r.Kernel] = r.Report.Model.SMAPE
			return nil
		})
		return got, err
	}
	remote := func() (map[string]float64, error) {
		got := map[string]float64{}
		_, err := d.cl.StreamProfile(ctx, "perfbench", names, profile.Entries(ents), func(l cliutil.ResultLine) error {
			if l.Error != "" {
				return errors.New(l.Error)
			}
			got[l.Kernel] = l.SMAPE
			return nil
		})
		return got, err
	}
	// The first pass primes the in-process modeler's cache; both paths must
	// then agree on every kernel.
	want, err := local()
	if err != nil {
		return 0, err
	}
	root := tr.begin("probe.stream", nil)
	defer root.end()
	for i := 0; i < 3; i++ {
		for _, p := range []struct {
			name string
			run  func() (map[string]float64, error)
		}{{"campaign.inproc", local}, {"campaign.http", remote}} {
			s := tr.begin(p.name, root)
			got, err := p.run()
			s.end()
			if err != nil {
				return 0, fmt.Errorf("%s: %w", p.name, err)
			}
			msg := ""
			for name, v := range want {
				if got[name] != v {
					msg = fmt.Sprintf("%s: %s SMAPE %v differs from in-process %v", p.name, name, got[name], v)
				}
			}
			t.check(msg)
		}
	}
	return 1 - median(tr.durations("campaign.inproc", nil))/median(tr.durations("campaign.http", nil)), nil
}

// codecProbe encodes the campaign as a JSONL profile and decodes it again,
// one span per entry.
func codecProbe(ks []kernel, tr *tracer) error {
	var buf bytes.Buffer
	w, err := profile.NewWriter(&buf, "perfbench", ks[0].Set.ParamNames)
	if err != nil {
		return err
	}
	root := tr.begin("probe.codec", nil)
	defer root.end()
	for _, e := range entries(ks, original) {
		s := tr.begin("profile.encode", root)
		err := w.WriteEntry(e)
		s.end()
		if err != nil {
			return err
		}
	}
	sc, err := profile.NewScanner(&buf)
	if err != nil {
		return err
	}
	for {
		s := tr.begin("profile.decode", root)
		_, err := sc.NextEntry()
		s.end()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// regressionProbe makes sure both the m = 2 and the m = 3 combination are
// timed: for a parameter count the replayed kernels lack, it fits and
// combines a few synthetic sets at every noise level.
func regressionProbe(r *replayer, env layerEnv) error {
	have := map[int]bool{}
	for _, k := range env.replay {
		have[k.Set.NumParams()] = true
	}
	rng := rand.New(rand.NewSource(env.seed))
	for _, m := range []int{2, 3} {
		if have[m] {
			continue
		}
		layout := designs(m, 1)[0]
		root := r.tr.begin("probe.regression", nil)
		for i := 0; i < 8; i++ {
			set := synthGen(rng, layout, noiseLevels[i%len(noiseLevels)])().Set
			_, lines, err := r.analyze(set, root)
			if err != nil {
				return err
			}
			if _, err := r.fit(set, lines, func(int) []pmnf.Exponents { return pmnf.Classes() }, root); err != nil {
				return err
			}
		}
		root.end()
	}
	return nil
}

// defaultShardEvictions adapts every signature of the replayed kernels once
// on a modeler whose adaptation cache has the default shard count, and
// returns how many cached adaptations that cache evicted. The workloads run
// an unsharded cache because with the default eight shards a capacity of 32
// holds only four entries per shard.
func defaultShardEvictions(env layerEnv) (uint64, error) {
	cfg := env.coreCfg
	cfg.AdaptCacheShards = 0
	m, err := core.New(env.pre, cfg)
	if err != nil {
		return 0, err
	}
	for _, k := range signatures(env.replay) {
		if _, err := m.Model(k.Set); err != nil {
			return 0, err
		}
	}
	return m.CacheStats().Evictions, nil
}

// regressionAllocs returns the heap allocations of one regression.Model call,
// averaged over the kernels.
func regressionAllocs(ks []kernel) float64 {
	if len(ks) > serverProbeKernels {
		ks = ks[:serverProbeKernels]
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, k := range ks {
		regression.Model(k.Set, regression.Options{})
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(len(ks))
}

// adaptDecomposed repeats the first replayed kernel's adaptation as its two
// layer calls, dataset build and training, and returns their median times
// with the computed GEMM work of one training run.
func adaptDecomposed(ctx context.Context, r *replayer) (trainS, buildMS, flop, moved float64, err error) {
	k := r.env.replay[0]
	na := noise.Analyze(k.Set)
	lines, err := regression.SelectLines(k.Set)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	task := taskOf(k.Set, na, lines)
	cfg := r.env.coreCfg.Adapt.WithDefaults()
	spec := dnnmodel.TrainSpec{
		SamplesPerClass: cfg.SamplesPerClass, Reps: task.Reps, NoiseMin: task.NoiseMin, NoiseMax: task.NoiseMax,
		ParamValues: task.ParamValues, PerPointNoise: task.PerPointNoise,
	}
	var trains, builds []float64
	for i := 0; i < 2; i++ {
		rng := rand.New(rand.NewSource(r.env.seed + int64(i)))
		root := r.tr.begin("adapt.decomposed", nil)
		s := r.tr.begin("dnnmodel.build_dataset", root)
		x, labels := dnnmodel.BuildDataset(rng, spec)
		builds = append(builds, s.end().Dur.Seconds()*1e3)
		net := r.env.pre.Net.Clone()
		s = r.tr.begin("nn.train", root)
		stats, terr := net.TrainCtx(ctx, x, labels, nn.TrainOptions{
			Epochs: cfg.Epochs, BatchSize: cfg.BatchSize, LearningRate: cfg.LearningRate, Rng: rng, Precision: cfg.Precision,
		})
		trains = append(trains, s.end().Dur.Seconds())
		root.end()
		if terr == nil {
			terr = stats.Err()
		}
		if terr != nil {
			return 0, 0, 0, 0, terr
		}
		flop, moved = trainWork(net, x.Rows(), cfg.Epochs, cfg.BatchSize, cfg.Precision)
	}
	return median(trains), median(builds), flop, moved, nil
}

// gemm is one matrix product of a training step: out (m×n) from a (m×k) and
// b (k×n).
type gemm struct{ m, k, n int }

func (g gemm) flop() float64 { return 2 * float64(g.m) * float64(g.k) * float64(g.n) }

// bytes is the computed traffic of the product: both operands read once and
// the result written once.
func (g gemm) bytes(elem int) float64 {
	return float64(elem) * float64(g.m*g.k+g.k*g.n+g.m*g.n)
}

// stepGemms lists the products of one training step at batch size b over a
// network with the given layer sizes: the forward product per layer, the
// weight gradient per layer, and the input gradient per layer but the first.
func stepGemms(sizes []int, b int) (fwd, dW, dX []gemm) {
	for l := 0; l+1 < len(sizes); l++ {
		in, out := sizes[l], sizes[l+1]
		fwd = append(fwd, gemm{b, in, out})
		dW = append(dW, gemm{in, b, out})
		if l > 0 {
			dX = append(dX, gemm{b, out, in})
		}
	}
	return fwd, dW, dX
}

func elemSize(p nn.Precision) int {
	if p == nn.Float32 {
		return 4
	}
	return 8
}

// trainWork is the computed GEMM work of training net on rows samples:
// operation count and bytes moved, summed over every step.
func trainWork(net *nn.Network, rows, epochs, batch int, p nn.Precision) (flop, moved float64) {
	sizes := []int{net.InputSize()}
	for _, l := range net.Layers {
		sizes = append(sizes, l.Out())
	}
	for e := 0; e < epochs; e++ {
		for done := 0; done < rows; done += batch {
			fwd, dW, dX := stepGemms(sizes, min(batch, rows-done))
			for _, g := range append(append(fwd, dW...), dX...) {
				flop += g.flop()
				moved += g.bytes(elemSize(p))
			}
		}
	}
	return flop, moved
}

// matProbe times the mat kernels of one training step at the paper's layer
// shapes and batch size in the workload's precision, three times over, and
// returns the computed work of one step.
func matProbe(tr *tracer, p nn.Precision) (flop, moved float64) {
	sizes := append(append([]int{11}, dnnmodel.PaperTopology...), pmnf.NumClasses)
	fwd, dW, dX := stepGemms(sizes, 64)
	rng := rand.New(rand.NewSource(1))
	fill := func(rows, cols int) *mat.Matrix {
		x := mat.New(rows, cols)
		for i := range x.Data() {
			x.Data()[i] = rng.Float64() - 0.5
		}
		return x
	}
	type op struct {
		name string
		g    gemm
		run  func()
	}
	var ops []op
	add := func(name string, g gemm, out, a, b *mat.Matrix, f64 func(out, a, b *mat.Matrix), f32 func(out, a, b *mat.Matrix32)) {
		run := func() { f64(out, a, b) }
		if p == nn.Float32 {
			o, x, y := out.To32(), a.To32(), b.To32()
			run = func() { f32(o, x, y) }
		}
		ops = append(ops, op{name, g, run})
	}
	for _, g := range fwd {
		add("mat.mul", g, mat.New(g.m, g.n), fill(g.m, g.k), fill(g.k, g.n), mat.MulTo, mat.MulTo32)
	}
	for _, g := range dW { // dW (in×out) = aᵀ·delta with a (b×in), delta (b×out)
		add("mat.mulat", g, mat.New(g.m, g.n), fill(g.k, g.m), fill(g.k, g.n), mat.MulATTo, mat.MulATTo32)
	}
	for _, g := range dX { // dX (b×in) = delta·Wᵀ with delta (b×out), W (in×out)
		add("mat.mulbt", g, mat.New(g.m, g.n), fill(g.m, g.k), fill(g.n, g.k), mat.MulBTTo, mat.MulBTTo32)
	}
	root := tr.begin("probe.mat", nil)
	defer root.end()
	for rep := 0; rep < 3; rep++ {
		for _, o := range ops {
			s := tr.begin(o.name, root)
			s.Flop = o.g.flop()
			o.run()
			s.end()
		}
	}
	for _, o := range ops {
		flop += o.g.flop()
		moved += o.g.bytes(elemSize(p))
	}
	return flop, moved
}

// writeTrace stores the spans of a traced run under the output directory.
func writeTrace(cfg config, tr *tracer) error {
	return tr.write(filepath.Join(cfg.out, fmt.Sprintf("trace-%s-%d.jsonl", cfg.name, cfg.seed)))
}
