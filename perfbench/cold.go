package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"extrapdnn"
	"extrapdnn/internal/apps"
	"extrapdnn/internal/core"
	"extrapdnn/internal/dnnmodel"
	"extrapdnn/internal/nn"
	"extrapdnn/internal/pmnf"
	"extrapdnn/internal/profile"
)

// Cold workloads: paper-topology campaigns on fresh modelers, so every
// distinct task signature pays one domain adaptation. Pretraining and
// adaptation sample counts are scaled down to fit a run; the layer shapes and
// the batch size of 64 are the paper's.
const (
	coldPretrainSamples = 8
	coldAdaptSamples    = 9
	coldSynthPerLevel   = 5
	coldSynthExtra      = 155
)

func coldOptions(f32 bool) extrapdnn.Options {
	return extrapdnn.Options{
		Topology:                extrapdnn.PaperTopology(),
		PretrainSamplesPerClass: coldPretrainSamples,
		PretrainEpochs:          1,
		AdaptSamplesPerClass:    coldAdaptSamples,
		AdaptEpochs:             1,
		Seed:                    1,
		Workers:                 workers(),
		AdaptCacheShards:        cacheShards,
		Float32:                 f32,
	}
}

// cacheShards is the adaptation cache's shard count in every workload: one
// LRU over all entries, so that a workload's signatures never evict each
// other (see warm.go).
const cacheShards = 1

// coldCampaign builds the campaign of a seed: case-study kernels (Kripke
// m = 3, FASTEST and RELeARN m = 2) and synthetic m = 1 kernels on one layout
// at every noise level. Each application and each noise level is one
// adaptation signature, so the campaign costs exactly seven adaptations. Each
// group's kernels are contiguous, as an application's kernels are in a real
// profile, so every seed runs the same pattern of adaptations and waits
// behind them. The extra kernels share the groups' signatures and are
// modeled once, after timing, on a warm modeler, so that the accuracy
// metrics average over more kernels than a campaign holds.
func coldCampaign(rng *rand.Rand) (camp, extra []kernel, err error) {
	var groups [][]kernel
	for _, g := range []struct {
		app          *apps.App
		timed, extra int
	}{{apps.Kripke(), 2, 58}, {apps.FASTEST(), 4, 56}, {apps.RELeARN(), 2, 58}} {
		ks, err := admitGroup(g.app.Name, g.timed+g.extra, appGen(rng, g.app))
		if err != nil {
			return nil, nil, err
		}
		groups = append(groups, ks[:g.timed])
		extra = append(extra, ks[g.timed:]...)
	}
	layout := designs(1, 1)[0]
	for _, level := range noiseLevels {
		ks, err := admitGroup(fmt.Sprintf("synth-n%03.0f", level*100), coldSynthPerLevel+coldSynthExtra, synthGen(rng, layout, level))
		if err != nil {
			return nil, nil, err
		}
		groups = append(groups, ks[:coldSynthPerLevel])
		extra = append(extra, ks[coldSynthPerLevel:]...)
	}
	for _, g := range groups {
		camp = append(camp, g...)
	}
	return camp, extra, nil
}

// timedSource is a profile source over in-memory entries that records when
// each entry was pulled, so a kernel's latency runs from its pull to its
// result.
type timedSource struct {
	mu     sync.Mutex
	ents   []profile.Entry
	next   int
	pulled []time.Time
}

func newTimedSource(ents []profile.Entry) *timedSource {
	return &timedSource{ents: ents, pulled: make([]time.Time, len(ents))}
}

func (s *timedSource) NextEntry() (profile.Entry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.next == len(s.ents) {
		return profile.Entry{}, io.EOF
	}
	s.pulled[s.next] = time.Now()
	s.next++
	return s.ents[s.next-1], nil
}

// latencyMS returns the milliseconds since entry i was pulled.
func (s *timedSource) latencyMS(i int) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return float64(time.Since(s.pulled[i])) / 1e6
}

// coldResult is one modeled campaign.
type coldResult struct {
	m      *extrapdnn.AdaptiveModeler
	wall   time.Duration
	lat    []float64
	models []pmnf.Model
	smape  []float64
	stats  extrapdnn.CacheStats
}

// runColdCampaign models camp on a fresh modeler built from the pretrained
// network and checks every report. want, when non-nil, is an earlier result
// of the same campaign that this one must reproduce bit for bit. The heap is
// collected first, so that every campaign starts from the same heap and the
// previous campaign's networks do not inflate this one's peak memory.
func runColdCampaign(ctx context.Context, net []byte, opts extrapdnn.Options, camp []kernel, want *coldResult, t *tally, tr *tracer) (*coldResult, error) {
	runtime.GC()
	m, err := extrapdnn.NewAdaptiveModelerFromNetwork(bytes.NewReader(net), opts)
	if err != nil {
		return nil, err
	}
	res := &coldResult{m: m, models: make([]pmnf.Model, len(camp)), smape: make([]float64, len(camp))}
	src := newTimedSource(entries(camp, original))
	sp := tr.begin("campaign", nil)
	start := time.Now()
	err = m.ModelProfileStream(ctx, src, extrapdnn.StreamOptions{Workers: opts.Workers}, func(r extrapdnn.StreamReport) error {
		res.lat = append(res.lat, src.latencyMS(r.Index))
		tr.begin("kernel.result", sp).end()
		name := camp[r.Index].Name
		switch {
		case r.Err != nil:
			t.fail("%s: %v", name, r.Err)
			return nil
		case math.IsNaN(r.Report.Model.SMAPE) || math.IsInf(r.Report.Model.SMAPE, 0):
			t.fail("%s: non-finite SMAPE", name)
			return nil
		}
		res.models[r.Index] = r.Report.Model.Model
		res.smape[r.Index] = r.Report.Model.SMAPE
		if want != nil && (want.smape[r.Index] != res.smape[r.Index] || want.models[r.Index].String() != res.models[r.Index].String()) {
			t.fail("%s: repeated campaign changed the model from %s to %s", name, want.models[r.Index], res.models[r.Index])
			return nil
		}
		t.ok()
		return nil
	})
	res.wall = time.Since(start)
	sp.end()
	if err != nil {
		return nil, err
	}
	res.stats = m.AdaptCacheStats()
	if n := len(signatures(camp)); res.stats.Misses != uint64(n) {
		t.fail("campaign paid %d adaptations for %d distinct signatures", res.stats.Misses, n)
	} else {
		t.ok()
	}
	return res, nil
}

func runCold(ctx context.Context, cfg config, t *tally, f32 bool) (map[string]metric, error) {
	camp, extra, err := coldCampaign(rand.New(rand.NewSource(cfg.seed)))
	if err != nil {
		return nil, err
	}
	opts := coldOptions(f32)
	repeats := setupRepeats
	if cfg.trace {
		repeats = 1
	}
	var net bytes.Buffer
	setupS, err := timedSetups(repeats, func(last bool) error {
		m, err := extrapdnn.NewAdaptiveModeler(opts)
		if err != nil || !last {
			return err
		}
		return m.SaveNetwork(&net)
	})
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		return coldLayers(ctx, cfg, t, opts, net.Bytes(), camp, extra, setupS)
	}

	var (
		first *coldResult
		lat   []float64
		walls []float64
	)
	start := time.Now()
	for time.Since(start) < cfg.seconds {
		res, err := runColdCampaign(ctx, net.Bytes(), opts, camp, first, t, nil)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = res
		}
		lat = append(lat, res.lat...)
		walls = append(walls, float64(res.wall)/1e6)
	}
	extraModels, err := modelWarm(ctx, first.m, extra, t)
	if err != nil {
		return nil, err
	}
	acc, pplus := accuracy(append(camp, extra...), append(first.models, extraModels...))
	return endToEnd(t, setupS, float64(len(camp))/median(walls)*1e3, lat, walls, acc, pplus)
}

// modelWarm models kernels whose signatures m has already adapted and
// returns their models in kernel order. It fails the run if m adapts.
func modelWarm(ctx context.Context, m *extrapdnn.AdaptiveModeler, ks []kernel, t *tally) ([]pmnf.Model, error) {
	before := m.AdaptCacheStats().Misses
	models := make([]pmnf.Model, len(ks))
	err := m.ModelProfileStream(ctx, extrapdnn.ProfileEntries(entries(ks, original)), extrapdnn.StreamOptions{}, func(r extrapdnn.StreamReport) error {
		if r.Err != nil {
			t.fail("%s: %v", ks[r.Index].Name, r.Err)
			return nil
		}
		t.check(outcome{SMAPE: r.Report.Model.SMAPE}.finite(ks[r.Index].Name))
		models[r.Index] = r.Report.Model.Model
		return nil
	})
	if after := m.AdaptCacheStats().Misses; after != before {
		t.fail("accuracy pass: %d adaptations on a warm modeler", after-before)
	}
	return models, err
}

// endToEnd assembles the end-to-end metrics every workload reports. The
// throughput comes from the median campaign, which keeps a campaign slowed
// by other load on the machine from moving it.
func endToEnd(t *tally, setupS, kernelsPerS float64, latMS, campaignMS []float64, acc, pplus float64) (map[string]metric, error) {
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	return map[string]metric{
		"setup_s":         {setupS, "s"},
		"kernels_per_s":   {kernelsPerS, "1/s"},
		"request_p50_ms":  {quantile(latMS, 0.50), "ms"},
		"request_p99_ms":  {quantile(latMS, 0.99), "ms"},
		"campaign_p50_ms": {median(campaignMS), "ms"},
		"acc_d_half":      {acc, "ratio"},
		"pplus_err_pct":   {pplus, "%"},
		"success_rate":    {t.successRate(), "ratio"},
		"peak_rss_mb":     {rss, "MB"},
	}, nil
}

// coldLayers is the traced run of a cold workload: the campaign once without
// and once with spans, then the layer replay of the same campaign.
func coldLayers(ctx context.Context, cfg config, t *tally, opts extrapdnn.Options, net []byte, camp, extra []kernel, pretrainS float64) (map[string]metric, error) {
	base, err := runColdCampaign(ctx, net, opts, camp, nil, t, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := runColdCampaign(ctx, net, opts, camp, base, t, tr)
	if err != nil {
		return nil, err
	}
	loaded, err := nn.Load(bytes.NewReader(net))
	if err != nil {
		return nil, err
	}
	prec := nn.Float64
	if opts.Float32 {
		prec = nn.Float32
	}
	pre := &dnnmodel.Modeler{Net: loaded, Precision: prec}
	coreCfg := core.Config{
		Adapt:            dnnmodel.AdaptConfig{SamplesPerClass: opts.AdaptSamplesPerClass, Epochs: opts.AdaptEpochs, Precision: prec},
		Seed:             opts.Seed,
		AdaptCacheSize:   extrapdnn.DefaultAdaptCacheSize,
		AdaptCacheShards: cacheShards,
	}
	fresh, err := core.New(pre, coreCfg)
	if err != nil {
		return nil, err
	}
	// The stream probe uses the synthetic kernels, extra ones included, of
	// the campaign's first synthetic signature: one parameter count, one
	// adaptation to prime.
	var stream []kernel
	for _, k := range append(append([]kernel(nil), camp...), extra...) {
		if k.Set.NumParams() == 1 && (len(stream) == 0 || k.Sig == stream[0].Sig) {
			stream = append(stream, k)
		}
	}
	env := layerEnv{
		pre: pre, net: net, opts: opts, coreCfg: coreCfg, core: fresh,
		replay: camp, stream: stream, seed: cfg.seed,
	}
	m, err := layerMetrics(ctx, env, t, tr)
	if err != nil {
		return nil, err
	}
	hits, misses := traced.stats.Hits, traced.stats.Misses
	m["adaptcache.hit_ratio"] = metric{float64(hits) / float64(hits+misses), "ratio"}
	m["adaptcache.misses"] = metric{float64(misses), "count"}
	m["nn.pretrain_s"] = metric{pretrainS, "s"}
	m["trace.overhead_share"] = metric{traced.wall.Seconds()/base.wall.Seconds() - 1, "ratio"}
	return m, writeTrace(cfg, tr)
}
