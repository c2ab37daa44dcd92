package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"extrapdnn"
	"extrapdnn/internal/client"
	"extrapdnn/internal/cliutil"
	"extrapdnn/internal/core"
	"extrapdnn/internal/dnnmodel"
	"extrapdnn/internal/measurement"
	"extrapdnn/internal/pmnf"
	"extrapdnn/internal/server"
)

// Warm workloads: an in-process modelerd (server.New on a loopback listener)
// with modelerd's default topology, noise threshold and adaptation cache
// size, driven through internal/client. Pretraining and adaptation sample
// counts are scaled down so that set-up fits a run; they do not change the
// cost of a cache hit.
//
// The cache runs as one LRU (cacheShards). With the default eight shards the
// 32 entries split into eight LRUs of four, so a fifth signature hashed to a
// shard evicts one of its four, and the warm path silently adapts again.
// Sixteen signatures hashed uniformly put five in one shard about one time in
// three. The traced run reports how many entries the default sharding evicts
// (adaptcache.default_shard_evictions).
const (
	warmPretrainSamples = 60
	warmAdaptSamples    = 15
	// warm-model: kernels per (layout, noise level) group of the corpus.
	warmModelM2PerGroup = 80
	warmModelM3PerGroup = 20
	// warm-stream: kernels per (layout, noise level) group and campaign.
	warmStreamPerGroup = 13
)

func warmPretrainConfig() dnnmodel.PretrainConfig {
	return dnnmodel.PretrainConfig{SamplesPerClass: warmPretrainSamples, Epochs: 1, Seed: 1}
}

func warmCoreConfig() core.Config {
	return core.Config{
		NoiseThreshold:   core.DefaultNoiseThreshold,
		Adapt:            dnnmodel.AdaptConfig{SamplesPerClass: warmAdaptSamples, Epochs: 1},
		Seed:             1,
		AdaptCacheSize:   extrapdnn.DefaultAdaptCacheSize,
		AdaptCacheShards: cacheShards,
	}
}

// warmOptions configures an in-process modeler equivalent to the daemon's.
func warmOptions() extrapdnn.Options {
	return extrapdnn.Options{AdaptSamplesPerClass: warmAdaptSamples, AdaptEpochs: 1, Seed: 1, Workers: workers(), AdaptCacheShards: cacheShards}
}

// daemon is an in-process modelerd on a loopback listener.
type daemon struct {
	core *core.Modeler
	hs   *http.Server
	done chan error
	cl   *client.Client
}

func startDaemon(cm *core.Modeler) (*daemon, error) {
	srv, err := server.New(server.Config{Modeler: cm, Workers: workers()})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{core: cm, hs: &http.Server{Handler: srv.Handler()}, done: make(chan error, 1), cl: client.New("http://" + ln.Addr().String())}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// close shuts the daemon down and waits until it has stopped serving.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	<-d.done
	return err
}

// warmSetup pretrains, starts a daemon and primes its adaptation cache.
// prime must leave exactly sigs adaptations in the cache: a miss more means
// the priming did not match what the workload sends.
func warmSetup(t *tally, sigs int, prime func(*daemon) error) (*daemon, *dnnmodel.Modeler, float64, error) {
	start := time.Now()
	pre, _ := dnnmodel.Pretrain(warmPretrainConfig())
	pretrainS := time.Since(start).Seconds()
	cm, err := core.New(pre, warmCoreConfig())
	if err != nil {
		return nil, nil, 0, err
	}
	d, err := startDaemon(cm)
	if err != nil {
		return nil, nil, 0, err
	}
	if err := prime(d); err != nil {
		d.close()
		return nil, nil, 0, err
	}
	if got := d.core.CacheStats().Misses; got != uint64(sigs) {
		t.fail("priming paid %d adaptations for %d signatures", got, sigs)
	} else {
		t.ok()
	}
	return d, pre, pretrainS, nil
}

// setupWarm runs warmSetup setupRepeats times (once when tracing) and keeps
// the last daemon.
func setupWarm(cfg config, t *tally, sigs int, prime func(*daemon) error) (d *daemon, pre *dnnmodel.Modeler, setupS, pretrainS float64, err error) {
	repeats := setupRepeats
	if cfg.trace {
		repeats = 1
	}
	setupS, err = timedSetups(repeats, func(last bool) error {
		dd, p, ps, err := warmSetup(t, sigs, prime)
		if err != nil {
			return err
		}
		if !last {
			return dd.close()
		}
		d, pre, pretrainS = dd, p, ps
		return nil
	})
	return d, pre, setupS, pretrainS, err
}

// missGuard fails the run when the daemon adapted during a phase that must
// be all cache hits.
func missGuard(t *tally, d *daemon, phase string) func() {
	before := d.core.CacheStats().Misses
	return func() {
		if after := d.core.CacheStats().Misses; after != before {
			t.fail("%s: %d adaptations on the warm path", phase, after-before)
		} else {
			t.ok()
		}
	}
}

// saveNet saves a pretrained network for in-process twins of the daemon.
func saveNet(pre *dnnmodel.Modeler) ([]byte, error) {
	var buf bytes.Buffer
	err := pre.Net.Save(&buf)
	return buf.Bytes(), err
}

// warmModelCorpus builds the warm-model corpus: m = 2 and m = 3 sets on two
// layouts each at every noise level, one signature per group (at most 16).
func warmModelCorpus(rng *rand.Rand) ([]kernel, error) {
	m2, err := synthGroups(rng, "wm", designs(2, 2), warmModelM2PerGroup)
	if err != nil {
		return nil, err
	}
	m3, err := synthGroups(rng, "wm", designs(3, 2), warmModelM3PerGroup)
	if err != nil {
		return nil, err
	}
	return append(m2, m3...), nil
}

// modelAll sends every kernel through /v1/model from the closed-loop clients
// and returns the responses in kernel order.
func modelAll(ctx context.Context, d *daemon, ks []kernel, t *tally) []*server.ModelResponse {
	out := make([]*server.ModelResponse, len(ks))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(ks); i += clients {
				resp, err := d.cl.Model(ctx, ks[i].Set)
				if err != nil {
					t.fail("%s: %v", ks[i].Name, err)
					continue
				}
				t.check(outcomeOf(resp).finite(ks[i].Name))
				out[i] = resp
			}
		}(c)
	}
	wg.Wait()
	return out
}

func outcomeOf(r *server.ModelResponse) outcome {
	return outcome{SMAPE: r.SMAPE, Noise: r.Noise.Global, SelectedDNN: r.SelectedDNN}
}

// modelLoad is the result of a closed-loop phase of warm-model.
type modelLoad struct {
	requests  int
	wall      time.Duration
	lat       []float64
	campaigns []float64
}

// warmModelPlan is the request mix of one warm-model campaign, a client's
// run of 100 consecutive requests: m = 2 and m = 3 requests per noise level. Below the 20% threshold both modelers run,
// so the m = 2 requests at 2% and 10% form the slower m = 2 latency mode;
// 60% of the requests fall in it and 20% in the faster one, which puts the
// median request in the middle of the slower m = 2 mode. The 20% m = 3
// requests put the 99th percentile inside the m = 3 mode.
var warmModelPlan = map[float64][2]int{0.02: {30, 5}, 0.10: {30, 5}, 0.50: {10, 5}, 1.00: {10, 5}}

// warmModelCampaign is the number of requests in a warm-model campaign.
func warmModelCampaign() int {
	n := 0
	for _, c := range warmModelPlan {
		n += c[0] + c[1]
	}
	return n
}

// campaignPlan draws the corpus indices of one campaign per warmModelPlan,
// in random order, so that every campaign carries the same mix of work.
func campaignPlan(rng *rand.Rand, corpus []kernel) []int {
	type bucket struct {
		m     int
		level float64
	}
	byBucket := map[bucket][]int{}
	for i, k := range corpus {
		b := bucket{k.Set.NumParams(), k.Level}
		byBucket[b] = append(byBucket[b], i)
	}
	var plan []int
	for _, level := range noiseLevels {
		for j, n := range warmModelPlan[level] {
			idx := byBucket[bucket{2 + j, level}]
			for ; n > 0; n-- {
				plan = append(plan, idx[rng.Intn(len(idx))])
			}
		}
	}
	rng.Shuffle(len(plan), func(i, j int) { plan[i], plan[j] = plan[j], plan[i] })
	return plan
}

// runModelLoad runs the closed loop: each client sends a rescaled corpus set,
// waits for the reply, checks it against the primed original, and repeats
// campaign after campaign until dur has passed.
func runModelLoad(ctx context.Context, d *daemon, corpus []kernel, want []outcome, seed int64, dur time.Duration, t *tally, tr *tracer) modelLoad {
	var (
		mu   sync.Mutex
		load modelLoad
		wg   sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*clients + int64(c)))
			var lat, campaigns []float64
			var plan []int
			var campaignStart time.Time
			for time.Since(start) < dur {
				if len(plan) == 0 {
					plan = campaignPlan(rng, corpus)
					campaignStart = time.Now()
				}
				i := plan[0]
				plan = plan[1:]
				set := rescaled(corpus[i].Set, randomExp(rng))
				s := tr.begin("request", nil)
				t0 := time.Now()
				resp, err := d.cl.Model(ctx, set)
				lat = append(lat, float64(time.Since(t0))/1e6)
				s.end()
				switch {
				case err != nil:
					t.fail("%s: %v", corpus[i].Name, err)
				case resp.AdaptAttempts != 0:
					t.fail("%s: request adapted on the warm path", corpus[i].Name)
				default:
					t.check(want[i].compare(corpus[i].Name, outcomeOf(resp)))
				}
				if len(plan) == 0 {
					campaigns = append(campaigns, float64(time.Since(campaignStart))/1e6)
				}
			}
			mu.Lock()
			load.requests += len(lat)
			load.lat = append(load.lat, lat...)
			load.campaigns = append(load.campaigns, campaigns...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	load.wall = time.Since(start)
	return load
}

func runWarmModel(ctx context.Context, cfg config, t *tally) (map[string]metric, error) {
	corpus, err := warmModelCorpus(rand.New(rand.NewSource(cfg.seed)))
	if err != nil {
		return nil, err
	}
	primers := signatures(corpus)
	if len(primers) > extrapdnn.DefaultAdaptCacheSize {
		return nil, fmt.Errorf("corpus has %d signatures, more than the cache holds", len(primers))
	}
	d, pre, setupS, pretrainS, err := setupWarm(cfg, t, len(primers), func(d *daemon) error {
		modelAll(ctx, d, primers, t)
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer d.close()

	// Reference pass: the originals, whose outcomes every rescaled request
	// must reproduce.
	guard := missGuard(t, d, "reference pass")
	refs := modelAll(ctx, d, corpus, t)
	guard()
	want := make([]outcome, len(corpus))
	models := make([]pmnf.Model, len(corpus))
	for i, r := range refs {
		if r == nil {
			return nil, fmt.Errorf("reference pass failed: %s", t.first)
		}
		want[i], models[i] = outcomeOf(r), r.Model
	}

	if cfg.trace {
		return warmLayers(ctx, cfg, t, d, pre, pretrainS, len(primers), warmModelSample(corpus), m2Stream(corpus),
			func(dur time.Duration, tr *tracer) (int, time.Duration, error) {
				l := runModelLoad(ctx, d, corpus, want, cfg.seed, dur, t, tr)
				return l.requests, l.wall, nil
			})
	}
	guard = missGuard(t, d, "timed phase")
	load := runModelLoad(ctx, d, corpus, want, cfg.seed, cfg.seconds, t, nil)
	guard()
	acc, pplus := accuracy(corpus, models)
	return endToEnd(t, setupS, float64(clients*warmModelCampaign())/median(load.campaigns)*1e3, load.lat, load.campaigns, acc, pplus)
}

// warmModelSample takes the first four kernels of every group for the layer
// replay.
func warmModelSample(corpus []kernel) []kernel {
	var out []kernel
	seen := map[string]int{}
	for _, k := range corpus {
		if seen[k.Sig] < 4 {
			seen[k.Sig]++
			out = append(out, k)
		}
	}
	return out
}

// m2Stream is the warm-model campaign for the stream probe: every second
// m = 2 set of the first layout, 160 sets over its four signatures.
func m2Stream(corpus []kernel) []kernel {
	var out []kernel
	for i := 0; i < len(noiseLevels)*warmModelM2PerGroup; i += 2 {
		out = append(out, corpus[i])
	}
	return out
}

// warmStreamPool builds the warm-stream campaigns: m = 1 kernels on four
// layouts at every noise level (16 signatures), split alternately
// into two campaigns in random order.
func warmStreamPool(rng *rand.Rand) ([2][]kernel, error) {
	var pool [2][]kernel
	ks, err := synthGroups(rng, "ws", designs(1, 4), 2*warmStreamPerGroup)
	if err != nil {
		return pool, err
	}
	for i, k := range ks {
		pool[i%2] = append(pool[i%2], k)
	}
	for _, camp := range pool {
		rng.Shuffle(len(camp), func(i, j int) { camp[i], camp[j] = camp[j], camp[i] })
	}
	return pool, nil
}

// streamCampaign streams one campaign through /v1/profile and checks every
// result line against want (by kernel name), or records it when want is nil.
// It returns the wall time and the per-kernel latencies.
func streamCampaign(ctx context.Context, d *daemon, camp []kernel, exp func() int, want map[string]cliutil.ResultLine, t *tally) (time.Duration, []float64, map[string]cliutil.ResultLine, error) {
	index := make(map[string]int, len(camp))
	for i, k := range camp {
		index[k.Name] = i
	}
	src := newTimedSource(entries(camp, func(k kernel) *measurement.Set { return rescaled(k.Set, exp()) }))
	got := make(map[string]cliutil.ResultLine, len(camp))
	lat := make([]float64, 0, len(camp))
	start := time.Now()
	n, err := d.cl.StreamProfile(ctx, "perfbench", camp[0].Set.ParamNames, src, func(l cliutil.ResultLine) error {
		i, ok := index[l.Kernel]
		if !ok {
			t.fail("result line for unknown kernel %q: %s", l.Kernel, l.Error)
			return nil
		}
		lat = append(lat, src.latencyMS(i))
		got[l.Kernel] = l
		line := outcome{SMAPE: l.SMAPE, Noise: l.Noise, SelectedDNN: l.Selected == "dnn"}
		switch {
		case l.Error != "":
			t.fail("%s: %s", l.Kernel, l.Error)
		case want == nil:
			t.check(line.finite(l.Kernel))
		default:
			w := want[l.Kernel]
			t.check(outcome{SMAPE: w.SMAPE, Noise: w.Noise, SelectedDNN: w.Selected == "dnn"}.compare(l.Kernel, line))
		}
		return nil
	})
	wall := time.Since(start)
	if err != nil {
		return 0, nil, nil, err
	}
	if n != len(camp) || len(got) != len(camp) {
		t.fail("campaign of %d kernels returned %d lines for %d kernels", len(camp), n, len(got))
	}
	return wall, lat, got, nil
}

// streamLoad is the result of a timed phase of warm-stream.
type streamLoad struct {
	kernels   int
	wall      time.Duration
	lat       []float64
	campaigns []float64
}

// runStreamLoad streams rescaled campaigns back to back until dur has
// passed.
func runStreamLoad(ctx context.Context, d *daemon, pool [2][]kernel, want map[string]cliutil.ResultLine, seed int64, dur time.Duration, t *tally, tr *tracer) (streamLoad, error) {
	rng := rand.New(rand.NewSource(seed))
	exp := func() int { return randomExp(rng) }
	var load streamLoad
	start := time.Now()
	for i := 0; time.Since(start) < dur || i < len(pool); i++ {
		camp := pool[i%len(pool)]
		s := tr.begin("campaign", nil)
		wall, lat, _, err := streamCampaign(ctx, d, camp, exp, want, t)
		s.end()
		if err != nil {
			return load, err
		}
		load.kernels += len(camp)
		load.lat = append(load.lat, lat...)
		load.campaigns = append(load.campaigns, float64(wall)/1e6)
	}
	load.wall = time.Since(start)
	return load, nil
}

func runWarmStream(ctx context.Context, cfg config, t *tally) (map[string]metric, error) {
	pool, err := warmStreamPool(rand.New(rand.NewSource(cfg.seed)))
	if err != nil {
		return nil, err
	}
	all := append(append([]kernel(nil), pool[0]...), pool[1]...)
	primers := signatures(all)
	if len(primers) > extrapdnn.DefaultAdaptCacheSize {
		return nil, fmt.Errorf("campaigns have %d signatures, more than the cache holds", len(primers))
	}
	unscaled := func() int { return 0 }
	d, pre, setupS, pretrainS, err := setupWarm(cfg, t, len(primers), func(d *daemon) error {
		_, _, _, err := streamCampaign(ctx, d, primers, unscaled, nil, t)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer d.close()

	guard := missGuard(t, d, "reference pass")
	want := map[string]cliutil.ResultLine{}
	for _, camp := range pool {
		_, _, got, err := streamCampaign(ctx, d, camp, unscaled, nil, t)
		if err != nil {
			return nil, err
		}
		for name, l := range got {
			want[name] = l
		}
	}
	guard()
	models := make([]pmnf.Model, len(all))
	for i, k := range all {
		m, err := pmnf.Parse(want[k.Name].Model)
		if err != nil {
			return nil, fmt.Errorf("%s: reading back model %q: %w", k.Name, want[k.Name].Model, err)
		}
		models[i] = m
	}

	if cfg.trace {
		return warmLayers(ctx, cfg, t, d, pre, pretrainS, len(primers), pool[0], pool[0],
			func(dur time.Duration, tr *tracer) (int, time.Duration, error) {
				l, err := runStreamLoad(ctx, d, pool, want, cfg.seed, dur, t, tr)
				return l.kernels, l.wall, err
			})
	}
	guard = missGuard(t, d, "timed phase")
	load, err := runStreamLoad(ctx, d, pool, want, cfg.seed, cfg.seconds, t, nil)
	if err != nil {
		return nil, err
	}
	guard()
	acc, pplus := accuracy(all, models)
	return endToEnd(t, setupS, float64(len(pool[0])+len(pool[1]))/2/median(load.campaigns)*1e3, load.lat, load.campaigns, acc, pplus)
}

// warmLayers is the traced run of a warm workload: the timed phase once
// without and once with spans, then the layer replay against the primed
// daemon.
func warmLayers(ctx context.Context, cfg config, t *tally, d *daemon, pre *dnnmodel.Modeler, pretrainS float64, sigs int,
	replay, stream []kernel, phase func(time.Duration, *tracer) (int, time.Duration, error)) (map[string]metric, error) {
	half := cfg.seconds / 2
	guard := missGuard(t, d, "timed phase")
	before := d.core.CacheStats()
	baseN, baseWall, err := phase(half, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	tracedN, tracedWall, err := phase(half, tr)
	if err != nil {
		return nil, err
	}
	guard()
	after := d.core.CacheStats()
	net, err := saveNet(pre)
	if err != nil {
		return nil, err
	}
	env := layerEnv{
		pre: pre, net: net, opts: warmOptions(), coreCfg: warmCoreConfig(), core: d.core, daemon: d,
		warm: true, replay: replay, stream: stream, seed: cfg.seed,
	}
	m, err := layerMetrics(ctx, env, t, tr)
	if err != nil {
		return nil, err
	}
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	m["adaptcache.hit_ratio"] = metric{float64(hits) / float64(hits+misses), "ratio"}
	m["adaptcache.misses"] = metric{float64(sigs), "count"}
	m["nn.pretrain_s"] = metric{pretrainS, "s"}
	base := float64(baseN) / baseWall.Seconds()
	traced := float64(tracedN) / tracedWall.Seconds()
	m["trace.overhead_share"] = metric{base/traced - 1, "ratio"}
	return m, writeTrace(cfg, tr)
}
