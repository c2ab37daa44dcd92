// Command perfbench is the repository benchmark. It runs one named workload
// against the modeling stack through its public functions, checks every
// output, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload warm-model --seed 3 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 the
// run also replays the workload's inputs through the layer functions with
// spans around every call, writes the spans as JSONL under -out, and reports
// the per-layer metrics instead. WORKLOADS.md describes the workloads, the
// metrics, and which layer each workload is predicted to move.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"extrapdnn/internal/obs"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is what every workload receives from the command line.
type config struct {
	name    string
	seed    int64
	seconds time.Duration
	trace   bool
	out     string
}

// workload runs one named traffic mix. run returns the tally of checked
// operations and the metrics to print.
type workload struct {
	name string
	run  func(ctx context.Context, cfg config, t *tally) (map[string]metric, error)
}

var workloads = []workload{
	{"cold-paper", func(ctx context.Context, cfg config, t *tally) (map[string]metric, error) {
		return runCold(ctx, cfg, t, false)
	}},
	{"cold-paper-f32", func(ctx context.Context, cfg config, t *tally) (map[string]metric, error) {
		return runCold(ctx, cfg, t, true)
	}},
	{"warm-model", runWarmModel},
	{"warm-stream", runWarmStream},
}

// runDeadline bounds a whole run so that it ends well within the three
// minutes a run is allowed.
const runDeadline = 160 * time.Second

func main() {
	name := flag.String("workload", "", "workload to run: cold-paper, cold-paper-f32, warm-model or warm-stream")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for span traces")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad flags\n", *name)
		os.Exit(2)
	}
	cfg := config{name: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, out: *out}
	if cfg.trace {
		obs.EnableMetrics()
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()

	t := &tally{}
	metrics, err := w.run(ctx, cfg, t)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for name, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is not finite\n", name)
			os.Exit(1)
		}
	}
	res := result{Attempted: t.attempted, Failed: t.failed, Metrics: metrics}
	res.Correct = t.failed == 0 && t.attempted > 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed their checks; first: %s\n", t.failed, t.attempted, t.first)
		os.Exit(1)
	}
}

// tally counts checked operations. Every failed, refused or mis-checked
// operation counts as failed.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	first     string
}

func (t *tally) ok() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	t.failed++
	if t.first == "" {
		t.first = fmt.Sprintf(format, args...)
	}
}

// check records one operation, failed when msg is non-empty.
func (t *tally) check(msg string) {
	if msg == "" {
		t.ok()
		return
	}
	t.fail("%s", msg)
}

// successRate is the share of operations that passed every check.
func (t *tally) successRate() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.attempted == 0 {
		return 0
	}
	return float64(t.attempted-t.failed) / float64(t.attempted)
}

// timedSetups runs setup n times and returns the median wall time in
// seconds. Each call receives whether it is the last one; the workload keeps
// only what the last call built.
func timedSetups(n int, setup func(last bool) error) (float64, error) {
	var secs []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := setup(i == n-1); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return median(secs), nil
}

// setupRepeats is how many times each workload sets up per run.
const setupRepeats = 3

// median returns the median of xs (NaN when empty). xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// peakRSSMB reads the process's peak resident set size from /proc.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// workers is the modeling concurrency of every workload: one per core.
func workers() int { return runtime.NumCPU() }

// clients is the number of closed-loop client goroutines and connections.
const clients = 2
