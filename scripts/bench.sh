#!/usr/bin/env sh
# Benchmark snapshot: runs the hot-path benchmarks behind docs/PERFORMANCE.md
# (float32 kernel twins, batched inference, end-to-end training and cross-set
# prediction) and writes one machine-readable JSON file per day:
#
#   ./scripts/bench.sh              # writes BENCH_YYYY-MM-DD.json
#   BENCH_COUNT=3 ./scripts/bench.sh  # repeat each benchmark, keep every row
#
# Each entry records ns/op, bytes/op and allocs/op (plus ns/set where a
# benchmark op models several sets), so snapshots from two commits diff
# cleanly. Numbers from this shared box carry ±10-30% noise:
# compare medians of BENCH_COUNT>=3 runs before claiming a regression.
set -eu

cd "$(dirname "$0")/.."

DATE=${BENCH_DATE:-$(date +%F)}
OUT=BENCH_${DATE}.json
COUNT=${BENCH_COUNT:-1}
TMP=$(mktemp)
trap 'rm -f "$TMP"' EXIT

# run <package-dir> <bench-regex> <benchtime>: appends tab-separated rows
# "pkg name ns_per_op bytes_per_op allocs_per_op ns_per_set" to $TMP.
run() {
    pkg=$1
    pattern=$2
    benchtime=$3
    echo "==> go test -bench '$pattern' -benchtime $benchtime ./$pkg/" >&2
    go test -run '^$' -bench "$pattern" -benchtime "$benchtime" -benchmem -count "$COUNT" "./$pkg/" |
        awk -v pkg="$pkg" '
            /^Benchmark/ {
                name = $1
                sub(/-[0-9]+$/, "", name)
                ns = bytes = allocs = perset = "null"
                for (i = 2; i <= NF; i++) {
                    if ($i == "ns/op")     ns = $(i - 1)
                    if ($i == "B/op")      bytes = $(i - 1)
                    if ($i == "allocs/op") allocs = $(i - 1)
                    if ($i == "ns/set")    perset = $(i - 1)
                }
                print pkg "\t" name "\t" ns "\t" bytes "\t" allocs "\t" perset
            }'
} >>"$TMP"

# Float32 kernel twins vs float64 at training shapes.
run internal/mat 'BenchmarkMulTo$|BenchmarkMulATTo$|BenchmarkMulBTTo$' 100x
# All three products at the paper topology's training shapes (GFLOP/s is in
# the go test output; ns/op is recorded here).
run internal/mat 'BenchmarkGEMMPaper$' 10x
# One paper-topology domain adaptation per op, float64 vs float32 (9 samples
# per class, 1 epoch: the benchmark's cold campaign settings).
run internal/dnnmodel 'BenchmarkDomainAdapt$/paper' 1x
# End-to-end training (f64 vs f32), batched inference, per-row baselines.
run internal/nn 'BenchmarkTrainEpochs$|BenchmarkTrainEpochsF32$|BenchmarkForwardBatched$|BenchmarkForwardPerRow$|BenchmarkTopKPerRow$|BenchmarkTopKBatch$' 20x
# Cross-set batched prediction vs the per-set modeling loop.
run internal/dnnmodel 'BenchmarkModelPerSet$|BenchmarkPredictBatch$' 5x
# The hypothesis-fit engine: the 43-class single-parameter search, the
# combination search alone at m = 2 and m = 3, one m = 3 hypothesis on the
# reusable QR, and the full 3-parameter regression modeler.
run internal/regression 'BenchmarkFitLine$|BenchmarkCombine$' 1s
run . 'BenchmarkLeastSquares$|BenchmarkRegressionModel3P$' 1s
# Adaptation-cache lookup storm: single mutex vs sharded layout.
run internal/adaptcache 'BenchmarkCacheContention$' 0.5s
# Streaming campaign pipeline vs the slice path (incl. on-disk JSONL decode).
run . 'BenchmarkModelProfileStream$' 5x
# Daemon serving: one /v1/profile request cold (fresh adaptation cache, every
# kernel trains) vs warm (steady state, zero training).
run internal/server 'BenchmarkServeProfile$' 5x

awk -v date="$DATE" -v goversion="$(go version)" -v count="$COUNT" '
    BEGIN {
        printf "{\n"
        printf "  \"date\": \"%s\",\n", date
        printf "  \"go\": \"%s\",\n", goversion
        printf "  \"count\": %d,\n", count
        printf "  \"benchmarks\": [\n"
    }
    {
        if (NR > 1) printf ",\n"
        printf "    {\"package\": \"%s\", \"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s, \"ns_per_set\": %s}",
            $1, $2, $3, $4, $5, $6
    }
    END {
        printf "\n  ]\n}\n"
    }
' "$TMP" >"$OUT"

echo "wrote $(grep -c '"name"' "$OUT") benchmark rows to $OUT" >&2
