#!/bin/sh
# bench.sh — run the repository benchmarks with -benchmem and write a
# machine-readable BENCH_<date>.json summary (ns/op, B/op, allocs/op,
# and any custom metrics such as virtual-ms/op and gflops), so future
# changes have a perf trajectory to compare against.
#
# Environment overrides:
#   BENCH_PKGS    packages to benchmark (default: ./...)
#   BENCH_FILTER  -bench regexp           (default: .)
#   BENCH_TIME    -benchtime value        (default: 1x)
#   BENCH_OUT     output file             (default: BENCH_$(date +%F).json)
set -eu

cd "$(dirname "$0")/.."

pkgs=${BENCH_PKGS:-./...}
filter=${BENCH_FILTER:-.}
benchtime=${BENCH_TIME:-1x}
out=${BENCH_OUT:-BENCH_$(date +%F).json}
raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

echo "== go test -bench $filter -benchtime $benchtime $pkgs =="
go test -run '^$' -bench "$filter" -benchtime "$benchtime" -benchmem $pkgs | tee "$raw"

# A full run (default filter and packages) must include the tracked
# benchmarks; a silently missing one (renamed, filtered out by a build
# error, skipped) would otherwise leave a hole in the perf trajectory.
if [ "$filter" = "." ] && [ "$pkgs" = "./..." ]; then
    missing=0
    for want in BenchmarkFigure11FullScale160 BenchmarkSimKernel BenchmarkScaleSweep BenchmarkExtElastic; do
        if ! grep -q "^$want" "$raw"; then
            echo "bench.sh: required benchmark $want missing from output" >&2
            missing=1
        fi
    done
    [ "$missing" -eq 0 ] || exit 1
fi

# Resolve the commit strictly after the run, and flag a dirty tree:
# a measurement taken before its change is committed must not
# masquerade as the parent commit's numbers (BENCH_2026-08-07.json
# originally pinned the seed commit this way).
commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
if [ "$commit" != unknown ] && ! git diff --quiet HEAD 2>/dev/null; then
    commit="${commit}-dirty"
fi

awk -v date="$(date +%F)" \
    -v gover="$(go version | awk '{print $3}')" \
    -v commit="$commit" '
BEGIN {
    printf "{\n  \"date\": \"%s\",\n  \"go\": \"%s\",\n  \"commit\": \"%s\",\n  \"benchmarks\": [", date, gover, commit
    n = 0
}
/^Benchmark/ {
    name = $1
    iters = $2
    printf "%s\n    {\"name\": \"%s\", \"iterations\": %s", (n++ ? "," : ""), name, iters
    # Fields come in "<value> <unit>" pairs after the iteration count.
    for (i = 3; i < NF; i += 2) {
        unit = $(i + 1)
        gsub(/\//, "_per_", unit)
        gsub(/[^A-Za-z0-9_]/, "_", unit)
        printf ", \"%s\": %s", unit, $i
    }
    printf "}"
}
END {
    printf "\n  ]\n}\n"
}' "$raw" > "$out"

echo "== wrote $out =="
