#!/bin/sh
# check.sh — the repository's pre-merge gate: formatting, vet, the
# source rules, the FMA-free listing, build, the zero-alloc gates, and
# the full test suite under the race detector.
# Run from anywhere; it always operates on the repository root.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -s -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt -s needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...
# tensor's GEMM has an amd64 assembly micro-kernel and a pure-Go one
# for every other GOARCH; vetting an arm64 build type-checks the
# non-assembly files an amd64 build leaves out.
GOARCH=arm64 go vet ./internal/tensor

echo "== source rules =="
# The two rules no run-time gate sees (DESIGN.md §10): no wall clock or
# global randomness in the simulator's packages, and no integer literal
# passed as an mpi or coll tag. A parse of the tree, so it is cheap and
# runs before the race-instrumented test phase.
go test -run '^TestSourceRules$' -count=1 .

echo "== FMA-free products =="
# Real-mode losses must be the same bits on every GOARCH. arm64 fuses a
# product into the add or subtract it feeds unless an explicit
# float32(x*y)/float64(x*y) conversion rounds it first; amd64 never
# fuses. The compiler's listing must therefore show no fused
# multiply-add anywhere in the simulator. The assembly micro-kernels are
# not in that listing, and their differential tests skip on a CPU
# without the instructions, so the source itself must name no fused
# x86 op (VFMADD…, VFMSUB…, VFNMADD…, VFNMSUB…).
listing=$(mktemp)
GOARCH=arm64 go build -gcflags=-S ./internal/... > "$listing" 2>&1
fused=$(grep -Ew '(FMADD|FMSUB|FNMADD|FNMSUB)[SD]?' "$listing" || true)
rm -f "$listing"
if [ -n "$fused" ]; then
    echo "fused multiply-adds in the arm64 build (wrap the product in an explicit conversion):" >&2
    echo "$fused" >&2
    exit 1
fi
fused=$(grep -En 'VF(N?)M(ADD|SUB)' internal/tensor/*.s || true)
if [ -n "$fused" ]; then
    echo "fused multiply-adds in the GEMM assembly (multiply, then add):" >&2
    echo "$fused" >&2
    exit 1
fi

echo "== go build =="
go build ./...

echo "== zero-alloc gate =="
# Steady state allocates nothing (DESIGN.md §10, §12): the pooled event
# kernel for plain events, for a proc that waits as steps on the event
# loop, and for same-instant waves that march through buckets no wave
# has used before (capacity belongs to the queue, not to a bucket); and
# the training iteration of every design on every reducer, armed or
# not, timing and real mode. Run un-instrumented, since race
# instrumentation itself allocates and would mask a regression (the
# iteration budget skips itself under -race).
go test -run '^TestSimKernel(ZeroAllocSteadyState|MarchingWavesZeroAlloc)$' -count=1 ./internal/sim
go test -run '^TestSteadyStateIterationAllocBudget$' -count=1 ./internal/core

echo "== elastic churn drill =="
# The elastic membership acceptance bar (DESIGN.md §9, §14): the
# 32-rank crash→recover→join run must produce an identical fault report
# and total time at every GOMAXPROCS, the catch-up replay must be
# bit-exact against a golden run, and so must a watchdog round that
# admits a joiner or resumes ranks whose loops had ended.
# Race-instrumented so the detector watches the join desk and catch-up
# collectives under real parallelism.
for procs in 1 4 16; do
    GOMAXPROCS=$procs go test -race -timeout 20m \
        -run '^TestGoogLeNet32CrashRecoverJoinDeterministic$|^TestRealJoinAfterCrashBitExact$|^TestJoinUnderFire$|^TestWatchdogRoundAdmittingJoinGrows$|^TestWatchdogTripInLastIterationFinishes$' \
        -count=1 ./internal/core
done

echo "== collective fragments =="
# Every reducer runs as plan fragments on the event loop (DESIGN.md §6,
# §17): the two chain drills (a rank killed mid-pipeline, a
# retransmission mid-pipeline), the event-timing pin of every family and
# the one-switch-per-call bound must hold at every GOMAXPROCS, and so
# must the latency drivers' pins (ReduceBench over every algorithm, the
# skew and threelevel tables, the Ibcast overlap) and their run with no
# goroutine switch, race-instrumented so the detector watches the
# fragment walks, the blocking reduces' goroutines and the goroutine-free
# ranks.
for procs in 1 16; do
    GOMAXPROCS=$procs go test -race \
        -run '^TestChainReduceRankKilledMidPipeline$|^TestChainReduceRetransmitMidPipeline$|^TestReduceFamiliesPinned$|^TestEveryReducerRunsAsSteps$|^TestLatencyDriversMakeNoGoroutine$' \
        -count=1 ./internal/coll
    GOMAXPROCS=$procs go test -race \
        -run '^TestReduceBenchPinned$|^TestIbcastOverlapBenchPinned$' -count=1 .
done

echo "== plans never park =="
# Nothing in a plan parks, and a training run has no goroutine
# (DESIGN.md §6, §17): every design's blocking call is a post and an
# await, the data wait and the catch-up's barrier are polls, a checksum
# retransmission is a poll, and every rank's loop, helper lane and data
# reader is a proc with no goroutine. The scheduler goldens (every
# design's event timing), the design pins (end time and resume count,
# fault-free, armed and tripping), the per-design switch budget of zero,
# a training run that starts no goroutine, the 200-spec chaos gate with
# every run's pinned outcome, and the park-in-step panics (a helper's
# step parking its rank's main proc, and a proc with no goroutine,
# included) must hold at every GOMAXPROCS, race-instrumented so the
# detector watches the steps.
for procs in 1 16; do
    GOMAXPROCS=$procs go test -race \
        -run '^TestSchedulerGoldenTimingBaselines$|^TestDesignRunsPinned$|^TestSteadyStateIterationSwitchBudget$|^TestTrainingRunMakesNoGoroutine$' \
        -count=1 ./internal/core
    GOMAXPROCS=$procs go test -race -run '^TestChaosGate$' -count=1 ./internal/chaos
    GOMAXPROCS=$procs go test -race \
        -run '^TestParkInStepPanics$|^TestParkInActionPanics$|^TestParkInHelperActionPanics$|^TestSpawnStepsBlockingCallPanics$|^TestWalkEndsAtARevocation$' \
        -count=1 ./internal/sim ./internal/sched
done

echo "== batch fan-out =="
# Conv and Pool split the batch, and Conv's weight gradient its columns
# (with its bias gradient), over tensor's one worker pool (DESIGN.md §7):
# every layer output, loss and gradient must be the same bits at any
# GOMAXPROCS, the first layer's parameter-only backward must leave the
# gradients a full backward does, and the branch-free pooling, ReLU and
# one-copy im2col kernels must match their scalar references (the
# *MatchesReference tests of tensor and layers). Race-instrumented at up
# to 16 workers on any core count, so the detector watches the
# disjoint-write partitions with more workers than cores.
for procs in 1 4 16; do
    GOMAXPROCS=$procs go test -race -count=3 \
        -run '^TestForwardBackwardBitIdenticalAcrossGOMAXPROCS$|^TestBackwardParamsMatchesBackwardLayer$' ./internal/models
    GOMAXPROCS=$procs go test -race -count=3 ./internal/tensor ./internal/layers
done

echo "== chaos smoke =="
# The seeded chaos plane (DESIGN.md §16): 25 randomized fault
# schedules — crash/hang/straggle/join plus the lossy-wire family —
# must terminate finished-or-unrecovered with schedule-consistent
# counters at every GOMAXPROCS, race-instrumented so the detector
# watches the wire perturbation hooks and the quorum/fencing paths.
# The fault-free horizon is calibrated once per shape: specs of one
# shape must run one calibration and end as they do with an empty map,
# specs verified from many goroutines must end as they do one after
# another (the detector watching the shared calibration map), and every
# spec's one-line summary must parse back to the spec.
# The full 200-spec gate (TestChaosGate) runs in the suite below.
for procs in 1 4 16; do
    GOMAXPROCS=$procs go test -race \
        -run '^TestChaosSmoke$|^TestCalibrationOncePerShape$|^TestCalibrationConcurrent$|^TestSpecSummaryRoundTrip$' \
        -count=1 ./internal/chaos
done

echo "== go test -race =="
# Race instrumentation slows the simulator ~10x; the core package needs
# more than the default 10-minute per-package budget.
go test -race -timeout 45m ./...

echo "== fuzz smoke =="
# A few seconds per target keeps the parsers, the membership table and
# the GEMM paths honest without turning the gate into a fuzzing
# campaign; run longer sessions by hand with -fuzztime as needed.
go test -run '^$' -fuzz FuzzSnapshotDecode -fuzztime 5s ./internal/core
go test -run '^$' -fuzz FuzzParse -fuzztime 5s ./internal/proto
go test -run '^$' -fuzz FuzzParseSchedule -fuzztime 5s ./internal/fault
go test -run '^$' -fuzz FuzzMembership -fuzztime 5s ./internal/fault
go test -run '^$' -fuzz FuzzReduce -fuzztime 5s ./internal/coll
go test -run '^$' -fuzz FuzzGemm -fuzztime 5s ./internal/tensor

echo "== tracked benchmark =="
# The one go-test benchmark kept beside bench/run.sh: its 256-4096-rank
# shapes regenerate EXPERIMENTS.md `scale` and no bench/ladder.go rung
# times them. One pass, so it cannot vanish or stop running unnoticed.
go test -run '^$' -bench BenchmarkScaleSweep -benchtime 1x .

echo "== OK =="
