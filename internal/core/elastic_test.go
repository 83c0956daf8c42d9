package core

import (
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"scaffe/internal/fault"
	"scaffe/internal/models"
	"scaffe/internal/mpi"
	"scaffe/internal/sim"
	"scaffe/internal/topology"
)

func TestTimingEvictAndRejoin(t *testing.T) {
	spec, _ := models.ByName("cifar10-quick")
	cfg := timingConfig(spec, 8, 64, 10)
	base := midRun(t, cfg, 1.0)
	cfg.Faults = fault.Schedule{
		{At: sim.Time(float64(base) * 0.4), Kind: fault.Evict, Rank: 5},
		{At: sim.Time(float64(base) * 0.7), Kind: fault.Join, Rank: 5},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Fault
	if rep.Evictions != 1 || len(rep.Recoveries) < 1 {
		t.Fatalf("report = %v", rep)
	}
	if rec := rep.Recoveries[0]; rec.Kind != fault.Evict || rec.Rank != 5 || rec.DetectionLatency() != 0 {
		t.Errorf("eviction recovery = %+v", rec)
	}
	if len(rep.Joins) != 1 {
		t.Fatalf("joins = %+v", rep.Joins)
	}
	j := rep.Joins[0]
	if j.Rank != 5 || j.WorldSize != 8 || j.AdmissionLatency() < 0 {
		t.Errorf("join record = %+v", j)
	}
	if rep.Survivors != 8 {
		t.Errorf("final world size = %d, want 8 (rank rejoined)", rep.Survivors)
	}
}

// TestRealJoinAfterCrashBitExact is the tentpole's acceptance check at
// tiny scale: crash a rank, rejoin it later, and require the grown
// world's losses and final parameters to be bit-identical to a golden
// run started at the original world size from the rejoin iteration's
// snapshot.
func TestRealJoinAfterCrashBitExact(t *testing.T) {
	dir := t.TempDir()
	const iters, every = 24, 4
	cfg := tinyRealConfig(4, 32, iters)
	cfg.SnapshotEvery = every
	cfg.SnapshotPrefix = filepath.Join(dir, "calib")
	mid := midRun(t, cfg, 0.45)

	cfg.SnapshotPrefix = filepath.Join(dir, "elastic")
	cfg.Faults = fault.Schedule{
		{At: mid, Kind: fault.Crash, Rank: 3},
		{At: sim.Time(float64(mid) * 1.6), Kind: fault.Join, Rank: 3},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Fault
	if rep.Crashes != 1 || len(rep.Joins) != 1 {
		t.Fatalf("report = %v", rep)
	}
	j := rep.Joins[0]
	if j.Rank != 3 || j.WorldSize != 4 || rep.Survivors != 4 {
		t.Fatalf("join = %+v, survivors = %d (run must end at the original world size)", j, rep.Survivors)
	}
	if len(res.Losses) != iters {
		t.Fatalf("got %d losses, want %d", len(res.Losses), iters)
	}

	// Golden: an uninterrupted 4-rank run resumed from the snapshot the
	// grow round rolled back to, starting at the rejoin iteration.
	if j.RestartIter <= 0 || j.RestartIter%every != 0 {
		t.Fatalf("restart iteration %d is not a snapshot boundary", j.RestartIter)
	}
	snapPath := snapshotPath(cfg.SnapshotPrefix, j.RestartIter-1)
	golden := tinyRealConfig(4, 32, iters)
	golden.ResumeFrom = snapPath
	golden.StartIteration = j.RestartIter
	gres, err := Run(golden)
	if err != nil {
		t.Fatal(err)
	}
	tail := res.Losses[j.RestartIter:]
	if len(gres.Losses) != len(tail) {
		t.Fatalf("golden recorded %d losses, want %d", len(gres.Losses), len(tail))
	}
	for i := range tail {
		if tail[i] != gres.Losses[i] {
			t.Fatalf("loss %d after rejoin: %v != golden %v (catch-up replay is not bit-exact)",
				j.RestartIter+i, tail[i], gres.Losses[i])
		}
	}
	if len(res.FinalParams) != len(gres.FinalParams) {
		t.Fatalf("param count mismatch: %d vs %d", len(res.FinalParams), len(gres.FinalParams))
	}
	for i := range res.FinalParams {
		if res.FinalParams[i] != gres.FinalParams[i] {
			t.Fatalf("param %d: %v != golden %v", i, res.FinalParams[i], gres.FinalParams[i])
		}
	}
}

// TestWatchdogRoundAdmittingJoinGrows is TestRealJoinAfterCrashBitExact's
// schedule plus a root parameter flip right after the join: the
// watchdog's round commits the pending admission, so it must take the
// full grow (re-shard, snapshot restore, catch-up), not the
// micro-rollback that would keep the joiner's pre-crash batch share.
// From the restart iteration on, the run must equal the 4-rank run
// resumed from the restart snapshot.
func TestWatchdogRoundAdmittingJoinGrows(t *testing.T) {
	dir := t.TempDir()
	const iters, every = 24, 4
	cfg := tinyRealConfig(4, 32, iters)
	cfg.SnapshotEvery = every
	cfg.SnapshotPrefix = filepath.Join(dir, "calib")
	total := midRun(t, cfg, 1.0)
	mid := sim.Time(float64(total) * 0.45)
	join := sim.Time(float64(mid) * 1.6)

	cfg.SnapshotPrefix = filepath.Join(dir, "elastic")
	cfg.Integrity = IntegrityRecover
	cfg.Faults = fault.Schedule{
		{At: mid, Kind: fault.Crash, Rank: 3},
		{At: join, Kind: fault.Join, Rank: 3},
		{At: join + sim.Time(float64(total)*0.002), Kind: fault.BitFlip, Rank: 0, Word: 64, Bit: 30},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Fault
	if rep.Crashes != 1 || len(rep.Joins) != 1 || res.Integrity.WatchdogTrips != 1 {
		t.Fatalf("report = %v, integrity = %v", rep, res.Integrity)
	}
	j := rep.Joins[0]
	if j.Rank != 3 || j.WorldSize != 4 || rep.Survivors != 4 || j.RestartIter <= 0 || j.RestartIter%every != 0 {
		t.Fatalf("join = %+v, survivors = %d", j, rep.Survivors)
	}

	golden := tinyRealConfig(4, 32, iters)
	golden.ResumeFrom = snapshotPath(cfg.SnapshotPrefix, j.RestartIter-1)
	golden.StartIteration = j.RestartIter
	gres, err := Run(golden)
	if err != nil {
		t.Fatal(err)
	}
	if tail := res.Losses[j.RestartIter:]; !reflect.DeepEqual(tail, gres.Losses) {
		t.Errorf("losses after the grow %v, golden %v", tail, gres.Losses)
	}
	if !reflect.DeepEqual(res.FinalParams, gres.FinalParams) {
		t.Error("final parameters differ from the golden 4-rank run")
	}
}

// TestJoinUnderFire lands a second crash in the same admit window as a
// join: the admission rides whichever recovery round commits, and the
// run still converges to the right membership.
func TestJoinUnderFire(t *testing.T) {
	spec, _ := models.ByName("cifar10-quick")
	cfg := timingConfig(spec, 4, 16, 10)
	base := midRun(t, cfg, 1.0)
	at := func(f float64) sim.Time { return sim.Time(float64(base) * f) }
	cfg.Faults = fault.Schedule{
		{At: at(0.3), Kind: fault.Crash, Rank: 2},
		{At: at(0.6), Kind: fault.Join, Rank: 2},
		{At: at(0.6) + sim.Time(sim.Millisecond), Kind: fault.Crash, Rank: 1},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Fault
	if rep.Crashes != 2 || len(rep.Joins) != 1 || rep.Joins[0].Rank != 2 {
		t.Fatalf("report = %v, joins = %+v", rep, rep.Joins)
	}
	// Started with 4, lost rank 1 for good, rank 2 came back: 3 left.
	if rep.Survivors != 3 {
		t.Errorf("survivors = %d, want 3", rep.Survivors)
	}
}

// TestEvictStragglerAndReadmit drives the autonomous membership policy
// end to end: a straggling rank is evicted after EvictWindow slow
// iterations, then readmitted through the join path when it recovers.
func TestEvictStragglerAndReadmit(t *testing.T) {
	spec, _ := models.ByName("cifar10-quick")
	cfg := timingConfig(spec, 8, 64, 14)
	base := midRun(t, cfg, 1.0)
	cfg.EvictFactor = 2
	cfg.EvictWindow = 2
	cfg.Faults = fault.Schedule{
		{At: sim.Time(float64(base) * 0.25), Kind: fault.StragglerOn, Rank: 6, Factor: 8},
		{At: sim.Time(float64(base) * 0.9), Kind: fault.StragglerOff, Rank: 6},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Fault
	if rep.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1 (report %v)", rep.Evictions, rep)
	}
	var evicted *fault.Recovery
	for i := range rep.Recoveries {
		if rep.Recoveries[i].Kind == fault.Evict {
			evicted = &rep.Recoveries[i]
		}
	}
	if evicted == nil || evicted.Rank != 6 {
		t.Fatalf("no evict recovery for rank 6: %+v", rep.Recoveries)
	}
	if len(rep.Joins) != 1 || rep.Joins[0].Rank != 6 {
		t.Fatalf("joins = %+v, want rank 6 readmitted on recovery", rep.Joins)
	}
	if rep.Survivors != 8 {
		t.Errorf("survivors = %d, want 8", rep.Survivors)
	}
}

// TestGrowArmedUntrippedByteIdentical pins the zero-perturbation bar:
// arming the whole grow plane — straggler policy and a join event that
// never trips (its target is alive) — must leave every observable
// output byte-identical to the established armed-but-idle baseline.
func TestGrowArmedUntrippedByteIdentical(t *testing.T) {
	base := tinyRealConfig(4, 32, 12)
	ref, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	far := ref.TotalTime * 1000

	idle := tinyRealConfig(4, 32, 12)
	idle.Faults = fault.Schedule{{At: far, Kind: fault.StragglerOff, Rank: 0}}
	a, err := Run(idle)
	if err != nil {
		t.Fatal(err)
	}

	grow := tinyRealConfig(4, 32, 12)
	grow.EvictFactor = 4
	grow.EvictWindow = 3
	grow.Faults = fault.Schedule{{At: far, Kind: fault.Join, Rank: 0}}
	b, err := Run(grow)
	if err != nil {
		t.Fatal(err)
	}

	if a.TotalTime != b.TotalTime {
		t.Errorf("grow plane changed total time: %v vs %v", b.TotalTime, a.TotalTime)
	}
	if !reflect.DeepEqual(a.Losses, b.Losses) {
		t.Error("grow plane changed the loss curve")
	}
	if !reflect.DeepEqual(a.FinalParams, b.FinalParams) {
		t.Error("grow plane changed the final parameters")
	}
	if b.Fault == nil || len(b.Fault.Recoveries) != 0 || len(b.Fault.Joins) != 0 || b.Fault.Evictions != 0 {
		t.Errorf("untripped grow plane reported activity: %v", b.Fault)
	}
}

// TestMembershipTickAllocFree pins the hot-path policy's allocation
// budget: one straggler-policy tick on a healthy armed world must not
// allocate.
func TestMembershipTickAllocFree(t *testing.T) {
	k := sim.New()
	cluster := topology.New(k, "alloc", 1, 4, topology.DefaultParams())
	world := mpi.NewWorld(cluster, 4)
	pl := fault.NewPlane(k, 4, 0)
	st := &runState{
		cfg:         &Config{Design: SCB, EvictFactor: 2, EvictWindow: 3},
		world:       world,
		comm:        world.WorldComm(),
		ft:          pl,
		iterEWMA:    []float64{1.0, 1.1, 0.9, 1.05},
		slowStreak:  make([]int, 4),
		ewmaScratch: make([]float64, 0, 4),
	}
	r := world.Ranks[0]
	if allocs := testing.AllocsPerRun(200, func() { st.membershipTick(r) }); allocs != 0 {
		t.Errorf("membershipTick allocates %.1f times per call, want 0", allocs)
	}
}

// TestGoogLeNet32CrashRecoverJoinDeterministic is the scale drill:
// crash -> recover -> join on a 32-rank GoogLeNet run must end at the
// original world size with a virtual-time outcome (total time, full
// fault report, join retry/backoff accounting) invariant across
// GOMAXPROCS settings.
func TestGoogLeNet32CrashRecoverJoinDeterministic(t *testing.T) {
	cfg := timingConfig(models.GoogLeNet(), 32, 256, 6)
	cfg.Nodes = 8
	cfg.GPUsPerNode = 4
	base := midRun(t, cfg, 1.0)
	cfg.Faults = fault.Schedule{
		{At: sim.Time(float64(base) * 0.4), Kind: fault.Crash, Rank: 31},
		{At: sim.Time(float64(base) * 0.8), Kind: fault.Join, Rank: 31},
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var first *Result
	for _, procs := range []int{1, 4, 16} {
		runtime.GOMAXPROCS(procs)
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		rep := res.Fault
		if rep.Crashes != 1 || len(rep.Joins) != 1 || rep.Joins[0].Rank != 31 || rep.Survivors != 32 {
			t.Fatalf("GOMAXPROCS=%d: report = %v, joins = %+v", procs, rep, rep.Joins)
		}
		if first == nil {
			first = res
			continue
		}
		if res.TotalTime != first.TotalTime {
			t.Errorf("GOMAXPROCS=%d: total time %v != %v", procs, res.TotalTime, first.TotalTime)
		}
		if !reflect.DeepEqual(res.Fault, first.Fault) {
			t.Errorf("GOMAXPROCS=%d: fault report diverged:\n%+v\n%+v", procs, res.Fault, first.Fault)
		}
	}
}

func TestElasticConfigValidation(t *testing.T) {
	spec, _ := models.ByName("tiny")
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"fractional evict factor", func(c *Config) { c.EvictFactor = 0.5 }},
		{"negative evict window", func(c *Config) { c.EvictFactor = 2; c.EvictWindow = -1 }},
		{"eviction on unsupported design", func(c *Config) {
			c.Design = ParamServer
			c.GlobalBatch = 3
			c.EvictFactor = 2
		}},
	}
	for _, tc := range cases {
		cfg := timingConfig(spec, 4, 16, 2)
		tc.mut(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: expected error, got nil", tc.name)
		}
	}
}
