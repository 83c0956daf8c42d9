package core

import (
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"scaffe/internal/data"
	"scaffe/internal/fault"
	"scaffe/internal/models"
	"scaffe/internal/sim"
)

// midRun returns a virtual time a given fraction into a fault-free run
// of the config: a calibration run makes fault times deterministic
// without hardcoding the simulated cluster's speed into the test.
func midRun(t *testing.T, cfg Config, frac float64) sim.Time {
	t.Helper()
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sim.Time(float64(base.TotalTime) * frac)
}

func TestConfigNormalizeRejectsNonsense(t *testing.T) {
	spec, _ := models.ByName("tiny")
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"negative nodes", func(c *Config) { c.Nodes = -1 }},
		{"negative gpus/node", func(c *Config) { c.GPUsPerNode = -4 }},
		{"negative bucket bytes", func(c *Config) { c.BucketBytes = -1 }},
		{"bucket bytes where nothing buckets", func(c *Config) {
			c.Design = SCOB
			c.BucketBytes = 4 << 20
		}},
		{"negative snapshot interval", func(c *Config) { c.SnapshotEvery = -3 }},
		{"negative fault timeout", func(c *Config) { c.FaultTimeout = -sim.Millisecond }},
		{"negative start iteration", func(c *Config) { c.StartIteration = -1 }},
		{"start beyond end", func(c *Config) { c.StartIteration = 99 }},
		{"fault rank out of range", func(c *Config) {
			c.Faults = fault.Schedule{{Kind: fault.Crash, Rank: 64}}
		}},
		{"faults on unsupported design", func(c *Config) {
			c.Design = ParamServer
			c.GlobalBatch = 3
			c.Faults = fault.Schedule{{Kind: fault.Crash, Rank: 1}}
		}},
	}
	for _, tc := range cases {
		cfg := timingConfig(spec, 4, 16, 2)
		tc.mut(&cfg)
		_, err := Run(cfg)
		if err == nil {
			t.Errorf("%s: expected error, got nil", tc.name)
			continue
		}
		if !errors.Is(err, ErrConfig) {
			t.Errorf("%s: error %v is not ErrConfig", tc.name, err)
		}
	}
}

func TestFaultPlaneZeroOverheadWithoutFailures(t *testing.T) {
	spec, _ := models.ByName("cifar10-quick")
	cfg := timingConfig(spec, 8, 64, 5)
	cfg.Design = SCOB
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A no-op event far past the end of the run arms the whole
	// fault-tolerance machinery (deadline-sliced waits, elastic
	// readers) without injecting anything that perturbs training.
	cfg.Faults = fault.Schedule{{At: base.TotalTime * 1000, Kind: fault.StragglerOff, Rank: 0}}
	armed, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if armed.TotalTime != base.TotalTime {
		t.Errorf("armed-but-idle fault plane changed the run: %v vs %v", armed.TotalTime, base.TotalTime)
	}
	if armed.Fault == nil || armed.Fault.Survivors != 8 || len(armed.Fault.Recoveries) != 0 {
		t.Errorf("fault report = %+v", armed.Fault)
	}
}

func TestTimingCrashShrinksAndContinues(t *testing.T) {
	spec, _ := models.ByName("cifar10-quick")
	for _, d := range []Design{SCB, SCOB, SCOBR, CNTKLike} {
		cfg := timingConfig(spec, 8, 64, 8)
		cfg.Design = d
		mid := midRun(t, cfg, 0.5)
		cfg.Faults = fault.Schedule{{At: mid, Kind: fault.Crash, Rank: 3}}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		rep := res.Fault
		if rep == nil {
			t.Fatalf("%v: no fault report", d)
		}
		if rep.Crashes != 1 || rep.Survivors != 7 || len(rep.Recoveries) != 1 {
			t.Fatalf("%v: report = %v", d, rep)
		}
		rec := rep.Recoveries[0]
		if rec.Rank != 3 || rec.Survivors != 7 {
			t.Errorf("%v: recovery = %+v", d, rec)
		}
		if rec.DetectionLatency() <= 0 {
			t.Errorf("%v: detection latency %v not positive", d, rec.DetectionLatency())
		}
		if rec.RecoveryTime() < 0 {
			t.Errorf("%v: negative recovery time %v", d, rec.RecoveryTime())
		}
		if res.TotalTime <= mid {
			t.Errorf("%v: run ended at %v, before the crash at %v", d, res.TotalTime, mid)
		}
	}
}

func TestCrashOfRootRank(t *testing.T) {
	spec, _ := models.ByName("cifar10-quick")
	cfg := timingConfig(spec, 8, 64, 8)
	cfg.Design = SCOB
	mid := midRun(t, cfg, 0.5)
	// Rank 0 is the root solver: its death must hand the update role
	// to the shrunken communicator's new rank 0.
	cfg.Faults = fault.Schedule{{At: mid, Kind: fault.Crash, Rank: 0}}
	res, st, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fault.Survivors != 7 || len(res.Fault.Recoveries) != 1 {
		t.Fatalf("report = %v", res.Fault)
	}
	// Golden: the total the per-iteration graph rebuild produced for
	// this drill, before iterations ran from shared plans.
	if golden := sim.Time(69307424); res.TotalTime != golden {
		t.Errorf("total time = %d, golden %d", res.TotalTime, golden)
	}
	// The run built one plan per role and nothing rebuilt them: every
	// instance any rank ever bound — before the rebuild or after — points
	// at the run's plan for its role. Rank 1 trained as a worker, took
	// the root role over in the rebuild and bound the root plan then;
	// nobody else changed roles.
	if st.rootRank() != 1 {
		t.Fatalf("root moved to rank %d, want 1", st.rootRank())
	}
	for id, byRole := range st.graphs {
		for role, g := range byRole {
			played := role == roleWorker && id != 0 || role == roleRoot && id <= 1
			switch {
			case (g != nil) != played:
				t.Errorf("rank %d role %d: instance bound = %v, want %v", id, role, g != nil, played)
			case g != nil && g.Plan() != st.plans[role]:
				t.Errorf("rank %d role %d runs a plan of its own, not the run's", id, role)
			}
		}
	}
}

func TestHangDetectedByDeadline(t *testing.T) {
	spec, _ := models.ByName("cifar10-quick")
	cfg := timingConfig(spec, 8, 64, 8)
	cfg.Design = SCB
	mid := midRun(t, cfg, 0.4)
	cfg.Faults = fault.Schedule{{At: mid, Kind: fault.Hang, Rank: 5}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Fault
	if rep.Hangs != 1 || rep.Crashes != 0 || len(rep.Recoveries) != 1 {
		t.Fatalf("report = %v", rep)
	}
	if rep.Recoveries[0].Kind != fault.Hang {
		t.Errorf("recovery kind = %v", rep.Recoveries[0].Kind)
	}
}

func TestFaultedRunsAreDeterministic(t *testing.T) {
	spec, _ := models.ByName("cifar10-quick")
	cfg := timingConfig(spec, 8, 64, 8)
	cfg.Design = SCOBR
	mid := midRun(t, cfg, 0.5)
	cfg.Faults = fault.Schedule{
		{At: mid / 2, Kind: fault.StragglerOn, Rank: 2, Factor: 3},
		{At: mid, Kind: fault.Crash, Rank: 6},
	}
	first, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	for trial := 0; trial < 3; trial++ {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalTime != first.TotalTime {
			t.Fatalf("trial %d: total time %v != %v", trial, res.TotalTime, first.TotalTime)
		}
		if !reflect.DeepEqual(res.Fault, first.Fault) {
			t.Fatalf("trial %d: fault report diverged:\n%+v\n%+v", trial, res.Fault, first.Fault)
		}
	}
}

func TestRealModeCrashRollsBackToSnapshot(t *testing.T) {
	dir := t.TempDir()
	cfg := tinyRealConfig(4, 32, 24)
	cfg.SnapshotEvery = 6
	cfg.SnapshotPrefix = filepath.Join(dir, "tiny")
	mid := midRun(t, cfg, 0.6)

	cfg.SnapshotPrefix = filepath.Join(dir, "faulted")
	cfg.Faults = fault.Schedule{{At: mid, Kind: fault.Crash, Rank: 1}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Fault
	if rep.Crashes != 1 || rep.Survivors != 3 || len(rep.Recoveries) != 1 {
		t.Fatalf("report = %v", rep)
	}
	if !rep.Recoveries[0].RolledBack {
		t.Error("real-mode recovery did not roll back to a snapshot")
	}
	if ri := rep.Recoveries[0].RestartIter; ri <= 0 || ri%cfg.SnapshotEvery != 0 {
		t.Errorf("restart iteration %d is not a snapshot boundary", ri)
	}
	if len(res.Losses) != cfg.Iterations {
		t.Fatalf("got %d losses, want %d (rollback must re-record the replayed span)", len(res.Losses), cfg.Iterations)
	}
	for i, l := range res.Losses {
		if math.IsNaN(float64(l)) || math.IsInf(float64(l), 0) {
			t.Fatalf("loss %d = %v after recovery", i, l)
		}
	}
	if len(res.FinalParams) == 0 {
		t.Error("no final parameters captured")
	}
}

func TestRealModeCrashBeforeFirstSnapshotColdRestarts(t *testing.T) {
	cfg := tinyRealConfig(4, 32, 12)
	// No SnapshotEvery: there is never a snapshot to roll back to, so
	// survivors must restart from initialization and still finish.
	mid := midRun(t, cfg, 0.5)
	cfg.Faults = fault.Schedule{{At: mid, Kind: fault.Crash, Rank: 2}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Fault
	if len(rep.Recoveries) != 1 || rep.Recoveries[0].RolledBack {
		t.Fatalf("report = %v (cold restart must not be marked rolled-back)", rep)
	}
	if rep.Recoveries[0].RestartIter != 0 {
		t.Errorf("cold restart resumed at %d, want 0", rep.Recoveries[0].RestartIter)
	}
	if len(res.Losses) != cfg.Iterations {
		t.Fatalf("got %d losses, want %d", len(res.Losses), cfg.Iterations)
	}
}

func TestAllRanksDeadIsUnrecovered(t *testing.T) {
	spec, _ := models.ByName("cifar10-quick")
	cfg := timingConfig(spec, 4, 16, 8)
	mid := midRun(t, cfg, 0.5)
	cfg.Faults = fault.Schedule{
		{At: mid, Kind: fault.Crash, Rank: 0},
		{At: mid, Kind: fault.Crash, Rank: 1},
		{At: mid, Kind: fault.Crash, Rank: 2},
		{At: mid, Kind: fault.Crash, Rank: 3},
	}
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("run with every rank dead should fail")
	}
	if !errors.Is(err, ErrUnrecovered) {
		t.Errorf("error %v is not ErrUnrecovered", err)
	}
}

// TestResumeEquivalence is the end-to-end crash/restore check: a run
// killed mid-training by injected crashes, resumed from its latest
// on-disk snapshot at the same world size, must reach the exact final
// parameters of a run that never crashed.
func TestResumeEquivalence(t *testing.T) {
	dir := t.TempDir()
	const iters, every = 20, 5

	clean := tinyRealConfig(4, 32, iters)
	clean.SnapshotEvery = every
	clean.SnapshotPrefix = filepath.Join(dir, "clean")
	cleanRes, err := Run(clean)
	if err != nil {
		t.Fatal(err)
	}

	// Kill every rank ~70% through: past two snapshot boundaries,
	// before the end.
	killed := tinyRealConfig(4, 32, iters)
	killed.SnapshotEvery = every
	killed.SnapshotPrefix = filepath.Join(dir, "killed")
	at := sim.Time(float64(cleanRes.TotalTime) * 0.7)
	for rank := 0; rank < 4; rank++ {
		killed.Faults = append(killed.Faults, fault.Event{At: at, Kind: fault.Crash, Rank: rank})
	}
	if _, err := Run(killed); !errors.Is(err, ErrUnrecovered) {
		t.Fatalf("killed run: err = %v, want ErrUnrecovered", err)
	}

	// Find the latest snapshot the killed run left behind.
	var latest *Snapshot
	var latestPath string
	files, err := filepath.Glob(filepath.Join(dir, "killed_iter_*.scaffemodel"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no snapshots survived the crash (glob err %v)", err)
	}
	for _, f := range files {
		s, err := ReadSnapshot(f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if latest == nil || s.Iteration > latest.Iteration {
			latest, latestPath = s, f
		}
	}
	if len(latest.History) == 0 {
		t.Fatal("snapshot carries no momentum; resume cannot be exact")
	}

	resumed := tinyRealConfig(4, 32, iters)
	resumed.ResumeFrom = latestPath
	resumed.StartIteration = latest.Iteration + 1
	resumedRes, err := Run(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if len(resumedRes.Losses) != iters-(latest.Iteration+1) {
		t.Errorf("resumed run recorded %d losses, want %d", len(resumedRes.Losses), iters-(latest.Iteration+1))
	}
	if len(resumedRes.FinalParams) != len(cleanRes.FinalParams) {
		t.Fatalf("param count mismatch: %d vs %d", len(resumedRes.FinalParams), len(cleanRes.FinalParams))
	}
	for i := range cleanRes.FinalParams {
		if resumedRes.FinalParams[i] != cleanRes.FinalParams[i] {
			t.Fatalf("param %d: resumed %v != uninterrupted %v (resume is not bit-exact)",
				i, resumedRes.FinalParams[i], cleanRes.FinalParams[i])
		}
	}
}

func TestTransientFaultsSlowButDoNotShrink(t *testing.T) {
	spec, _ := models.ByName("cifar10-quick")
	base := timingConfig(spec, 8, 64, 8)
	base.Design = SCOB
	base.Nodes, base.GPUsPerNode = 2, 4
	baseRes, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	half := baseRes.TotalTime / 2
	cases := []struct {
		name string
		ev   fault.Event
	}{
		{"straggler", fault.Event{At: half / 2, Kind: fault.StragglerOn, Rank: 2, Factor: 8}},
		{"link degrade", fault.Event{At: half / 2, Kind: fault.LinkDegrade, Node: 0, Factor: 6, For: sim.Duration(half)}},
		{"reader stall", fault.Event{At: half / 2, Kind: fault.ReaderStall, Rank: 1, For: sim.Duration(half)}},
	}
	for _, tc := range cases {
		cfg := base
		cfg.Faults = fault.Schedule{tc.ev}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.TotalTime <= baseRes.TotalTime {
			t.Errorf("%s: total %v not slower than fault-free %v", tc.name, res.TotalTime, baseRes.TotalTime)
		}
		if len(res.Fault.Recoveries) != 0 || res.Fault.Survivors != 8 {
			t.Errorf("%s: transient fault triggered a shrink: %v", tc.name, res.Fault)
		}
	}
}

func TestSnapshotFailureSkipsWriteAndRecoveryUsesOlder(t *testing.T) {
	dir := t.TempDir()
	cfg := tinyRealConfig(4, 32, 24)
	cfg.SnapshotEvery = 6
	cfg.SnapshotPrefix = filepath.Join(dir, "tiny")
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.SnapshotFiles) != 4 {
		t.Fatalf("fault-free run wrote %d snapshots", len(base.SnapshotFiles))
	}
	// Fail every snapshot write from 40% of the run onward, then crash
	// a rank: recovery must roll back to a snapshot written before the
	// failure window.
	cfg.SnapshotPrefix = filepath.Join(dir, "failing")
	winStart := sim.Time(float64(base.TotalTime) * 0.4)
	cfg.Faults = fault.Schedule{
		{At: winStart, Kind: fault.SnapshotFail, For: sim.Duration(base.TotalTime) * 10},
		{At: sim.Time(float64(base.TotalTime) * 0.8), Kind: fault.Crash, Rank: 3},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fault.SnapshotFailures == 0 {
		t.Error("no snapshot failures recorded")
	}
	if len(res.Fault.Recoveries) != 1 {
		t.Fatalf("report = %v", res.Fault)
	}
	rec := res.Fault.Recoveries[0]
	if !rec.RolledBack {
		t.Error("recovery did not roll back")
	}
	if rec.RestartIter%cfg.SnapshotEvery != 0 {
		t.Errorf("restart iteration %d is not a snapshot boundary", rec.RestartIter)
	}
	if len(res.Losses) != cfg.Iterations {
		t.Errorf("got %d losses, want %d", len(res.Losses), cfg.Iterations)
	}
}

// TestGoogLeNetScaleCrashSurvival is the acceptance-scale run: a
// 32-GPU GoogLeNet training with a mid-run crash completes on the
// shrunken world and reports the recovery.
func TestGoogLeNetScaleCrashSurvival(t *testing.T) {
	cfg := timingConfig(models.GoogLeNet(), 32, 1024, 4)
	cfg.Design = SCOBR
	cfg.Nodes, cfg.GPUsPerNode = 8, 4
	mid := midRun(t, cfg, 0.5)
	cfg.Faults = fault.Schedule{{At: mid, Kind: fault.Crash, Rank: 17}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Fault
	if rep.Survivors != 31 || len(rep.Recoveries) != 1 {
		t.Fatalf("report = %v", rep)
	}
	if rep.Recoveries[0].DetectionLatency() <= 0 {
		t.Error("zero detection latency")
	}
	if res.TotalTime <= mid {
		t.Error("run did not continue past the crash")
	}
}

// TestStalledSourceBooksAtTheStallsEnd: a read issued during a reader
// stall waits the window out and books the backend at its end, so the
// disk it reserves then is the disk a read issued at that instant
// reserves; once the window has passed, a read books at once.
func TestStalledSourceBooksAtTheStallsEnd(t *testing.T) {
	k := sim.New()
	pl := fault.NewPlane(k, 2, sim.Never)
	pl.Arm(fault.Schedule{{At: 0, Kind: fault.ReaderStall, Rank: 1, For: 5 * sim.Millisecond}}, fault.NopApplier{})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	lmdb := data.NewLMDBSource(k, 2)
	src := stalledSource{inner: lmdb, pl: pl, rank: 1}
	rd := src.ReadBatch(sim.Millisecond, 16, 3100)
	if rd.N != 1 || rd.At[0] != 5*sim.Millisecond || rd.Then != lmdb {
		t.Fatalf("read during the stall = %+v, want a wait to 5ms, then the LMDB read", rd)
	}
	if lmdb.Disk.BusyTotal() != 0 {
		t.Error("a stalled read booked the disk before the stall ended")
	}
	want := data.NewLMDBSource(sim.New(), 2).ReadBatch(5*sim.Millisecond, 16, 3100)
	if got := rd.Then.ReadBatch(5*sim.Millisecond, 16, 3100); got != want {
		t.Errorf("read at the stall's end = %+v, want %+v", got, want)
	}
	late := stalledSource{inner: data.NewLMDBSource(k, 2), pl: pl, rank: 1}
	if got, want := late.ReadBatch(6*sim.Millisecond, 16, 3100), data.NewLMDBSource(k, 2).ReadBatch(6*sim.Millisecond, 16, 3100); got != want {
		t.Errorf("read past the stall = %+v, want the LMDB read at once, %+v", got, want)
	}
}

// TestKeptFaultReportFreesTheRun: Result.Fault is a copy of the plane's
// report, not a pointer into the plane, so keeping it pins nothing of
// the run — not the plane, nor through it the run's state, world and
// kernel. The chaos benchmark keeps one report per spec of every rep;
// when the report was the plane's own, every rep's worlds stayed live.
// The probe is a pointer-free array of the run's state: a finalizer
// runs for it once nothing reaches it, which a finalizer on the kernel
// (in a cycle with its procs) never would.
func TestKeptFaultReportFreesTheRun(t *testing.T) {
	spec, _ := models.ByName("cifar10-quick")
	cfg := timingConfig(spec, 8, 64, 4)
	cfg.Design = SCOB
	cfg.Faults = fault.Schedule{{At: midRun(t, cfg, 0.5), Kind: fault.Crash, Rank: 3}}
	res, st, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var freed atomic.Bool
	runtime.SetFinalizer(&st.catchupSeen[0], func(*int) { freed.Store(true) })
	kept := res.Fault
	res, st = nil, nil
	for i := 0; i < 50 && !freed.Load(); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if !freed.Load() {
		t.Errorf("the run's state is still live while only its fault report is kept")
	}
	if len(kept.Recoveries) != 1 || kept.Survivors != 7 {
		t.Errorf("kept report = %+v, want one recovery and 7 survivors", *kept)
	}
}
