package core

import (
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"scaffe/internal/coll"
	"scaffe/internal/fault"
	"scaffe/internal/models"
	"scaffe/internal/sim"
)

// allLinkWire builds one wire event of the given kind per directed
// link of an n-rank world, all armed at `at`: whichever links the
// reducer under test actually routes traffic over, its landings meet
// the perturbation. hold is the Delay kind's window (ignored
// otherwise).
func allLinkWire(kind fault.Kind, at sim.Time, ranks, n int, hold sim.Duration) fault.Schedule {
	var s fault.Schedule
	for i := 0; i < ranks; i++ {
		for j := 0; j < ranks; j++ {
			if i == j {
				continue
			}
			ev := fault.Event{At: at, Kind: kind, Src: i, Dst: j, N: n}
			if kind == fault.Delay {
				ev.For = hold
			}
			s = append(s, ev)
		}
	}
	return s
}

// wireFamilies is every reducer family the wire tests sweep: the
// tree/chain reducers select through Config.Reduce under SC-B, and the
// ring allreduce through the CNTK-like design (its only reducer).
var wireFamilies = []struct {
	name   string
	design Design
	alg    coll.Algorithm
}{
	{"binomial", SCB, coll.Binomial},
	{"chain", SCB, coll.Chain},
	{"chain-chain", SCB, coll.ChainChain},
	{"chain-binomial", SCB, coll.ChainBinomial},
	{"rabenseifner", SCB, coll.Rabenseifner},
	{"ring", CNTKLike, coll.Tuned},
}

func wireCfg(t *testing.T, design Design, alg coll.Algorithm) Config {
	t.Helper()
	spec, err := models.ByName("cifar10-quick")
	if err != nil {
		t.Fatal(err)
	}
	cfg := timingConfig(spec, 8, 64, 8)
	cfg.Design = design
	cfg.Reduce = alg
	cfg.Nodes, cfg.GPUsPerNode = 2, 4
	// A 1ms detection quantum keeps the loss-aware escalation horizon
	// (47 quanta: 1+2+4+8+16+16) small next to the run length.
	cfg.FaultTimeout = sim.Millisecond
	return cfg
}

// TestWireDropEscalatesEveryReducer drops the next landing on every
// directed link mid-run, for every reducer family: the payloads are
// permanently gone, so the starved waiters must escalate through the
// revoke path (a loss-aware wire revocation — no rank failed, so the
// membership is unchanged) and the run must still finish inside the
// virtual-time ceiling.
func TestWireDropEscalatesEveryReducer(t *testing.T) {
	for _, fc := range wireFamilies {
		fc := fc
		t.Run(fc.name, func(t *testing.T) {
			cfg := wireCfg(t, fc.design, fc.alg)
			base := midRun(t, cfg, 0.45)
			cfg.Faults = allLinkWire(fault.Drop, base, 8, 1, 0)
			cfg.MaxVirtualTime = sim.Duration(base)*40 + 10*sim.Second
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rep := res.Fault
			if rep.Drops < 1 {
				t.Fatalf("no landings dropped: %v", rep)
			}
			if rep.WireRevokes < 1 {
				t.Errorf("dropped traffic never escalated to a revocation: %v", rep)
			}
			if rep.Survivors != 8 || len(rep.Recoveries) != 0 {
				t.Errorf("wire loss must not change membership: %v", rep)
			}
		})
	}
}

// TestWireDupInvisibleEveryReducer duplicates the next landing on
// every directed link: the generation-guarded completion machinery
// absorbs every ghost, so the run's virtual-time outcome must be
// byte-identical to an armed-but-idle plane.
func TestWireDupInvisibleEveryReducer(t *testing.T) {
	for _, fc := range wireFamilies {
		fc := fc
		t.Run(fc.name, func(t *testing.T) {
			cfg := wireCfg(t, fc.design, fc.alg)
			base := midRun(t, cfg, 0.45)

			idle := cfg
			idle.Faults = fault.Schedule{{At: sim.Time(base) * 1000, Kind: fault.StragglerOff, Rank: 0}}
			ref, err := Run(idle)
			if err != nil {
				t.Fatal(err)
			}

			cfg.Faults = allLinkWire(fault.Dup, base, 8, 1, 0)
			cfg.MaxVirtualTime = sim.Duration(base)*40 + 10*sim.Second
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rep := res.Fault
			if rep.Dups < 1 {
				t.Fatalf("no landings duplicated: %v", rep)
			}
			if res.TotalTime != ref.TotalTime {
				t.Errorf("duplicate landings changed total time: %v vs %v", res.TotalTime, ref.TotalTime)
			}
			if rep.WireRevokes != 0 || len(rep.Recoveries) != 0 || rep.Survivors != 8 {
				t.Errorf("duplicates are not losses; report = %v", rep)
			}
		})
	}
}

// TestWireReorderAndDelayEveryReducer swaps adjacent landings
// (reorder) and holds landings (delay) on every link: neither loses
// payload, so runs finish with full membership and no revocation —
// the reorder failsafe flushes any stash with no follow-up landing.
func TestWireReorderAndDelayEveryReducer(t *testing.T) {
	for _, fc := range wireFamilies {
		fc := fc
		t.Run(fc.name, func(t *testing.T) {
			cfg := wireCfg(t, fc.design, fc.alg)
			base := midRun(t, cfg, 0.45)
			cfg.Faults = append(
				allLinkWire(fault.Reorder, base, 8, 1, 0),
				allLinkWire(fault.Delay, sim.Time(float64(base)*1.2), 8, 1, 3*sim.Millisecond)...)
			cfg.MaxVirtualTime = sim.Duration(base)*40 + 10*sim.Second
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rep := res.Fault
			if rep.Reorders < 1 {
				t.Fatalf("no landings reordered: %v", rep)
			}
			if rep.Delays < 1 {
				t.Fatalf("no landings delayed: %v", rep)
			}
			if rep.Drops != 0 || rep.WireRevokes != 0 || len(rep.Recoveries) != 0 || rep.Survivors != 8 {
				t.Errorf("reorder/delay are not losses; report = %v", rep)
			}
		})
	}
}

// TestWireDropDeterministicAcrossProcs pins GOMAXPROCS-invariance of
// a loss-escalated run: one goroutine at a time drives the event
// loop, so the whole fate/escalate/recover history must be
// bit-identical whatever the host parallelism.
func TestWireDropDeterministicAcrossProcs(t *testing.T) {
	cfg := wireCfg(t, SCB, coll.Binomial)
	base := midRun(t, cfg, 0.45)
	cfg.Faults = allLinkWire(fault.Drop, base, 8, 1, 0)
	cfg.MaxVirtualTime = sim.Duration(base)*40 + 10*sim.Second
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var first *Result
	for _, procs := range []int{1, 4, 16} {
		runtime.GOMAXPROCS(procs)
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
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

// TestSplitBrainDrillBitExact is the tentpole's acceptance drill: an
// 8-rank real-compute run is split 4|4 mid-training. The quorum rule
// must fence the minority (the side without the root), the majority
// continues from the pre-partition snapshot, the fenced ranks re-enter
// through the join desk after the heal, and the final parameters must
// be bit-identical to a fault-free golden — across GOMAXPROCS
// settings.
func TestSplitBrainDrillBitExact(t *testing.T) {
	dir := t.TempDir()
	// Snapshots land at iterations 11 and 23: the only boundary inside
	// the run sits before the partition, so the shrunken majority can
	// never write a 4-rank snapshot before the minority rejoins.
	const iters, every = 24, 12

	golden := tinyRealConfig(8, 32, iters)
	golden.SnapshotEvery = every
	golden.SnapshotPrefix = filepath.Join(dir, "golden")
	gres, err := Run(golden)
	if err != nil {
		t.Fatal(err)
	}
	tt := gres.TotalTime

	quantum := sim.Millisecond
	// The loss-aware escalation fires after 6 ladder steps:
	// 1+2+4+8+16+16 = 47 quanta from the first starved wait.
	horizon := 47 * quantum
	at := sim.Time(float64(tt) * 0.6)
	window := horizon + sim.Duration(float64(tt)*0.2)

	cfg := tinyRealConfig(8, 32, iters)
	cfg.SnapshotEvery = every
	cfg.SnapshotPrefix = filepath.Join(dir, "drill")
	cfg.FaultTimeout = quantum
	cfg.MaxVirtualTime = sim.Duration(tt)*30 + 10*sim.Second
	cfg.Faults = fault.Schedule{{
		At:     at,
		Kind:   fault.Partition,
		Groups: [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}},
		For:    window,
	}}

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
		if rep.PartitionDrops < 1 || rep.WireRevokes < 1 {
			t.Fatalf("GOMAXPROCS=%d: partition never starved a waiter into escalation: %v", procs, rep)
		}
		if rep.Fenced != 4 {
			t.Fatalf("GOMAXPROCS=%d: fenced %d ranks, want the 4-rank minority: %v", procs, rep.Fenced, rep)
		}
		fenced := map[int]bool{}
		for _, rec := range rep.Recoveries {
			if rec.Kind == fault.Partitioned {
				fenced[rec.Rank] = true
			}
		}
		for _, r := range []int{4, 5, 6, 7} {
			if !fenced[r] {
				t.Fatalf("GOMAXPROCS=%d: minority rank %d has no Partitioned recovery record: %+v", procs, r, rep.Recoveries)
			}
		}
		if len(rep.Joins) != 4 || rep.Survivors != 8 {
			t.Fatalf("GOMAXPROCS=%d: minority must rejoin after heal: joins = %+v, survivors = %d", procs, rep.Joins, rep.Survivors)
		}
		if len(res.Losses) != iters {
			t.Fatalf("GOMAXPROCS=%d: recorded %d losses, want %d", procs, len(res.Losses), iters)
		}
		for i := range res.Losses {
			if res.Losses[i] != gres.Losses[i] {
				t.Fatalf("GOMAXPROCS=%d: loss %d = %v, golden %v (healed run is not bit-exact)", procs, i, res.Losses[i], gres.Losses[i])
			}
		}
		if len(res.FinalParams) != len(gres.FinalParams) {
			t.Fatalf("GOMAXPROCS=%d: param count mismatch: %d vs %d", procs, len(res.FinalParams), len(gres.FinalParams))
		}
		for i := range res.FinalParams {
			if res.FinalParams[i] != gres.FinalParams[i] {
				t.Fatalf("GOMAXPROCS=%d: param %d: %v != golden %v", procs, i, res.FinalParams[i], gres.FinalParams[i])
			}
		}
		if first == nil {
			first = res
			continue
		}
		if res.TotalTime != first.TotalTime || !reflect.DeepEqual(res.Fault, first.Fault) {
			t.Errorf("GOMAXPROCS=%d: drill outcome diverged:\n%+v\n%+v", procs, res.Fault, first.Fault)
		}
	}
}

// TestWirePlaneArmedUntrippedByteIdentical pins the zero-perturbation
// bar for the whole wire family: scheduling drop/dup/reorder/delay/
// partition events that never fire must leave every observable output
// byte-identical to the established armed-but-idle baseline.
func TestWirePlaneArmedUntrippedByteIdentical(t *testing.T) {
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

	wired := tinyRealConfig(4, 32, 12)
	wired.Faults = fault.Schedule{
		{At: far, Kind: fault.Drop, Src: 0, Dst: 1, N: 1},
		{At: far, Kind: fault.Dup, Src: 1, Dst: 2, N: 1},
		{At: far, Kind: fault.Reorder, Src: 2, Dst: 3, N: 1},
		{At: far, Kind: fault.Delay, Src: 3, Dst: 0, N: 1, For: sim.Millisecond},
		{At: far, Kind: fault.Partition, Groups: [][]int{{0, 1}, {2, 3}}, For: sim.Millisecond},
	}
	b, err := Run(wired)
	if err != nil {
		t.Fatal(err)
	}

	if a.TotalTime != b.TotalTime {
		t.Errorf("armed wire plane changed total time: %v vs %v", b.TotalTime, a.TotalTime)
	}
	if !reflect.DeepEqual(a.Losses, b.Losses) {
		t.Error("armed wire plane changed the loss curve")
	}
	if !reflect.DeepEqual(a.FinalParams, b.FinalParams) {
		t.Error("armed wire plane changed the final parameters")
	}
	rep := b.Fault
	if rep.Drops+rep.Dups+rep.Reorders+rep.Delays+rep.PartitionDrops+rep.WireRevokes+rep.Fenced != 0 || len(rep.Recoveries) != 0 {
		t.Errorf("untripped wire plane reported activity: %v", rep)
	}
}
