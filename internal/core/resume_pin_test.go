package core

import (
	"testing"

	"scaffe/internal/coll"
	"scaffe/internal/fault"
	"scaffe/internal/models"
	"scaffe/internal/sim"
)

// pinRun is one of the small runs TestDesignRunsPinned pins: a design,
// fault-free or with a plane armed by a schedule that never trips, and
// three schedules that do trip: a crash whose rank later rejoins, a
// checksum mismatch that is retransmitted, and a watchdog trip.
type pinRun struct {
	name string
	cfg  func() Config
}

// pinRuns returns the pinned runs, in the order of designPins.
func pinRuns(t *testing.T) []pinRun {
	spec, err := models.ByName("cifar10-quick")
	if err != nil {
		t.Fatal(err)
	}
	design := func(d Design, bucket int64, armed bool) func() Config {
		return func() Config {
			batch := 64
			if d == ParamServer {
				batch = 56
			}
			cfg := timingConfig(spec, 8, batch, 8)
			cfg.Design, cfg.BucketBytes = d, bucket
			if armed {
				cfg.Faults = fault.Schedule{{At: 3600 * sim.Second, Kind: fault.StragglerOff, Rank: 0}}
			}
			return cfg
		}
	}
	var runs []pinRun
	for _, d := range designRuns {
		runs = append(runs, pinRun{d.name, design(d.design, d.bucket, false)})
	}
	for _, d := range designRuns {
		if d.design != CaffeMT && d.design != ParamServer { // fault injection validates for it
			runs = append(runs, pinRun{d.name + "/armed", design(d.design, d.bucket, true)})
		}
	}
	const ms = sim.Millisecond
	runs = append(runs,
		pinRun{"crash-rejoin", func() Config {
			cfg := design(SCOBR, 0, false)()
			cfg.Faults = fault.Schedule{
				{At: 12 * ms, Kind: fault.Crash, Rank: 3},
				{At: 24 * ms, Kind: fault.Join, Rank: 3},
			}
			return cfg
		}},
		pinRun{"retransmit", func() Config {
			cfg := design(SCOB, 0, false)()
			cfg.Reduce = coll.Binomial
			cfg.Integrity = IntegrityRecover
			cfg.Faults = fault.Schedule{
				{At: 10 * ms, Kind: fault.CorruptWire, Src: 1, Dst: 0, N: 1},
				{At: 20 * ms, Kind: fault.CorruptWire, Src: 6, Dst: 4, N: 2},
			}
			return cfg
		}},
		pinRun{"watchdog", func() Config {
			cfg := tinyRealConfig(4, 32, 8)
			cfg.Integrity = IntegrityRecover
			cfg.Faults = fault.Schedule{{At: 2 * ms, Kind: fault.BitFlip, Rank: 0, Word: 64, Bit: 30}}
			return cfg
		}},
	)
	return runs
}

// designPins are the pinned runs' end times and the resumes their procs
// took (resumed), recorded while every rank, helper lane and data reader
// of a run still had a goroutine.
var designPins = []struct {
	total   sim.Time
	resumes uint64
}{
	{49635054, 2031}, // SC-B
	{48284834, 2023}, // SC-OB
	{45515906, 2897}, // SC-OBR
	{48284834, 2223}, // SC-OBR/4MiB
	{49635054, 2017}, // Caffe
	{46700656, 3262}, // CNTK-like
	{46364463, 1752}, // ParamServer
	{49635054, 2055}, // SC-B/armed
	{48284834, 2047}, // SC-OB/armed
	{45515906, 2921}, // SC-OBR/armed
	{48284834, 2247}, // SC-OBR/4MiB/armed
	{46700656, 3286}, // CNTK-like/armed
	{66728549, 3225}, // crash-rejoin
	{47317960, 1929}, // retransmit
	{51413310, 716},  // watchdog
}

// resumed is the resume count a run is pinned by. With no goroutine a
// proc's last resume — its step reporting done, or its kill — is no step
// but a finish, so the steps are the pinned count less the procs.
func resumed(r sim.Resumes) uint64 { return r.Steps + r.Switches + r.Finishes }

// TestDesignRunsPinned holds every design's small run, fault-free and
// armed-untripped, and three tripping schedules, to the end time and
// resume count it was pinned at: a change to how procs run must not move
// an event.
func TestDesignRunsPinned(t *testing.T) {
	runs := pinRuns(t)
	if len(runs) != len(designPins) {
		for _, pr := range runs {
			res, err := Run(pr.cfg())
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("{%d, %d}, // %s", int64(res.TotalTime), resumed(res.Resumes), pr.name)
		}
		t.Fatalf("%d runs, %d pins", len(runs), len(designPins))
	}
	for i, pr := range runs {
		res, err := Run(pr.cfg())
		if err != nil {
			t.Fatalf("%s: %v", pr.name, err)
		}
		if pin := designPins[i]; res.TotalTime != pin.total || resumed(res.Resumes) != pin.resumes {
			t.Errorf("%s: ended at %v after %d resumes, pinned %v after %d (%+v)",
				pr.name, res.TotalTime, resumed(res.Resumes), pin.total, pin.resumes, res.Resumes)
		}
	}
}
