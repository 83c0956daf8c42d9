package fault

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"scaffe/internal/sim"
)

func TestParseScheduleJoinEvict(t *testing.T) {
	text := `
5ms crash rank=3
150ms evict rank=2
250ms join rank=3
300ms join rank=2
`
	sched, err := ParseSchedule(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched) != 4 {
		t.Fatalf("parsed %d events, want 4", len(sched))
	}
	if ev := sched[1]; ev.Kind != Evict || ev.Rank != 2 || ev.At != 150*sim.Time(sim.Millisecond) {
		t.Errorf("event 1 = %+v", ev)
	}
	if ev := sched[2]; ev.Kind != Join || ev.Rank != 3 {
		t.Errorf("event 2 = %+v", ev)
	}
	if err := sched.Validate(4, 2); err != nil {
		t.Errorf("validate: %v", err)
	}
	if Join.String() != "join" || Evict.String() != "evict" {
		t.Errorf("kind strings = %q, %q", Join, Evict)
	}
}

func TestParseScheduleJoinEvictErrors(t *testing.T) {
	cases := []struct{ name, text, want string }{
		{"join missing rank", "1ms join", "needs rank"},
		{"evict missing rank", "1ms evict", "needs rank"},
		{"join duplicate instant", "5ms join rank=2\n5ms evict rank=2", "duplicate event for rank 2"},
		{"evict vs crash duplicate", "5ms evict rank=1\n5ms crash rank=1", "duplicate event for rank 1"},
	}
	for _, tc := range cases {
		if _, err := ParseSchedule(tc.text); err == nil {
			t.Errorf("%s: no error", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q missing %q", tc.name, err, tc.want)
		}
	}
	if err := (Schedule{{Kind: Join, Rank: 9}}).Validate(4, 2); err == nil {
		t.Error("join rank out of range: no error")
	}
	if err := (Schedule{{Kind: Evict, Rank: -1}}).Validate(4, 2); err == nil {
		t.Error("evict rank negative: no error")
	}
}

// elasticApplier is a minimal joiner for plane-level tests: ReviveRank
// spawns a proc that waits at the join desk and records the outcome.
type elasticApplier struct {
	NopApplier
	k        *sim.Kernel
	pl       *Plane
	admitted []int
	refused  []int
}

func (a *elasticApplier) ReviveRank(rank int) {
	a.k.Spawn(fmt.Sprintf("joiner%d", rank), func(p *sim.Proc) {
		if awaitAdmission(a.pl, rank, p) {
			a.admitted = append(a.admitted, rank)
		} else {
			a.refused = append(a.refused, rank)
		}
		a.pl.Depart(rank)
	})
}

// pollStep runs a poll form of the plane's as the steps of a goroutine
// proc, for the tests' procs that sleep between the plane's calls.
type pollStep func(p *sim.Proc) (done, ok bool)

func (f pollStep) run(p *sim.Proc) (ok bool) {
	p.RunSteps(stepper(func(p *sim.Proc) (done bool) {
		done, ok = f(p)
		return done
	}))
	return ok
}

type stepper func(p *sim.Proc) bool

func (f stepper) Step(p *sim.Proc) bool { return f(p) }

// awaitAdmission waits rank's proc p at the join desk until it is
// admitted or gives up.
func awaitAdmission(pl *Plane, rank int, p *sim.Proc) bool {
	attempt := 0
	return pollStep(func(p *sim.Proc) (bool, bool) { return pl.PollAdmission(rank, p, &attempt) }).run(p)
}

// enterRecovery waits rank's proc p out in the recovery rendezvous and
// reports whether it trains on.
func enterRecovery(pl *Plane, rank int, p *sim.Proc) bool {
	pl.Arrive(rank)
	return pollStep(func(p *sim.Proc) (bool, bool) { return pl.PollRecovery(rank, p) }).run(p)
}

// runJoinDesk simulates 3 survivors that ignore the join desk until
// `open`, then admit at their next tick: the joiner must ride out busy
// admit windows with bounded retries and re-queues, never wedging.
func runJoinDesk(t *testing.T, retries int, open sim.Time) (*Report, []int) {
	t.Helper()
	k := sim.New()
	pl := NewPlane(k, 4, sim.Millisecond)
	pl.joinBudget = retries
	pl.OnRebuild(func(Round) (int, bool) { return 0, false })
	ap := &elasticApplier{k: k, pl: pl}
	pl.Arm(Schedule{
		{At: 2 * sim.Time(sim.Millisecond), Kind: Crash, Rank: 3},
		{At: 10 * sim.Time(sim.Millisecond), Kind: Join, Rank: 3},
	}, ap)
	for i := 0; i < 3; i++ {
		i := i
		k.Spawn(fmt.Sprintf("rank%d", i), func(p *sim.Proc) {
			for len(pl.Report().Joins) == 0 {
				p.Sleep(pl.Timeout(0))
				if p.Now() > open && pl.JoinPending() && !pl.Revoked() {
					pl.BeginGrow()
				}
				if pl.Revoked() || pl.OnTimeout(i, 0, p.Now()) {
					enterRecovery(pl, i, p)
				}
			}
			pl.Depart(i)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return pl.Report(), ap.admitted
}

func TestJoinDeskRetryRequeueDeterministic(t *testing.T) {
	rep, admitted := runJoinDesk(t, 2, 40*sim.Time(sim.Millisecond))
	if len(admitted) != 1 || admitted[0] != 3 {
		t.Fatalf("admitted = %v, want [3]", admitted)
	}
	if len(rep.Joins) != 1 {
		t.Fatalf("joins = %+v", rep.Joins)
	}
	j := rep.Joins[0]
	if j.Rank != 3 || j.WorldSize != 4 || rep.Survivors != 4 {
		t.Errorf("join record = %+v, survivors = %d", j, rep.Survivors)
	}
	// The admit window stayed shut past the retry budget: the joiner
	// must have withdrawn, cooled down, and re-queued at least once,
	// with the exhausted budget reflected in the attempt count.
	if j.Requeues < 1 || rep.JoinRequeues != j.Requeues {
		t.Errorf("requeues = %d (report %d), want >= 1", j.Requeues, rep.JoinRequeues)
	}
	if j.Attempts <= 2 {
		t.Errorf("attempts = %d, want > retry budget", j.Attempts)
	}
	if j.AdmissionLatency() <= 0 {
		t.Errorf("admission latency = %v", j.AdmissionLatency())
	}
	// The whole dance is virtual-time deterministic: a second run must
	// produce a byte-identical report.
	rep2, _ := runJoinDesk(t, 2, 40*sim.Time(sim.Millisecond))
	if !reflect.DeepEqual(rep, rep2) {
		t.Errorf("join desk diverged across runs:\n%+v\n%+v", rep, rep2)
	}
}

func TestJoinDeskImmediateAdmission(t *testing.T) {
	// Admit window opens immediately: no requeues, one or two attempts.
	rep, admitted := runJoinDesk(t, 6, 0)
	if len(admitted) != 1 || len(rep.Joins) != 1 {
		t.Fatalf("admitted = %v, joins = %+v", admitted, rep.Joins)
	}
	if j := rep.Joins[0]; j.Requeues != 0 || j.Attempts > 2 {
		t.Errorf("immediate admission took %d attempts, %d requeues", j.Attempts, j.Requeues)
	}
}

func TestJoinAbandonedWhenNobodyLeft(t *testing.T) {
	k := sim.New()
	pl := NewPlane(k, 2, sim.Millisecond)
	pl.OnRebuild(func(Round) (int, bool) { return 0, false })
	ap := &elasticApplier{k: k, pl: pl}
	pl.Arm(Schedule{
		{At: sim.Time(sim.Millisecond), Kind: Crash, Rank: 1},
		{At: 20 * sim.Time(sim.Millisecond), Kind: Join, Rank: 1},
	}, ap)
	k.Spawn("rank0", func(p *sim.Proc) {
		p.Sleep(2 * pl.Timeout(0))
		if pl.OnTimeout(0, 0, p.Now()) {
			enterRecovery(pl, 0, p)
		}
		// Survivor finishes training long before anyone could admit
		// the joiner.
		pl.Depart(0)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(ap.refused) != 1 || ap.refused[0] != 1 {
		t.Errorf("refused = %v, want [1] (join must abandon, not wedge)", ap.refused)
	}
	if len(pl.Report().Joins) != 0 {
		t.Errorf("abandoned join produced a record: %+v", pl.Report().Joins)
	}
}

func TestEvictIsInstantlyDetected(t *testing.T) {
	k := sim.New()
	pl := NewPlane(k, 4, sim.Millisecond)
	pl.OnRebuild(func(Round) (int, bool) { return 7, false })
	ap := &elasticApplier{k: k, pl: pl}
	at := 5 * sim.Time(sim.Millisecond)
	pl.Arm(Schedule{{At: at, Kind: Evict, Rank: 2}}, ap)
	for i := 0; i < 4; i++ {
		i := i
		k.Spawn(fmt.Sprintf("rank%d", i), func(p *sim.Proc) {
			for len(pl.Report().Recoveries) == 0 {
				p.Sleep(pl.Timeout(0))
				if pl.Revoked() && pl.Alive(i) {
					enterRecovery(pl, i, p)
				}
			}
			pl.Depart(i)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	rep := pl.Report()
	if rep.Evictions != 1 || len(rep.Recoveries) != 1 {
		t.Fatalf("report = %v", rep)
	}
	rec := rep.Recoveries[0]
	if rec.Kind != Evict || rec.Rank != 2 {
		t.Errorf("recovery = %+v", rec)
	}
	if rec.DetectionLatency() != 0 {
		t.Errorf("eviction detection latency = %v, want 0 (evictor initiated it)", rec.DetectionLatency())
	}
	if rec.RestartIter != 7 || rec.Survivors != 3 {
		t.Errorf("recovery = %+v", rec)
	}
}
