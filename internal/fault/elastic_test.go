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
	attempt := 0
	a.k.SpawnSteps(fmt.Sprintf("joiner%d", rank), stepper(func(p *sim.Proc) bool {
		done, ok := a.pl.PollAdmission(rank, p, &attempt)
		if !done {
			return false
		}
		if ok {
			a.admitted = append(a.admitted, rank)
		} else {
			a.refused = append(a.refused, rank)
		}
		a.pl.Depart(rank)
		return true
	}))
}

type stepper func(p *sim.Proc) bool

func (f stepper) Step(p *sim.Proc) bool { return f(p) }

// survivor is a surviving rank of the plane tests as its proc's steps:
// while more reports true, it sleeps for sleep, and then tick, on waking,
// says whether the rank goes into the recovery rendezvous (Arrive, then
// PollRecovery until it is over). Then it departs.
type survivor struct {
	pl    *Plane
	rank  int
	sleep sim.Duration
	more  func() bool
	tick  func(p *sim.Proc) bool

	slept, recovering bool
}

func (s *survivor) Step(p *sim.Proc) bool {
	for {
		switch {
		case s.recovering:
			if done, _ := s.pl.PollRecovery(s.rank, p); !done {
				return false
			}
			s.recovering = false
		case s.slept:
			s.slept = false
			if s.tick(p) {
				s.pl.Arrive(s.rank)
				s.recovering = true
				continue
			}
		}
		if !s.more() {
			s.pl.Depart(s.rank)
			return true
		}
		s.slept = true
		p.ArmUntil(p.Now() + s.sleep)
		return false
	}
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
		k.SpawnSteps(fmt.Sprintf("rank%d", i), &survivor{pl: pl, rank: i, sleep: pl.Timeout(0),
			more: func() bool { return len(pl.Report().Joins) == 0 },
			tick: func(p *sim.Proc) bool {
				if p.Now() > open && pl.JoinPending() && !pl.Revoked() {
					pl.BeginGrow()
				}
				return pl.Revoked() || pl.OnTimeout(i, 0, p.Now())
			}})
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
	// Survivor finishes training long before anyone could admit the
	// joiner.
	woke := false
	k.SpawnSteps("rank0", &survivor{pl: pl, rank: 0, sleep: 2 * pl.Timeout(0),
		more: func() bool { return !woke },
		tick: func(p *sim.Proc) bool {
			woke = true
			return pl.OnTimeout(0, 0, p.Now())
		}})
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
		k.SpawnSteps(fmt.Sprintf("rank%d", i), &survivor{pl: pl, rank: i, sleep: pl.Timeout(0),
			more: func() bool { return len(pl.Report().Recoveries) == 0 },
			tick: func(*sim.Proc) bool { return pl.Revoked() && pl.Alive(i) }})
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
