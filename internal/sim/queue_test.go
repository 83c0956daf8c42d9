package sim

import (
	"runtime"
	"testing"
)

// lcg is a tiny deterministic generator for the differential tests
// (the simulator forbids wall-clock randomness; a fixed-seed LCG keeps
// the schedules reproducible).
type lcg uint64

func (g *lcg) next() uint64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return uint64(*g) >> 11
}

// TestCalendarHeapDifferential drives the calendar queue and the
// legacy binary heap with identical randomized insert/pop schedules
// and requires identical pop order. The profiles cover the regimes the
// kernel produces: dense same-instant clusters, mixed near-future
// timers, and wide spreads that force table resizes and the year-scan
// fallback.
func TestCalendarHeapDifferential(t *testing.T) {
	profiles := []struct {
		name   string
		spread uint64 // max distance of an insert above current time
		burst  uint64 // probability (%) of inserting at exactly now+1
		ops    int
	}{
		{"dense-near", 64, 50, 30000},
		{"mixed", 4096, 10, 30000},
		{"wide-resize", 1 << 40, 0, 20000},
		{"clustered-jumps", 1 << 20, 70, 30000},
	}
	for _, pf := range profiles {
		t.Run(pf.name, func(t *testing.T) {
			var cal calendarQueue
			var heap eventHeap
			g := lcg(0x5caffe + len(pf.name))
			var seq uint64
			now := Time(0)
			pending := 0
			for i := 0; i < pf.ops; i++ {
				r := g.next()
				if pending == 0 || r%100 < 60 {
					at := now + 1 + Time(g.next()%pf.spread)
					if g.next()%100 < pf.burst {
						at = now + 1
					}
					seq++
					e := event{at: at, seq: seq}
					cal.insert(e)
					heap.pushEvent(e)
					pending++
					continue
				}
				a := cal.pop()
				b := heap.popEvent()
				if a.at != b.at || a.seq != b.seq {
					t.Fatalf("op %d: calendar popped (at=%d seq=%d), heap popped (at=%d seq=%d)",
						i, a.at, a.seq, b.at, b.seq)
				}
				// Pops advance virtual time monotonically, exactly as
				// the kernel's event loop does.
				now = a.at
				pending--
			}
			for pending > 0 {
				a := cal.pop()
				b := heap.popEvent()
				if a.at != b.at || a.seq != b.seq {
					t.Fatalf("drain: calendar popped (at=%d seq=%d), heap popped (at=%d seq=%d)",
						a.at, a.seq, b.at, b.seq)
				}
				pending--
			}
			if cal.count != 0 || heap.Len() != 0 {
				t.Fatalf("queues not empty after drain: calendar %d, heap %d", cal.count, heap.Len())
			}
		})
	}
}

// TestCalendarMinTimeMatchesHeap checks the cached-minimum peek (the
// kernel's pop rule reads it on every event) against the oracle.
func TestCalendarMinTimeMatchesHeap(t *testing.T) {
	var cal calendarQueue
	var heap eventHeap
	g := lcg(7)
	var seq uint64
	now := Time(0)
	for i := 0; i < 10000; i++ {
		if heap.Len() == 0 || g.next()%3 != 0 {
			seq++
			e := event{at: now + 1 + Time(g.next()%100000), seq: seq}
			cal.insert(e)
			heap.pushEvent(e)
		} else {
			now = heap.peek().at
			cal.pop()
			heap.popEvent()
		}
		if heap.Len() > 0 {
			mt, ok := cal.minTime()
			if !ok || mt != heap.peek().at {
				t.Fatalf("step %d: calendar min %v (ok=%v), heap min %v", i, mt, ok, heap.peek().at)
			}
		} else if _, ok := cal.minTime(); ok {
			t.Fatalf("step %d: calendar reports a minimum on an empty queue", i)
		}
	}
}

// TestPooledCompletionStaleFireDissolves is the sim half of the
// recycling drill: a fire scheduled against one life of a pooled
// completion must dissolve once the completion is recycled, not
// complete its next life.
func TestPooledCompletionStaleFireDissolves(t *testing.T) {
	k := New()
	c := k.GetCompletion()
	staleGen := c.Gen()
	c.FireAt(100) // scheduled against the current generation
	k.PutCompletion(c)

	c2 := k.GetCompletion()
	if c2 != c {
		t.Fatalf("pool did not recycle the completion")
	}
	if c2.Gen() == staleGen {
		t.Fatalf("recycle did not bump the generation")
	}
	fired := false
	k.Spawn("waiter", func(p *Proc) {
		p.Sleep(200) // outlive the stale fire's due time
		if c2.Fired() {
			fired = true
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatalf("stale FireAt from a previous life completed the recycled completion")
	}
	// Direct stale FireIf must be a no-op too.
	c2.FireIf(staleGen)
	if c2.Fired() {
		t.Fatalf("FireIf with a stale generation fired the completion")
	}
	c2.FireIf(c2.Gen())
	if !c2.Fired() {
		t.Fatalf("FireIf with the current generation did not fire")
	}
}

// benchTicker is a pooled self-rescheduling event record: each firing
// exercises the calendar insert (its own reschedule), the same-instant
// ring (the guarded completion fire), and the completion recycle path
// — the kernel's three hot paths.
type benchTicker struct {
	period    Duration
	remaining int
	c         *Completion
}

func (bt *benchTicker) RunEvent(k *Kernel) {
	bt.c.Init(k)       // new generation, as a pooled owner would
	bt.c.FireAt(k.now) // same-instant guarded fire through the ring
	if bt.remaining > 0 {
		bt.remaining--
		k.AtRun(k.now+bt.period, bt)
	}
}

func newBenchTickers(k *Kernel, n int) []*benchTicker {
	ts := make([]*benchTicker, n)
	for i := range ts {
		ts[i] = &benchTicker{period: Duration(900 + 37*i), c: k.GetCompletion()}
	}
	return ts
}

// simKernelRound schedules perTicker self-rescheduling ticks on every
// ticker and drains the kernel.
func simKernelRound(tb testing.TB, k *Kernel, ts []*benchTicker, perTicker int) {
	for _, bt := range ts {
		bt.remaining = perTicker - 1
		k.AtRun(k.Now()+bt.period, bt)
	}
	if err := k.Run(); err != nil {
		tb.Fatal(err)
	}
}

// TestSimKernelZeroAllocSteadyState is the zero-allocation gate run by
// scripts/check.sh: after one warm-up round fills the pools, a
// steady-state event storm must allocate nothing at all.
func TestSimKernelZeroAllocSteadyState(t *testing.T) {
	k := New()
	ts := newBenchTickers(k, 8)
	simKernelRound(t, k, ts, 64) // warm: rings, buckets, pools
	avg := testing.AllocsPerRun(10, func() {
		simKernelRound(t, k, ts, 128)
	})
	if avg != 0 {
		t.Fatalf("event kernel steady state allocates %.2f allocs per 1024-event round; want 0", avg)
	}

	// The same for a stepping proc: once parked in RunSteps, a round of
	// its waits of every kind — a sleep, a completion another event
	// fires, a deadline that expires — through deliver, step and the Arm
	// calls must allocate nothing either.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := &allocStepper{c: k.GetCompletion(), warm: 64, measured: 1024}
	k.Spawn("stepper", func(p *Proc) { p.RunSteps(s) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n := s.after.Mallocs - s.before.Mallocs; n != 0 || k.Resumes().Steps < uint64(s.measured) {
		t.Fatalf("a stepping proc allocates %d objects over %d steps (%+v); want 0", n, s.measured, k.Resumes())
	}
}

// allocStepper cycles through the three armed waits and reads the
// allocator's counters before and after its measured steps.
type allocStepper struct {
	c              *Completion
	n              int
	warm, measured int
	before, after  runtime.MemStats
}

func (s *allocStepper) Step(p *Proc) bool {
	switch s.n {
	case s.warm:
		runtime.ReadMemStats(&s.before)
	case s.warm + s.measured:
		runtime.ReadMemStats(&s.after)
		return true
	}
	s.n++
	switch s.n % 3 {
	case 0:
		p.ArmUntil(p.Now() + 5)
	case 1:
		s.c.Init(p.k)
		s.c.FireAt(p.Now() + 5)
		p.ArmWait(s.c)
	case 2:
		s.c.Init(p.k)
		p.ArmWaitTimeout(s.c, 5)
	}
	return false
}

// BenchmarkSimKernel measures the event kernel's per-event cost on the
// pooled steady state: one op is one ticker firing (one calendar
// insert + reschedule, one generation recycle, one same-instant fire).
func BenchmarkSimKernel(b *testing.B) {
	k := New()
	ts := newBenchTickers(k, 8)
	simKernelRound(b, k, ts, 64) // warm: rings, buckets, pools
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	for done < b.N {
		per := (b.N - done + len(ts) - 1) / len(ts)
		if per > 4096 {
			per = 4096
		}
		simKernelRound(b, k, ts, per)
		done += per * len(ts)
	}
}
