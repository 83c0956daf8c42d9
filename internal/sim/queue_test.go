package sim

import (
	"runtime"
	"runtime/debug"
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

// eventHeap is the original binary-heap event queue, kept as the
// reference ordering oracle for the calendar queue's differential
// tests.
type eventHeap []event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) peek() event { return h[0] }

func eventLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *eventHeap) pushEvent(e event) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(s[i], s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) popEvent() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{}
	s = s[:n]
	*h = s
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		min := left
		if right := left + 1; right < n && eventLess(s[right], s[left]) {
			min = right
		}
		if !eventLess(s[min], s[i]) {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}

// TestCalendarHeapDifferential drives the calendar queue and the
// legacy binary heap with identical randomized insert/pop schedules
// and requires identical pop order, every event out exactly once. The
// profiles cover the regimes the kernel produces: dense same-instant
// clusters, mixed near-future timers, and wide spreads that force table
// resizes and the year-scan fallback. One profile is about what the
// calendar does with its storage: rounds that flood the queue past
// several table doublings — scattered times plus same-instant waves long
// enough to chain slots — and drain it back through the halvings, so
// that every round runs on the slots and table entries the round before
// gave back, and nothing that was popped may come back.
//
// Some profiles hold events back the way the kernel carries a deadline
// timer to its reserved key: the event's seq is drawn when it is pushed,
// and it reaches the queue only later — at the latest just before the
// pop that would pass its key — so it goes in front of later-seq events
// already due at its instant, the current one included.
//
// The bimodal profile is the shape of a run whose waits carry deadlines:
// a dense cluster of events just ahead and a sparse cloud one timeout
// further, both advancing with the clock. The phases profile switches
// between near events spread wide and near events packed tight without
// the number pending changing much, which no resize by count notices.
// On both the calendar must keep its walk short: the mean number of
// instants find steps past per insert, resizes included, is gated
// (walk). The heap pays about 2 log n comparisons per operation; the
// calendar is allowed four links.
func TestCalendarHeapDifferential(t *testing.T) {
	profiles := []struct {
		name   string
		spread uint64  // max distance of an insert above current time
		burst  uint64  // probability (%) of inserting at exactly now+1
		wave   uint64  // probability (%) of inserting 3..42 events at one time
		cloud  uint64  // probability (%) of inserting one timeout (1<<20, plus up to 1/16 of it) ahead instead
		carry  uint64  // probability (%) that an insert is held back, to go in by seq order later
		phase  int     // every phase ops, the spread switches between spread and spread<<12
		ops    int     // per round
		rounds int     // each ends in a drain: to nothing, or to a remnant on odd rounds
		tables int     // the table must have been this many times minBuckets, and back
		walk   float64 // when positive, the most links per insert allowed
	}{
		{name: "dense-near", spread: 64, burst: 50, ops: 30000, rounds: 1, tables: 1},
		{name: "mixed", spread: 4096, burst: 10, carry: 5, ops: 30000, rounds: 1, tables: 1},
		{name: "wide-resize", spread: 1 << 40, ops: 20000, rounds: 1, tables: 1},
		{name: "clustered-jumps", spread: 1 << 20, burst: 70, carry: 5, ops: 30000, rounds: 1, tables: 1},
		{name: "recycle-across-resizes", spread: 1 << 8, wave: 8, carry: 3, ops: 1500, rounds: 12, tables: 8},
		{name: "bimodal", spread: 1 << 8, burst: 10, cloud: 30, carry: 10, ops: 60000, rounds: 1, tables: 1, walk: 4},
		{name: "phases", spread: 1 << 6, phase: 3000, ops: 60000, rounds: 1, tables: 1, walk: 4},
	}
	for _, pf := range profiles {
		t.Run(pf.name, func(t *testing.T) {
			var cal calendarQueue
			var heap eventHeap
			var held []event // pushed, not yet inserted
			g := lcg(0x5caffe + len(pf.name))
			var seq uint64
			now := Time(0)
			popped := []bool{true} // by seq; seq 0 is never issued
			minTable, maxTable := 1<<30, 0
			inserts := 0
			insert := func(e event) {
				cal.insert(e)
				heap.pushEvent(e)
				inserts++
			}
			push := func(at Time) {
				seq++
				popped = append(popped, false)
				e := event{at: at, seq: seq, aux: seq}
				if g.next()%100 < pf.carry {
					held = append(held, e)
					return
				}
				insert(e)
			}
			// release inserts the held events that must go in now: every
			// one ahead of the next pop, and a few at random before that.
			release := func() {
				kept := held[:0]
				for _, e := range held {
					if heap.Len() == 0 || eventLess(e, heap.peek()) || g.next()%8 == 0 {
						insert(e)
					} else {
						kept = append(kept, e)
					}
				}
				held = kept
			}
			pop := func(what string) {
				release()
				a, b := cal.pop(), heap.popEvent()
				if a.at != b.at || a.seq != b.seq || a.aux != a.seq {
					t.Fatalf("%s: calendar popped (at=%d seq=%d aux=%d), heap popped (at=%d seq=%d)",
						what, a.at, a.seq, a.aux, b.at, b.seq)
				}
				if a.seq >= uint64(len(popped)) || popped[a.seq] {
					t.Fatalf("%s: calendar popped seq %d, which was never pending or already popped", what, a.seq)
				}
				popped[a.seq] = true
				// Pops advance virtual time monotonically, exactly as
				// the kernel's event loop does.
				now = a.at
				minTable, maxTable = min(minTable, len(cal.buckets)), max(maxTable, len(cal.buckets))
			}
			pending := func() int { return heap.Len() + len(held) }
			for round := 0; round < pf.rounds; round++ {
				spread := pf.spread << (3 * uint(round%5)) // the width changes from round to round
				for i := 0; i < pf.ops; i++ {
					if r := g.next() % 100; pending() > 0 && r >= 60 {
						pop("ops")
						continue
					}
					at := now + 1 + Time(g.next()%spread)
					if pf.phase > 0 && i/pf.phase%2 == 1 {
						at = now + 1 + Time(g.next()%(spread<<12))
					}
					if g.next()%100 < pf.burst {
						at = now + 1
					}
					if g.next()%100 < pf.cloud {
						at = now + 1<<20 + Time(g.next()%(1<<16))
					}
					n := uint64(1)
					if g.next()%100 < pf.wave {
						n = 3 + g.next()%40
					}
					for ; n > 0; n-- {
						push(at)
					}
				}
				keep := 5 * (round % 2)
				for pending() > keep {
					pop("drain")
				}
				if cal.count != heap.Len() {
					t.Fatalf("round %d: calendar holds %d events, heap %d", round, cal.count, heap.Len())
				}
			}
			for pending() > 0 {
				pop("final drain")
			}
			if cal.count != 0 || cal.instants != 0 {
				t.Fatalf("drained calendar reports %d events at %d instants", cal.count, cal.instants)
			}
			for s, ok := range popped {
				if !ok {
					t.Fatalf("seq %d was inserted and never popped", s)
				}
			}
			if minTable != minBuckets || maxTable < pf.tables*minBuckets {
				t.Errorf("table ranged over %d..%d buckets; want %d and at least %d", minTable, maxTable, minBuckets, pf.tables*minBuckets)
			}
			walk := float64(cal.links) / float64(inserts)
			t.Logf("%d inserts, %.2f links per insert", inserts, walk)
			if pf.walk > 0 && walk > pf.walk {
				t.Errorf("inserts walked %.2f instants each on average, at most %.0f allowed", walk, pf.walk)
			}
			// Everything the queue ever carved is on the free list again,
			// with nothing of its last use left in it.
			free := 0
			for s := cal.free; s != nil; s = s.next {
				free++
				clean := s.h == 0 && s.n == 0 && s.more == nil && s.last == nil
				for _, e := range s.ev {
					clean = clean && e.at == 0 && e.seq == 0 && e.aux == 0
				}
				if !clean {
					t.Fatalf("free slot %d is not clean: %+v", free, *s)
				}
			}
			if free != cal.carved {
				t.Errorf("%d of %d carved slots are on the free list of an empty queue", free, cal.carved)
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

// guardedFire is how a pooled owner fires its completion later: a
// Runnable scheduled with the generation it saw, so that recycling the
// completion in between dissolves the fire (Completion.FireIf).
type guardedFire struct {
	c   *Completion
	gen uint64
}

func (f *guardedFire) RunEvent(*Kernel) { f.c.FireIf(f.gen) }

// at schedules c to fire at t unless it is recycled first.
func (f *guardedFire) at(k *Kernel, t Time, c *Completion) {
	f.c, f.gen = c, c.Gen()
	k.AtRun(t, f)
}

// TestPooledCompletionStaleFireDissolves is the sim half of the
// recycling drill: a fire scheduled against one life of a pooled
// completion must dissolve once the completion is recycled, not
// complete its next life.
func TestPooledCompletionStaleFireDissolves(t *testing.T) {
	k := New()
	c := k.GetCompletion()
	staleGen := c.Gen()
	new(guardedFire).at(k, 100, c) // scheduled against the current generation
	k.PutCompletion(c)

	c2 := k.GetCompletion()
	if c2 != c {
		t.Fatalf("pool did not recycle the completion")
	}
	if c2.Gen() == staleGen {
		t.Fatalf("recycle did not bump the generation")
	}
	fired := false
	k.SpawnSteps("waiter", &scriptStepper{ops: []waitOp{
		{kind: opSleep, d: 200, then: func() { fired = c2.Fired() }}, // outlive the stale fire's due time
	}})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatalf("stale fire from a previous life completed the recycled completion")
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
	fire      guardedFire
}

func (bt *benchTicker) RunEvent(k *Kernel) {
	bt.c.Init(k)               // new generation, as a pooled owner would
	bt.fire.at(k, k.now, bt.c) // same-instant guarded fire through the ring
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

	// The same for a stepping proc: a round of its waits of every kind —
	// a sleep, a completion another event fires, a deadline that expires
	// — through deliver, step and the Arm calls must allocate nothing
	// either.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	k = New()
	s := &allocStepper{c: k.GetCompletion(), warm: 64, measured: 1024}
	k.SpawnSteps("stepper", s)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n, r := s.after.Mallocs-s.before.Mallocs, k.Resumes(); n != 0 || r.Steps < uint64(s.measured) {
		t.Fatalf("a stepping proc allocates %d objects over %d steps (%+v); want 0", n, s.measured, r)
	}
}

// waveDriver is the marching-wave load: every wave is waveSize events due
// at one instant, the instants an irregular distance apart so that wave
// after wave lands in a bucket no wave has used, while a few hundred
// background tickers at scattered periods keep the bucket table wide.
type waveDriver struct {
	g              lcg
	tick           nopTick
	wave           int
	warm, measured int
	landed         []bool // by bucket: a measured wave fell in it
	before, after  runtime.MemStats
}

const waveSize = 512

type nopTick struct{ n int }

func (t *nopTick) RunEvent(*Kernel) { t.n++ }

// RunEvent runs at a wave's instant, behind the wave: it schedules the
// next one.
func (d *waveDriver) RunEvent(k *Kernel) {
	switch d.wave {
	case d.warm:
		readMemStatsQuiet(&d.before)
	case d.warm + d.measured:
		runtime.ReadMemStats(&d.after)
		k.Stop()
		return
	}
	d.wave++
	at := k.now + 500 + Time(d.g.next()%20000)
	for i := 0; i < waveSize; i++ {
		k.AtRun(at, &d.tick)
	}
	k.AtRun(at, d)
	if d.wave > d.warm {
		d.landed[int(at/k.cal.width)&k.cal.mask] = true
	}
}

// TestSimKernelMarchingWavesZeroAlloc pins the calendar's storage rule,
// which the steady-state test above cannot see because its eight tickers
// come back to the same buckets: capacity belongs to the queue, not to
// the bucket an event happens to fall in. Once three waves have sized the
// pool, a wave allocates nothing wherever in the table it lands. Part of
// the scripts/check.sh zero-alloc gate.
func TestSimKernelMarchingWavesZeroAlloc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	k := New()
	ts := make([]*benchTicker, 300)
	for i := range ts {
		ts[i] = &benchTicker{period: Duration(40000 + 977*i), remaining: 1 << 30, c: k.GetCompletion()}
		k.AtRun(ts[i].period, ts[i])
	}
	d := &waveDriver{g: 0x3a7e, warm: 3, measured: 200, landed: make([]bool, 1<<12)}
	k.AtRun(ts[len(ts)-1].period+1, d) // every ticker has fired once: the table is as wide as it gets
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := (d.warm + d.measured) * waveSize; d.tick.n != want {
		t.Fatalf("%d wave events ran, want %d", d.tick.n, want)
	}
	distinct := 0
	for _, hit := range d.landed {
		if hit {
			distinct++
		}
	}
	if len(k.cal.buckets) < 128 || distinct < d.measured/2 {
		t.Fatalf("%d waves landed in %d distinct buckets of %d; the test needs a wide table and marching waves",
			d.measured, distinct, len(k.cal.buckets))
	}
	if n := d.after.Mallocs - d.before.Mallocs; n != 0 {
		t.Fatalf("%d waves of %d same-instant events allocated %d objects (%d bytes) after warm-up; want 0",
			d.measured, waveSize, n, d.after.TotalAlloc-d.before.TotalAlloc)
	}
}

// readMemStatsQuiet reads the allocator's counters after returning every
// free page to the OS. Memory that earlier tests freed is otherwise
// returned by the runtime's background scavenger on its own schedule,
// and each time it sleeps it re-arms a timer in the P's timer heap,
// whose growth is a heap allocation (16 or 32 bytes) that a measured
// window would count as its own. With nothing left to scavenge the
// scavenger parks instead.
func readMemStatsQuiet(m *runtime.MemStats) {
	debug.FreeOSMemory()
	runtime.ReadMemStats(m)
}

// allocStepper cycles through the three armed waits and reads the
// allocator's counters before and after its measured steps.
type allocStepper struct {
	c              *Completion
	fire           guardedFire
	n              int
	warm, measured int
	before, after  runtime.MemStats
}

func (s *allocStepper) Step(p *Proc) bool {
	switch s.n {
	case s.warm:
		readMemStatsQuiet(&s.before)
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
		s.fire.at(p.k, p.Now()+5, s.c)
		p.ArmWaitTimeout(s.c, Never)
	case 2:
		s.c.Init(p.k)
		p.ArmWaitTimeout(s.c, 5)
	}
	return false
}
