package sim

import (
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500 * Nanosecond, "500ns"},
		{2 * Microsecond, "2.000us"},
		{3 * Millisecond, "3.000ms"},
		{2 * Second, "2.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if got := (1500 * Millisecond).Seconds(); got != 1.5 {
		t.Errorf("Seconds() = %v, want 1.5", got)
	}
	if got := (2 * Millisecond).Microseconds(); got != 2000 {
		t.Errorf("Microseconds() = %v, want 2000", got)
	}
	if got := (3 * Second).Milliseconds(); got != 3000 {
		t.Errorf("Milliseconds() = %v, want 3000", got)
	}
}

func TestEventOrdering(t *testing.T) {
	k := New()
	var order []int
	k.At(20, func() { order = append(order, 2) })
	k.At(10, func() { order = append(order, 1) })
	k.At(30, func() { order = append(order, 3) })
	k.At(10, func() { order = append(order, 11) }) // same time: FIFO by seq
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 11, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("event order = %v, want %v", order, want)
		}
	}
	if k.Now() != 30 {
		t.Errorf("final time = %v, want 30", k.Now())
	}
}

func TestPastEventRunsNow(t *testing.T) {
	k := New()
	var ran Time = -1
	k.At(100, func() {
		k.At(50, func() { ran = k.Now() }) // scheduled in the past
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 100 {
		t.Errorf("past event ran at %v, want 100", ran)
	}
}

func TestProcSleep(t *testing.T) {
	k := New()
	var wake Time
	k.SpawnSteps("sleeper", &scriptStepper{ops: []waitOp{
		{kind: opSleep, d: 5 * Millisecond, then: func() { wake = k.Now() }},
	}})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if wake != 5*Millisecond {
		t.Errorf("woke at %v, want 5ms", wake)
	}
}

func TestProcInterleaving(t *testing.T) {
	k := New()
	var order []string
	k.SpawnSteps("a", &scriptStepper{ops: []waitOp{
		{kind: opSleep, d: 10, then: func() { order = append(order, "a10") }},
		{kind: opSleep, d: 20, then: func() { order = append(order, "a30") }},
	}})
	k.SpawnSteps("b", &scriptStepper{ops: []waitOp{
		{kind: opSleep, d: 20, then: func() { order = append(order, "b20") }},
	}})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a10", "b20", "a30"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestCompletionWaitBeforeFire(t *testing.T) {
	k := New()
	c := k.NewCompletion()
	var at, firedAt Time = -1, -1
	k.SpawnSteps("waiter", &scriptStepper{ops: []waitOp{
		{kind: opWait, c: c, then: func() { at = k.Now() }},
	}})
	c.OnFire(func() { firedAt = k.Now() })
	k.At(42, c.Fire)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 42 {
		t.Errorf("waiter resumed at %v, want 42", at)
	}
	if !c.Fired() || firedAt != 42 {
		t.Errorf("completion fired=%v at=%v, want true/42", c.Fired(), firedAt)
	}
}

func TestCompletionWaitAfterFire(t *testing.T) {
	k := New()
	c := k.NewCompletion()
	var at Time = -1
	k.SpawnSteps("waiter", &scriptStepper{ops: []waitOp{
		{kind: opSleep, d: 100},
		{kind: opWait, c: c, then: func() { at = k.Now() }}, // already fired: no block
	}})
	k.At(10, c.Fire)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 100 {
		t.Errorf("waiter resumed at %v, want 100", at)
	}
}

func TestCompletionDoubleFire(t *testing.T) {
	k := New()
	c := k.NewCompletion()
	fired := 0
	var firedAt Time
	c.OnFire(func() { fired, firedAt = fired+1, k.Now() })
	k.At(5, c.Fire)
	k.At(9, c.Fire)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Errorf("OnFire ran %d times, want 1", fired)
	}
	if firedAt != 5 {
		t.Errorf("fired at %v, want 5", firedAt)
	}
}

func TestCompletionOnFireAfterFired(t *testing.T) {
	k := New()
	c := k.NewCompletion()
	k.At(5, c.Fire)
	ran := false
	k.At(10, func() { c.OnFire(func() { ran = true }) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("OnFire registered after firing never ran")
	}
}

// TestCompletionSize pins the record every simulated wait goes
// through: an MPI request and a sched.Graph node embed one, and GoogLeNet
// holds 64 requests per rank at once, so a field added here multiplies.
func TestCompletionSize(t *testing.T) {
	if size := unsafe.Sizeof(Completion{}); size > 64 {
		t.Errorf("a Completion is %d bytes, want at most 64", size)
	}
}

// TestKernelSize: a Kernel stays in the 352-byte size class. A reduce
// sweep makes one per grid point, so a field that tips it into the next
// class costs every point 32 bytes.
func TestKernelSize(t *testing.T) {
	if size := unsafe.Sizeof(Kernel{}); size > 352 {
		t.Errorf("a Kernel is %d bytes, want at most 352", size)
	}
}

// TestCompletionSpillOrder gives one completion two inline waiters,
// three spilled ones and two callbacks: they resume in insertion order,
// the callbacks after every waiter. After Init a stale FireIf
// dissolves, and a second life of five waiters and two callbacks reuses
// the first life's spill record, allocating nothing.
func TestCompletionSpillOrder(t *testing.T) {
	k := New()
	c := k.NewCompletion()
	var order []string
	procs := make([]*Proc, 5)
	for i := range procs {
		name := "w" + strconv.Itoa(i)
		procs[i] = k.SpawnSteps(name, &scriptStepper{ops: []waitOp{
			{kind: opWait, c: c, then: func() { order = append(order, name) }},
		}})
	}
	cbs := []func(){
		func() { order = append(order, "cb0") },
		func() { order = append(order, "cb1") },
	}
	for _, fn := range cbs {
		c.OnFire(fn)
	}
	k.At(10, c.Fire)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(order, " "), "w0 w1 w2 w3 w4 cb0 cb1"; got != want {
		t.Fatalf("fire order %q, want %q", got, want)
	}

	stale := c.Gen()
	c.Init(k)
	c.FireIf(stale)
	if c.Fired() {
		t.Fatal("FireIf with the previous life's generation fired the completion")
	}
	if n := testing.AllocsPerRun(10, func() {
		c.Init(k)
		for i, p := range procs {
			c.addWaiter(waiter{p, uint64(i)})
		}
		for _, fn := range cbs {
			c.OnFire(fn)
		}
	}); n != 0 {
		t.Errorf("a second life of five waiters and two callbacks made %v allocations, want 0", n)
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := New()
	c := k.NewCompletion()
	k.SpawnSteps("stuck", &scriptStepper{ops: []waitOp{{kind: opWait, c: c}}})
	err := k.Run()
	if err == nil {
		t.Fatal("expected deadlock error, got nil")
	}
}

func TestDeadline(t *testing.T) {
	k := New()
	k.SetDeadline(100)
	sleeps := 0
	k.SpawnSteps("runaway", stepFunc(func(p *Proc) bool {
		if sleeps == 1000 {
			return true
		}
		sleeps++
		p.ArmUntil(p.Now() + 10)
		return false
	}))
	if err := k.Run(); err == nil {
		t.Fatal("expected deadline error, got nil")
	}
}

// stepFunc is a Stepper written as a function.
type stepFunc func(p *Proc) bool

func (f stepFunc) Step(p *Proc) bool { return f(p) }

// unwinding is a Stepper with an Unwind.
type unwinding struct {
	Stepper
	unwind func(p *Proc)
}

func (u unwinding) Unwind(p *Proc) { u.unwind(p) }

// TestQueueFIFO: getters that find the queue empty are resumed in the
// order they came, one per token put, each at the instant of its put —
// past the first, which waits inline, where the rest line up, and a
// getter that comes back for a second token goes behind them all.
func TestQueueFIFO(t *testing.T) {
	k := New()
	var q Queue
	q.Init(k, 0)
	type take struct {
		who string
		at  Time
	}
	var got []take
	for _, name := range []string{"a", "b", "c", "d"} {
		taken := 0
		k.SpawnSteps(name, stepFunc(func(p *Proc) bool {
			for ; taken < 2; taken++ {
				if !q.TryGet(p) {
					return false
				}
				got = append(got, take{name, p.Now()})
			}
			return true
		}))
	}
	put := 0
	k.SpawnSteps("producer", stepFunc(func(p *Proc) bool { // a token every 10ns
		if p.Now() > 0 {
			if !q.TryPut(p) {
				t.Fatal("TryPut on an unbounded queue reported full")
			}
			put++
		}
		if put == 8 {
			return true
		}
		p.ArmUntil(p.Now() + 10)
		return false
	}))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []take{{"a", 10}, {"b", 20}, {"c", 30}, {"d", 40}, {"a", 50}, {"b", 60}, {"c", 70}, {"d", 80}}
	if !slices.Equal(got, want) {
		t.Fatalf("getters took tokens as %v, want %v", got, want)
	}
	if q.Len() != 0 {
		t.Errorf("%d tokens left, want 0", q.Len())
	}
}

func TestQueueBounded(t *testing.T) {
	k := New()
	var q Queue
	q.Init(k, 1)
	var putDone Time
	n := 1
	k.SpawnSteps("producer", stepFunc(func(p *Proc) bool {
		for ; n <= 2; n++ {
			if !q.TryPut(p) { // the second waits until the consumer takes the first
				return false
			}
		}
		putDone = p.Now()
		return true
	}))
	slept, taken := false, 0
	k.SpawnSteps("consumer", stepFunc(func(p *Proc) bool {
		if !slept {
			slept = true
			p.ArmUntil(50)
			return false
		}
		for ; taken < 2; taken++ {
			if !q.TryGet(p) {
				return false
			}
		}
		return true
	}))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if putDone != 50 {
		t.Errorf("bounded TryPut went through at %v, want 50", putDone)
	}
}

// TestQueueKeepsItsBacking: a queue is a count of tokens and its
// waiting lines are consumed through a head index, so a long exchange
// allocates next to nothing — whether the queue drains between tokens
// (the waiting-getter line churns), stays full (the waiting-putter line
// does) or holds a steady backlog and never empties — and a waiter
// killed while it waited is still skipped, not woken in a live one's
// place: the consumer behind it takes the first token at its put.
func TestQueueKeepsItsBacking(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const items = 2000
	for _, tc := range []struct {
		name             string
		capacity, ahead  int // ahead: tokens put back to back before the producer paces itself
		produce, consume Duration
	}{
		{"drains", 0, 0, 3, 2},
		{"stays-full", 2, 0, 0, 3},
		{"never-empties", 0, 3, 3, 3},
	} {
		k := New()
		var q Queue
		q.Init(k, tc.capacity)
		ghost := k.SpawnSteps("ghost", stepFunc(func(p *Proc) bool { // first in line, on an empty queue
			return q.TryGet(p)
		}))
		k.At(2, ghost.Kill)
		put, paced := -1, true
		k.SpawnSteps("producer", stepFunc(func(p *Proc) bool {
			if put < 0 {
				put = 0
				p.ArmUntil(5)
				return false
			}
			for ; put < items; put++ {
				if !paced {
					paced = true
					p.ArmUntil(p.Now() + tc.produce)
					return false
				}
				if !q.TryPut(p) {
					return false
				}
				paced = put < tc.ahead || tc.produce == 0
			}
			return true
		}))
		next, slept, firstAt := 0, false, Time(-1)
		var before, after runtime.MemStats
		k.SpawnSteps("consumer", stepFunc(func(p *Proc) bool {
			for ; next < items; next++ {
				if !slept {
					slept = true
					d := tc.consume
					if next == 0 {
						d = 1 // in line behind the ghost
					}
					p.ArmUntil(p.Now() + d)
					return false
				}
				if next == 100 {
					runtime.ReadMemStats(&before)
				}
				if !q.TryGet(p) {
					return false
				}
				if next == 0 {
					firstAt = p.Now()
				}
				slept = false
			}
			runtime.ReadMemStats(&after)
			return true
		}))
		if err := k.Run(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if next != items {
			t.Fatalf("%s: consumer stopped at token %d", tc.name, next)
		}
		if firstAt != 5 {
			t.Errorf("%s: the first token, put at 5, was taken at %v: the killed ghost was woken in the consumer's place", tc.name, firstAt)
		}
		if n := after.Mallocs - before.Mallocs; n > 8 {
			t.Errorf("%s: %d objects allocated over the last %d tokens; the lines should be running in place", tc.name, n, items-100)
		}
	}
}

func TestResourceFIFO(t *testing.T) {
	var r Resource
	s1, e1 := r.Reserve(0, 10)
	if s1 != 0 || e1 != 10 {
		t.Fatalf("first reservation = [%v,%v], want [0,10]", s1, e1)
	}
	s2, e2 := r.Reserve(5, 10) // queued behind the first
	if s2 != 10 || e2 != 20 {
		t.Fatalf("second reservation = [%v,%v], want [10,20]", s2, e2)
	}
	s3, e3 := r.Reserve(100, 5) // idle gap
	if s3 != 100 || e3 != 105 {
		t.Fatalf("third reservation = [%v,%v], want [100,105]", s3, e3)
	}
	if r.BusyTotal() != 25 {
		t.Errorf("BusyTotal = %v, want 25", r.BusyTotal())
	}
	if r.FreeAt(50) != 105 {
		t.Errorf("FreeAt(50) = %v, want 105", r.FreeAt(50))
	}
	if r.FreeAt(200) != 200 {
		t.Errorf("FreeAt(200) = %v, want 200", r.FreeAt(200))
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		k := New()
		var log []Time
		for i := 0; i < 4; i++ {
			ops := make([]waitOp, 5)
			for j := range ops {
				ops[j] = waitOp{kind: opSleep, d: Duration(i*7 + 3), then: func() { log = append(log, k.Now()) }}
			}
			k.SpawnSteps("p", &scriptStepper{ops: ops})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestSpawnFromProc(t *testing.T) {
	k := New()
	var childAt Time
	k.SpawnSteps("parent", &scriptStepper{ops: []waitOp{
		{kind: opSleep, d: 10, then: func() {
			k.SpawnSteps("child", &scriptStepper{ops: []waitOp{
				{kind: opSleep, d: 5, then: func() { childAt = k.Now() }},
			}})
		}},
		{kind: opSleep, d: 100},
	}})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if childAt != 15 {
		t.Errorf("child finished at %v, want 15", childAt)
	}
}

// TestSpawnFromEventCallback is the elastic join path's primitive: a
// timed kernel event (not a proc) spawning a new proc mid-run, as
// ReviveRank does when a scheduled join event fires.
func TestSpawnFromEventCallback(t *testing.T) {
	k := New()
	var childAt, killedAt Time
	k.SpawnSteps("anchor", &scriptStepper{ops: []waitOp{{kind: opSleep, d: 40}}})
	victim := k.SpawnSteps("victim", unwinding{
		Stepper: &scriptStepper{ops: []waitOp{{kind: opSleep, d: 1000}}},
		unwind:  func(p *Proc) { killedAt = p.Now() },
	})
	k.At(5, victim.Kill)
	k.At(10, func() {
		k.SpawnSteps("respawned", &scriptStepper{ops: []waitOp{
			{kind: opSleep, d: 5, then: func() { childAt = k.Now() }},
		}})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if childAt != 15 {
		t.Errorf("respawned proc finished at %v, want 15", childAt)
	}
	if killedAt != 5 {
		t.Errorf("victim's unwind ran at %v, want 5 (a kill must unwind it)", killedAt)
	}
}

// TestYield: a step that arms its resume at the current instant lets the
// other events of the instant run first.
func TestYield(t *testing.T) {
	k := New()
	var order []string
	yielded := false
	k.SpawnSteps("a", stepFunc(func(p *Proc) bool {
		if !yielded {
			yielded = true
			order = append(order, "a1")
			p.ArmUntil(p.Now())
			return false
		}
		order = append(order, "a2")
		return true
	}))
	k.SpawnSteps("b", stepFunc(func(p *Proc) bool {
		order = append(order, "b1")
		return true
	}))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestStopHaltsLoop(t *testing.T) {
	k := New()
	count, slept := 0, false
	k.SpawnSteps("worker", stepFunc(func(p *Proc) bool {
		if slept {
			count++
			if count == 5 {
				k.Stop()
			}
		}
		if count == 100 {
			return true
		}
		slept = true
		p.ArmUntil(p.Now() + 10)
		return false
	}))
	_ = k.Run() // stopping mid-run leaves the proc parked; no panic
	if count < 5 || count > 6 {
		t.Errorf("Stop did not halt promptly: count = %d", count)
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	k := New()
	var at Time
	k.At(100, func() {
		k.After(50, func() { at = k.Now() })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 150 {
		t.Errorf("After fired at %v, want 150", at)
	}
}

func TestNegativeSleepYields(t *testing.T) {
	k := New()
	done := false
	k.SpawnSteps("p", &scriptStepper{ops: []waitOp{
		{kind: opSleep, d: -5, then: func() { done = true }}, // treated as a yield
	}})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !done || k.Now() != 0 {
		t.Errorf("negative sleep: done=%v now=%v", done, k.Now())
	}
}
