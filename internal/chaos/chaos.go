// Package chaos is the fault-fuzzing plane: it turns a small seeded
// spec into a random — but fully deterministic — fault schedule over
// every injectable event family (crash, hang, straggle, and the wire
// family: drop, dup, reorder, delay, partition), runs it through the
// engine, and machine-verifies the invariants the runtime promises:
//
//   - every run terminates finished or ErrUnrecovered inside a hard
//     virtual-time ceiling — a schedule can slow a run down, never
//     wedge it;
//   - the fault report's counters stay consistent with the schedule
//     (no counter exceeds its scheduled budget, no loss escalation
//     without scheduled loss);
//   - outcomes are bit-identical across GOMAXPROCS settings;
//   - a schedule shifted beyond the end of the run perturbs nothing.
//
// Generation is a pure function of the spec: the same seed always
// yields the same schedule, so every chaos failure is replayable from
// its one-line summary.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"

	"scaffe/internal/coll"
	"scaffe/internal/core"
	"scaffe/internal/data"
	"scaffe/internal/fault"
	"scaffe/internal/layers"
	"scaffe/internal/models"
	"scaffe/internal/sim"
)

// Weights is the event-mix of a chaos spec: the relative probability
// of each schedulable family. Zero weights exclude a family.
type Weights struct {
	Crash, Hang, Straggle     float64
	Drop, Dup, Reorder, Delay float64
	Partition                 float64
}

// DefaultWeights leans toward the wire family (the cheap, always-
// recoverable perturbations) with a steady minority of rank-level
// failures and partitions.
func DefaultWeights() Weights {
	return Weights{
		Crash: 1, Hang: 0.5, Straggle: 1,
		Drop: 2, Dup: 2, Reorder: 2, Delay: 2,
		Partition: 1,
	}
}

func (w Weights) total() float64 {
	return w.Crash + w.Hang + w.Straggle + w.Drop + w.Dup + w.Reorder + w.Delay + w.Partition
}

// pick draws one event kind by weight. The Straggle and Partition
// picks expand to paired/windowed events in the generator.
func (w Weights) pick(r *rand.Rand) fault.Kind {
	x := r.Float64() * w.total()
	for _, c := range []struct {
		weight float64
		kind   fault.Kind
	}{
		{w.Crash, fault.Crash},
		{w.Hang, fault.Hang},
		{w.Straggle, fault.StragglerOn},
		{w.Drop, fault.Drop},
		{w.Dup, fault.Dup},
		{w.Reorder, fault.Reorder},
		{w.Delay, fault.Delay},
		{w.Partition, fault.Partition},
	} {
		if x < c.weight {
			return c.kind
		}
		x -= c.weight
	}
	return fault.Drop
}

// Spec parameterizes one chaos run. The zero value is not runnable;
// use Default or fill every field.
type Spec struct {
	// Ranks and Iterations size the training run.
	Ranks, Iterations int
	// Seed drives schedule generation; the schedule is a pure
	// function of the whole spec.
	Seed int64
	// Events is the number of weighted draws (straggles and
	// partitions expand to their window pairs on top).
	Events int
	// Weights is the event mix (zero value = DefaultWeights).
	Weights Weights
	// Real selects real-compute mode on the tiny net; false runs the
	// timing-only cifar10-quick model (much faster — the gate's bulk).
	Real bool
	// Design and Reduce select the training design and reducer
	// family (zero values = SC-B over the binomial tree).
	Design core.Design
	Reduce coll.Algorithm
}

// Default returns the gate's baseline spec for a seed: an 8-rank
// timing run with the default mix.
func Default(seed int64) Spec {
	return Spec{Ranks: 8, Iterations: 8, Seed: seed, Events: 6}
}

func (s Spec) String() string {
	mode := "timing"
	if s.Real {
		mode = "real"
	}
	return fmt.Sprintf("seed=%d ranks=%d iters=%d events=%d mode=%s", s.Seed, s.Ranks, s.Iterations, s.Events, mode)
}

// withDefaults fills zero fields.
func (s Spec) withDefaults() Spec {
	if s.Ranks == 0 {
		s.Ranks = 8
	}
	if s.Iterations == 0 {
		s.Iterations = 8
	}
	if s.Events == 0 {
		s.Events = 6
	}
	if s.Weights == (Weights{}) {
		s.Weights = DefaultWeights()
	}
	return s
}

// Config builds the training config a chaos run fuzzes (without the
// schedule — Run attaches it after calibrating against the fault-free
// baseline).
func (s Spec) Config() core.Config {
	s = s.withDefaults()
	if s.Real {
		net := models.BuildTinyNet(1, 1)
		return core.Config{
			Spec:        models.SpecFromNet(net),
			RealNet:     models.BuildTinyNet,
			Dataset:     data.NewSynthetic("tiny", layers.Shape{C: 3, H: 8, W: 8}, 4, 4096, 11),
			GPUs:        s.Ranks,
			Nodes:       2,
			GPUsPerNode: (s.Ranks + 1) / 2,
			GlobalBatch: 4 * s.Ranks,
			Iterations:  s.Iterations,
			Design:      s.Design,
			Reduce:      s.Reduce,
			Source:      core.MemorySource,
			Seed:        7,
			BaseLR:      0.05,
			Momentum:    0.9,

			CaptureFinalParams: true,
		}
	}
	spec, err := models.ByName("cifar10-quick")
	if err != nil {
		panic(err) // a registered model; unreachable
	}
	return core.Config{
		Spec:        spec,
		GPUs:        s.Ranks,
		Nodes:       2,
		GPUsPerNode: (s.Ranks + 1) / 2,
		GlobalBatch: 8 * s.Ranks,
		Iterations:  s.Iterations,
		Design:      s.Design,
		Reduce:      s.Reduce,
		Source:      core.MemorySource,
		Seed:        1,
	}
}

// Schedule generates the spec's fault schedule over a run expected to
// last `horizon` of virtual time. Pure function of (spec, horizon):
// the generator never consults the clock or global randomness.
func (s Spec) Schedule(horizon sim.Duration) fault.Schedule {
	s = s.withDefaults()
	rng := rand.New(rand.NewSource(s.Seed))
	lo := sim.Time(float64(horizon) * 0.15)
	hi := sim.Time(float64(horizon) * 0.85)
	at := func() sim.Time { return lo + sim.Time(rng.Float64()*float64(hi-lo)) }

	var sched fault.Schedule
	failStopped := make([]bool, s.Ranks)
	// failBudget keeps a strict minority of fail-stops, so runs stay
	// recoverable by construction; ErrUnrecovered outcomes still
	// happen through non-quorate partitions.
	failBudget := (s.Ranks - 1) / 2
	// Partition windows on the same cut must not overlap
	// (fault.Schedule.Validate rejects them); serializing all windows
	// satisfies that for any grouping.
	partCursor := sim.Time(0)

	pickRank := func() int { return rng.Intn(s.Ranks) }
	pickLink := func() (int, int) {
		src := rng.Intn(s.Ranks)
		dst := rng.Intn(s.Ranks - 1)
		if dst >= src {
			dst++
		}
		return src, dst
	}

	for i := 0; i < s.Events; i++ {
		kind := s.Weights.pick(rng)
		t := at()
		switch kind {
		case fault.Crash, fault.Hang:
			if failBudget == 0 {
				kind = fault.Drop // fall through to the wire case below
				break
			}
			rank := pickRank()
			for failStopped[rank] {
				rank = (rank + 1) % s.Ranks
			}
			failStopped[rank] = true
			failBudget--
			sched = append(sched, fault.Event{At: t, Kind: kind, Rank: rank})
			if rng.Float64() < 0.5 {
				// Half the fail-stops come back through the join desk.
				rejoin := t + sim.Time(float64(horizon)*(0.1+float64(0.3*rng.Float64())))
				sched = append(sched, fault.Event{At: rejoin, Kind: fault.Join, Rank: rank})
				failStopped[rank] = false
			}
			continue
		case fault.StragglerOn:
			rank := pickRank()
			factor := 2 + float64(6*rng.Float64())
			off := t + sim.Time(float64(horizon)*(0.05+float64(0.2*rng.Float64())))
			sched = append(sched,
				fault.Event{At: t, Kind: fault.StragglerOn, Rank: rank, Factor: factor},
				fault.Event{At: off, Kind: fault.StragglerOff, Rank: rank})
			continue
		case fault.Partition:
			window := sim.Duration(float64(horizon) * (0.05 + float64(0.2*rng.Float64())))
			if t < partCursor {
				t = partCursor + 1
			}
			partCursor = t + sim.Time(window)
			sched = append(sched, fault.Event{At: t, Kind: fault.Partition, Groups: splitGroups(rng, s.Ranks), For: window})
			continue
		}
		// The wire singles: drop/dup/reorder/delay on a random link.
		src, dst := pickLink()
		ev := fault.Event{At: t, Kind: kind, Src: src, Dst: dst, N: 1 + rng.Intn(3)}
		if kind == fault.Delay {
			ev.For = sim.Duration(float64(horizon) * (0.01 + float64(0.05*rng.Float64())))
		}
		sched = append(sched, ev)
	}
	sort.SliceStable(sched, func(i, j int) bool { return sched[i].At < sched[j].At })
	return sched
}

// splitGroups cuts a random nonempty subset of the world (at least 2
// ranks) into two nonempty sides.
func splitGroups(rng *rand.Rand, ranks int) [][]int {
	perm := rng.Perm(ranks)
	k := 2 + rng.Intn(ranks-1) // 2..ranks listed
	cut := 1 + rng.Intn(k-1)   // both sides nonempty
	a := append([]int(nil), perm[:cut]...)
	b := append([]int(nil), perm[cut:k]...)
	return [][]int{a, b}
}

// Outcome classifies how a chaos run ended.
type Outcome int

const (
	// Finished: the run trained to completion.
	Finished Outcome = iota
	// Unrecovered: injected failures legitimately killed the run
	// (core.ErrUnrecovered) — an allowed terminal state.
	Unrecovered
	// Wedged: the run hit the virtual-time ceiling or died with an
	// unexpected error — always an invariant violation.
	Wedged
)

func (o Outcome) String() string {
	switch o {
	case Finished:
		return "finished"
	case Unrecovered:
		return "unrecovered"
	}
	return "wedged"
}

// RunResult is one chaos run's outcome plus everything needed to
// verify and replay it.
type RunResult struct {
	Spec     Spec
	Schedule fault.Schedule
	Outcome  Outcome
	Res      *core.Result
	Err      error
}

// Summary is the one-line, machine-greppable record of the run.
func (r *RunResult) Summary() string {
	s := fmt.Sprintf("chaos %s outcome=%s events=%d", r.Spec.String(), r.Outcome, len(r.Schedule))
	if r.Res != nil && r.Res.Fault != nil {
		s += " " + r.Res.Fault.String()
	}
	if r.Err != nil {
		s += fmt.Sprintf(" err=%q", r.Err)
	}
	return s
}

// Run executes one chaos spec: calibrate a fault-free baseline,
// generate the schedule over its length, arm a hard virtual-time
// ceiling, and classify the outcome. The returned error reports
// harness-level failures (bad spec/config); schedule-induced deaths
// land in RunResult.Outcome instead.
func Run(s Spec) (*RunResult, error) {
	s = s.withDefaults()
	cfg := s.Config()
	base, err := core.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("chaos: baseline run: %w", err)
	}
	horizon := sim.Duration(base.TotalTime)
	sched := s.Schedule(horizon)

	cfg.Faults = sched
	// A detection quantum well under the horizon keeps the loss-aware
	// escalation (47 quanta) inside the ceiling even when every
	// scheduled loss escalates separately.
	cfg.FaultTimeout = quantumFor(horizon)
	cfg.MaxVirtualTime = ceilingFor(horizon, len(sched))
	res, err := core.Run(cfg)
	if errors.Is(err, core.ErrConfig) {
		// E.g. a design no fault schedule may run on: the spec parser
		// takes every design name, Config validation decides.
		return nil, fmt.Errorf("chaos: %w", err)
	}

	r := &RunResult{Spec: s, Schedule: sched, Res: res}
	switch {
	case err == nil:
		r.Outcome = Finished
	case errors.Is(err, core.ErrUnrecovered):
		r.Outcome = Unrecovered
		r.Err = err
	default:
		r.Outcome = Wedged
		r.Err = err
	}
	return r, nil
}

// quantumFor picks the failure-detection quantum for a run of the
// given fault-free length: 1/200th of the run, floored at 1µs.
func quantumFor(horizon sim.Duration) sim.Duration {
	q := horizon / 200
	if q < sim.Microsecond {
		q = sim.Microsecond
	}
	return q
}

// ceilingFor is the no-wedge virtual-time ceiling: generous slack for
// per-event escalation ladders and replay, scaled by schedule size.
func ceilingFor(horizon sim.Duration, events int) sim.Duration {
	return horizon*sim.Duration(10+4*events) + 100*47*quantumFor(horizon)
}

// Verify runs the spec and checks every per-run invariant: the
// termination contract and the counter/schedule consistency rules.
// The RunResult comes back even when verification fails, so callers
// can print the replayable summary.
func Verify(s Spec) (*RunResult, error) {
	r, err := Run(s)
	if err != nil {
		return nil, err
	}
	if r.Outcome == Wedged {
		return r, fmt.Errorf("chaos: %s: run wedged: %v", s, r.Err)
	}
	// Unrecovered runs die without a result; there is no report left
	// to check.
	if r.Outcome == Finished {
		if err := CheckCounters(r); err != nil {
			return r, fmt.Errorf("chaos: %s: %w", s, err)
		}
	}
	return r, nil
}

// CheckCounters verifies the fault report against the schedule: every
// counter must stay inside its scheduled budget, and escalations must
// be justified by scheduled loss.
func CheckCounters(r *RunResult) error {
	if r.Res == nil || r.Res.Fault == nil {
		return errors.New("no fault report on an armed run")
	}
	rep := r.Res.Fault
	var crashes, hangs, drops, dups, reorders, delays, parts int
	for _, ev := range r.Schedule {
		switch ev.Kind {
		case fault.Crash:
			crashes++
		case fault.Hang:
			hangs++
		case fault.Drop:
			drops += ev.N
		case fault.Dup:
			dups += ev.N
		case fault.Reorder:
			reorders += ev.N
		case fault.Delay:
			delays += ev.N
		case fault.Partition:
			parts++
		}
	}
	var errs []string
	check := func(name string, got, budget int) {
		if got > budget {
			errs = append(errs, fmt.Sprintf("%s=%d exceeds scheduled budget %d", name, got, budget))
		}
	}
	check("crashes", rep.Crashes, crashes)
	check("hangs", rep.Hangs, hangs)
	check("drops", rep.Drops, drops)
	check("dups", rep.Dups, dups)
	check("reorders", rep.Reorders, reorders)
	check("delays", rep.Delays, delays)
	check("fenced", rep.Fenced, r.Spec.Ranks)
	if rep.Injected > len(r.Schedule) {
		errs = append(errs, fmt.Sprintf("injected=%d exceeds schedule length %d", rep.Injected, len(r.Schedule)))
	}
	if parts == 0 && rep.PartitionDrops > 0 {
		errs = append(errs, fmt.Sprintf("partition-drops=%d with no scheduled partition", rep.PartitionDrops))
	}
	if parts == 0 && rep.Fenced > 0 {
		errs = append(errs, fmt.Sprintf("fenced=%d with no scheduled partition", rep.Fenced))
	}
	if rep.Drops+rep.PartitionDrops == 0 && rep.WireRevokes > 0 {
		errs = append(errs, fmt.Sprintf("wire-revokes=%d with no lost traffic", rep.WireRevokes))
	}
	if rep.Survivors < 0 || rep.Survivors > r.Spec.Ranks {
		errs = append(errs, fmt.Sprintf("survivors=%d outside [0,%d]", rep.Survivors, r.Spec.Ranks))
	}
	if r.Outcome == Finished && rep.Survivors == 0 {
		errs = append(errs, "finished with zero survivors")
	}
	if len(errs) > 0 {
		return fmt.Errorf("counter check: %s (report %v)", strings.Join(errs, "; "), rep)
	}
	return nil
}

// RunMatrix verifies GOMAXPROCS-invariance: the spec's run must yield
// a bit-identical virtual-time outcome (total time and full fault
// report) at every requested parallelism.
func RunMatrix(s Spec, procs []int) (*RunResult, error) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var first *RunResult
	for _, p := range procs {
		runtime.GOMAXPROCS(p)
		r, err := Verify(s)
		if err != nil {
			return r, fmt.Errorf("GOMAXPROCS=%d: %w", p, err)
		}
		if first == nil {
			first = r
			continue
		}
		if r.Outcome != first.Outcome {
			return r, fmt.Errorf("GOMAXPROCS=%d: outcome %s != %s", p, r.Outcome, first.Outcome)
		}
		if r.Res == nil || first.Res == nil {
			// Unrecovered runs die without a result; matching outcomes
			// is all there is to compare.
			continue
		}
		if r.Res.TotalTime != first.Res.TotalTime {
			return r, fmt.Errorf("GOMAXPROCS=%d: total time %v != %v", p, r.Res.TotalTime, first.Res.TotalTime)
		}
		if !reflect.DeepEqual(r.Res.Fault, first.Res.Fault) {
			return r, fmt.Errorf("GOMAXPROCS=%d: fault report diverged:\n%+v\n%+v", p, r.Res.Fault, first.Res.Fault)
		}
	}
	return first, nil
}

// ArmedUntripped verifies the zero-perturbation invariant: the spec's
// schedule shifted far past the end of the run must leave the
// virtual-time outcome byte-identical to an armed-but-idle plane.
func ArmedUntripped(s Spec) error {
	s = s.withDefaults()
	cfg := s.Config()
	base, err := core.Run(cfg)
	if err != nil {
		return fmt.Errorf("chaos: baseline run: %w", err)
	}
	far := base.TotalTime * 1000

	idle := s.Config()
	idle.Faults = fault.Schedule{{At: far, Kind: fault.StragglerOff, Rank: 0}}
	a, err := core.Run(idle)
	if err != nil {
		return fmt.Errorf("chaos: armed-idle run: %w", err)
	}

	armed := s.Config()
	sched := s.Schedule(sim.Duration(base.TotalTime))
	for i := range sched {
		sched[i].At += far
	}
	armed.Faults = sched
	b, err := core.Run(armed)
	if err != nil {
		return fmt.Errorf("chaos: armed-untripped run: %w", err)
	}

	if a.TotalTime != b.TotalTime {
		return fmt.Errorf("chaos: %s: untripped schedule changed total time: %v vs %v", s, b.TotalTime, a.TotalTime)
	}
	if !reflect.DeepEqual(a.Losses, b.Losses) {
		return fmt.Errorf("chaos: %s: untripped schedule changed the loss curve", s)
	}
	if !reflect.DeepEqual(a.FinalParams, b.FinalParams) {
		return fmt.Errorf("chaos: %s: untripped schedule changed the final parameters", s)
	}
	rep := b.Fault
	if rep.Drops+rep.Dups+rep.Reorders+rep.Delays+rep.PartitionDrops+rep.Fenced != 0 || len(rep.Recoveries) != 0 {
		return fmt.Errorf("chaos: %s: untripped schedule reported activity: %v", s, rep)
	}
	return nil
}
