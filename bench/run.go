package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// options is one invocation's settings for one workload.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	outDir   string // where the span file goes: spanDir, or a test's own
}

// spanDir is where a traced run writes its span file, beside the build
// outputs that .gitignore already names.
const spanDir = ".bench_build"

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result of one run of one workload; its JSON form is the
// last line of standard output.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	text []string // the human-readable lines, printed before the JSON
}

func (r *report) printf(format string, args ...any) {
	r.text = append(r.text, fmt.Sprintf(format, args...))
}

// sample is one timed repetition.
type sample struct {
	wall    float64 // host seconds
	allocMB float64 // runtime.MemStats.TotalAlloc delta
	allocs  float64 // runtime.MemStats.Mallocs delta
	gcs     float64 // runtime.MemStats.NumGC delta
	res     repResult
}

// timedRep runs one repetition between two readings of the clock and the
// allocator. The collection before it starts every rep from the same
// heap state and stays outside the timed window.
func timedRep(w workload, sp *spans) sample {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t := time.Now()
	id := sp.begin("rep")
	res := w.rep(sp)
	sp.end(id)
	wall := time.Since(t).Seconds()
	runtime.ReadMemStats(&m1)
	return sample{
		wall:    wall,
		allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6,
		allocs:  float64(m1.Mallocs - m0.Mallocs),
		gcs:     float64(m1.NumGC - m0.NumGC),
		res:     res,
	}
}

func column(ss []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

func wallOf(s sample) float64 { return s.wall }

// checker accumulates the output checks of a run.
type checker struct {
	attempted, failed int
	notes             []string
	reps              int
	digest            string // the first rep's virtual outputs
}

// add folds one rep's checks in, including the determinism check: every
// rep must reproduce the first one's virtual outputs.
func (c *checker) add(res repResult) {
	c.attempted += res.ops
	c.failed += res.failed
	c.notes = append(c.notes, res.notes...)
	if c.reps == 0 {
		c.digest = res.digest
	} else if res.digest != c.digest {
		c.failed++
		c.notes = append(c.notes, fmt.Sprintf("rep %d: virtual outputs differ from the first rep's on the same inputs", c.reps))
	}
	c.reps++
}

// Repetition floors. Timings are medians over the timed reps, so a run
// never has fewer than five however short --seconds is; a traced run
// splits its time between untraced reps (the base of trace.overhead_frac)
// and traced ones.
const (
	setupRounds   = 3
	minTimedReps  = 5
	minTracedReps = 3
)

// runWorkload performs one run: set-up, the timed closed loop, and in a
// traced run the traced reps and the workload's ladder.
func runWorkload(o options, start time.Time) (*report, error) {
	decl, ok := workloadByName(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	rep := &report{Metrics: map[string]value{}}
	var chk checker
	if decl.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(decl.procs))
		rep.printf("GOMAXPROCS %d while this workload runs (see decl.go)", decl.procs)
	}

	// Set-up: inputs from the seed, the single-worker baseline and one
	// untimed warm-up rep. It is done several times over so that setup_s
	// is a median like every other timing; the first round carries the
	// process start, the heap growing to its working size and cold pools.
	rounds := setupRounds
	if o.smoke || o.trace {
		rounds = 1
	}
	var w workload
	var setups []float64
	for r := 0; r < rounds; r++ {
		t := time.Now()
		if r == 0 {
			t = start
		}
		w = decl.new()
		if err := w.setup(o.seed, o.smoke); err != nil {
			return nil, err
		}
		warm := w.rep(nil)
		if r > 0 {
			warm.ops = 0 // the same warm-up again: its checks count, its ops do not
		}
		chk.add(warm)
		setups = append(setups, time.Since(t).Seconds())
	}

	// The timed loop: closed, one client, tracing off.
	minReps, budget := minTimedReps, o.seconds
	if o.trace {
		minReps, budget = minTracedReps, o.seconds/2
	}
	if o.smoke {
		minReps, budget = 1, 0
	}
	var timed []sample
	for t := time.Now(); len(timed) < minReps || time.Since(t).Seconds() < budget; {
		s := timedRep(w, nil)
		chk.add(s.res)
		timed = append(timed, s)
	}
	walls := column(timed, wallOf)
	if !o.smoke {
		for _, n := range checkPins(o.workload, o.seed, timed[0].res.virt) {
			chk.failed++
			chk.notes = append(chk.notes, n)
		}
	}

	if !o.trace {
		endToEndMetrics(rep, setups, timed)
	} else {
		if err := tracedRun(o, w, rep, &chk, timed, minReps, budget); err != nil {
			return nil, err
		}
	}

	lo, hi := minMax(walls)
	rep.printf("reps: %d timed, wall median %.4f s (min %.4f, max %.4f), in order %.4f", len(timed), median(walls), lo, hi, walls)
	for _, line := range timed[0].res.info {
		rep.printf("%s", line)
	}
	rep.printf("ops: %d  ops_failed: %d", chk.attempted, chk.failed)
	for _, n := range chk.notes {
		rep.printf("FAILED: %s", n)
	}
	rep.Attempted, rep.Failed = chk.attempted, chk.failed
	rep.Correct = chk.failed == 0
	return rep, nil
}

// endToEndMetrics fills every end-to-end metric from the untraced reps.
func endToEndMetrics(rep *report, setups []float64, timed []sample) {
	first := timed[0].res
	for _, d := range endToEnd {
		var xs []float64
		switch d.Name {
		case "setup_s":
			xs = setups
		case "wall_s":
			xs = column(timed, wallOf)
		case "alloc_mb":
			xs = column(timed, func(s sample) float64 { return s.allocMB })
		case "allocs":
			xs = column(timed, func(s sample) float64 { return s.allocs })
		default:
			// Virtual metrics repeat exactly (the checker has compared
			// the reps), so the first rep speaks for all.
			v, ok := first.virt[d.Name]
			if !ok {
				v = notMeasured
			}
			rep.Metrics[d.Name] = value{v, d.Unit}
			rep.printf("%-26s %14.6f %-8s", d.Name, v, d.Unit)
			continue
		}
		lo, hi := minMax(xs)
		rep.Metrics[d.Name] = value{median(xs), d.Unit}
		rep.printf("%-26s %14.6f %-8s (min %.6f, max %.6f, n=%d)", d.Name, median(xs), d.Unit, lo, hi, len(xs))
	}
}

// tracedRun is the second half of a --trace 1 run: reps with the span
// recorder, the CPU profiler and the run's virtual-time recorder on, then
// the workload's ladder, then every per-layer metric.
func tracedRun(o options, w workload, rep *report, chk *checker, untraced []sample, minReps int, budget float64) error {
	sp := newSpans(o.workload)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	var traced []sample
	for t := time.Now(); len(traced) < minReps || time.Since(t).Seconds() < budget; {
		s := timedRep(w, sp)
		chk.add(s.res)
		traced = append(traced, s)
	}
	pprof.StopCPUProfile()
	rss := peakRSSMB()

	lc := &ladderCtx{smoke: o.smoke, sp: sp, out: map[string]float64{}, untraced: untraced}
	att, err := attribute(prof.Bytes())
	if err != nil {
		return err
	}
	for _, l := range profileLayers {
		lc.set(l+".cpu_self_share", att.share[l])
	}
	rep.printf("cpu profile: %d samples over %d traced reps; heaviest 'other' leaves: %s", att.samples, len(traced), strings.Join(att.otherTop, ", "))

	wallMed := median(column(untraced, wallOf))
	lc.set("core.wall_us_per_rank_iter", wallMed*1e6/w.rankIters())
	last := traced[len(traced)-1].res
	if tt := float64(last.totalTime); tt > 0 {
		ph := last.phases
		fr := map[string]float64{
			"data": float64(ph.DataWait) / tt, "propagation": float64(ph.Propagation) / tt,
			"forward": float64(ph.Forward) / tt, "backward": float64(ph.Backward) / tt,
			"aggregation": float64(ph.Aggregation) / tt, "update": float64(ph.Update) / tt,
		}
		for _, p := range phaseNames {
			lc.set("core.virt_phase_frac."+p, fr[p])
		}
		lc.set("core.virt_comm_blocked_frac", fr["propagation"]+fr["aggregation"])
		lc.set("core.virt_unaccounted_frac", 1-float64(ph.Total())/tt)
	}
	lc.set("core.virt_hca_util", last.hca)
	lc.set("core.virt_pcie_util", last.pcie)
	lc.set("core.peak_rss_mb", rss)
	lc.set("core.gc_cycles", median(column(untraced, func(s sample) float64 { return s.gcs })))
	lc.set("trace.overhead_frac", median(column(traced, wallOf))/wallMed-1)

	lc.sp.do("ladder", func() { w.ladder(lc) })
	chk.failed += len(lc.notes)
	chk.notes = append(chk.notes, lc.notes...)

	// Every per-layer name is printed by every workload; a rung that
	// belongs to another workload's ladder reads 0 here.
	for _, d := range perLayer {
		v := lc.out[d.Name]
		rep.Metrics[d.Name] = value{v, d.Unit}
		if _, measured := lc.out[d.Name]; measured {
			rep.printf("%-34s %16.6f %s", d.Name, v, d.Unit)
		}
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(o.outDir, "spans-"+o.workload+".json")
	if err := sp.write(path); err != nil {
		return err
	}
	rep.printf("spans: %d written to %s", len(sp.all), path)
	return nil
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM) in
// MB, or 0 where /proc does not offer it.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64) // 0 on a malformed line, like a missing one
				return kb / 1024
			}
		}
	}
	return 0
}
