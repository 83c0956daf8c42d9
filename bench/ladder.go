package main

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"scaffe"
	"scaffe/internal/chaos"
	"scaffe/internal/coll"
	"scaffe/internal/data"
	"scaffe/internal/fault"
	"scaffe/internal/gpu"
	"scaffe/internal/models"
	"scaffe/internal/mpi"
	"scaffe/internal/sched"
	"scaffe/internal/sim"
	"scaffe/internal/solver"
	"scaffe/internal/tensor"
	"scaffe/internal/topology"
	"scaffe/internal/trace"
)

// The ladders: drivers that call one layer's exported API at a fixed
// shape, bottom-up. Measured from outside, a rung's time includes the
// rungs below it (an mpi message pays for the sim handoffs and topology
// transfers under it); the profile's self share is the exclusive figure.
// Every host-time rung is the median of rungRounds runs of its driver.

const rungRounds = 5

// ladderCtx collects per-layer metric values during a traced run.
type ladderCtx struct {
	smoke    bool
	sp       *spans
	out      map[string]float64
	untraced []sample // this process's untraced timed reps
	notes    []string // output checks that failed inside a rung
}

func (lc *ladderCtx) set(name string, v float64) { lc.out[name] = v }

func (lc *ladderCtx) failf(format string, args ...any) {
	lc.notes = append(lc.notes, fmt.Sprintf(format, args...))
}

// size picks a rung's problem size: full, or a token one under -smoke.
func (lc *ladderCtx) size(full, smoke int) int {
	if lc.smoke {
		return smoke
	}
	return full
}

// timed sets the named metric to the median, over rungRounds runs, of
// what driver returns, all inside one span.
func (lc *ladderCtx) timed(name string, driver func() float64) {
	rounds := lc.size(rungRounds, 1)
	lc.sp.do(name, func() {
		xs := make([]float64, rounds)
		for i := range xs {
			xs[i] = driver()
		}
		lc.set(name, median(xs))
	})
}

func nsPer(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }
func usPer(d time.Duration, n int) float64 { return nsPer(d, n) / 1e3 }

// must reports a simulation that failed inside a rung.
func (lc *ladderCtx) must(what string, err error) {
	if err != nil {
		lc.failf("%s: %v", what, err)
	}
}

// ---- sim ------------------------------------------------------------------

// simHandoff runs procs procs through sleeps lockstep Sleeps each — one
// kernel-to-proc-and-back goroutine handoff per Sleep — and returns the
// host time and the kernel it ran on. workers > 1 arms the parallel
// kernel with every proc in a group of its own.
func (lc *ladderCtx) simHandoff(procs, sleeps, workers int) (time.Duration, *sim.Kernel) {
	k := sim.New()
	if workers > 1 {
		k.SetParallel(workers, sim.Millisecond)
	}
	for i := 0; i < procs; i++ {
		p := k.Spawn("p", func(p *sim.Proc) {
			for j := 0; j < sleeps; j++ {
				p.Sleep(sim.Microsecond)
			}
		})
		p.SetGroup(i)
	}
	t := time.Now()
	lc.must("sim handoff rung", k.Run())
	return time.Since(t), k
}

func (lc *ladderCtx) simLadder() {
	events := lc.size(1<<20, 1<<10)
	lc.timed("sim.event_ns", func() float64 {
		k := sim.New()
		const tickers = 8
		for i := 0; i < tickers; i++ {
			left := events / tickers
			var tick func()
			tick = func() {
				if left--; left > 0 {
					k.After(sim.Microsecond, tick)
				}
			}
			k.After(sim.Microsecond, tick)
		}
		t := time.Now()
		lc.must("sim event rung", k.Run())
		return nsPer(time.Since(t), events)
	})

	procs, sleeps := lc.size(1024, 8), lc.size(100, 4)
	lc.timed("sim.handoff_ns", func() float64 {
		d, _ := lc.simHandoff(procs, sleeps, 1)
		return nsPer(d, procs*sleeps)
	})

	pairs := lc.size(1<<16, 1<<6)
	lc.timed("sim.wait_fire_ns", func() float64 {
		// Two procs ping-pong over pre-built completions: each round is
		// two wait/fire pairs and no other blocking call.
		k := sim.New()
		ping := make([]*sim.Completion, pairs/2)
		pong := make([]*sim.Completion, pairs/2)
		for i := range ping {
			ping[i], pong[i] = k.NewCompletion(), k.NewCompletion()
		}
		k.Spawn("a", func(p *sim.Proc) {
			for i := range ping {
				ping[i].FireFrom(p)
				p.Wait(pong[i])
			}
		})
		k.Spawn("b", func(p *sim.Proc) {
			for i := range ping {
				p.Wait(ping[i])
				pong[i].FireFrom(p)
			}
		})
		t := time.Now()
		lc.must("sim wait/fire rung", k.Run())
		return nsPer(time.Since(t), pairs)
	})

	spawned := lc.size(4096, 64)
	lc.timed("sim.spawn_us_per_proc", func() float64 {
		t := time.Now()
		k := sim.New()
		for i := 0; i < spawned; i++ {
			k.Spawn("p", func(*sim.Proc) {})
		}
		lc.must("sim spawn rung", k.Run())
		return usPer(time.Since(t), spawned)
	})

	// The same handoff driver on the parallel kernel, sized to the host
	// as core does by default, every proc its own group.
	var width float64
	lc.timed("sim.parallel_speedup", func() float64 {
		seq, _ := lc.simHandoff(procs, sleeps, 1)
		par, k := lc.simHandoff(procs, sleeps, runtime.NumCPU())
		if batches, segments := k.Batches(); batches > 0 {
			width = float64(segments) / float64(batches)
		}
		return float64(seq) / float64(par)
	})
	lc.set("sim.batch_width_mean", width)
}

// ---- topology -------------------------------------------------------------

func (lc *ladderCtx) topologyLadder() {
	transfers := lc.size(1<<18, 1<<8)
	lc.timed("topology.transfer_ns", func() float64 {
		c := topology.New(sim.New(), "rung", 4, 16, topology.DefaultParams())
		dev := func(node, local int) topology.DeviceID { return topology.DeviceID{Node: node, Local: local} }
		// A fixed mix: intra-node IPC, a small GPUDirect message, a large
		// pipelined one, and a host-staged one.
		mix := []struct {
			from, to topology.DeviceID
			bytes    int64
			mode     topology.TransferMode
		}{
			{dev(0, 0), dev(0, 1), 1 << 20, topology.ModeAuto},
			{dev(0, 2), dev(1, 2), 8 << 10, topology.ModeAuto},
			{dev(1, 3), dev(2, 3), 4 << 20, topology.ModeAuto},
			{dev(2, 4), dev(3, 4), 1 << 20, topology.ModeStaged},
		}
		var at sim.Time
		t := time.Now()
		for i := 0; i < transfers; i++ {
			m := mix[i%len(mix)]
			_, end := c.Transfer(at, m.from, m.to, m.bytes, m.mode)
			at = end - sim.Time(m.bytes/64) // overlap successive transfers a little, as pipelines do
		}
		return nsPer(time.Since(t), transfers)
	})

	nodes := lc.size(64, 2)
	lc.timed("topology.new_us_per_gpu", func() float64 {
		t := time.Now()
		c := topology.New(sim.New(), "rung", nodes, 16, topology.DefaultParams())
		return usPer(time.Since(t), c.TotalGPUs())
	})
}

// ---- mpi ------------------------------------------------------------------

// newWorld builds an n-rank world on Cluster-A geometry (16 GPUs a node).
func newWorld(n int) (*mpi.World, *mpi.Comm) {
	c := topology.New(sim.New(), "rung", (n+15)/16, 16, topology.DefaultParams())
	w := mpi.NewWorld(c, n)
	return w, w.WorldComm()
}

const rungTag = 20

// pingPong bounces a message between two ranks on different nodes and
// returns the host time per message and the virtual one-way latency.
func (lc *ladderCtx) pingPong(bytes int64, rounds int) (float64, sim.Duration) {
	c := topology.New(sim.New(), "rung", 2, 1, topology.DefaultParams())
	w := mpi.NewWorld(c, 2)
	comm := w.WorldComm()
	t := time.Now()
	end, err := w.Run(func(r *mpi.Rank) {
		buf := gpu.NewBuffer(bytes)
		for i := 0; i < rounds; i++ {
			if r.ID == 0 {
				r.Send(comm, 1, rungTag, buf, topology.ModeAuto)
				r.Recv(comm, 1, rungTag, buf)
			} else {
				r.Recv(comm, 0, rungTag, buf)
				r.Send(comm, 0, rungTag, buf, topology.ModeAuto)
			}
		}
	})
	lc.must("mpi ping-pong rung", err)
	return nsPer(time.Since(t), 2*rounds), sim.Duration(end) / sim.Duration(2*rounds)
}

func (lc *ladderCtx) mpiWorldRung() {
	ranks := lc.size(1024, 8)
	lc.timed("mpi.world_us_per_rank", func() float64 {
		c := topology.New(sim.New(), "rung", (ranks+15)/16, 16, topology.DefaultParams())
		t := time.Now()
		w := mpi.NewWorld(c, ranks)
		_, err := w.Run(func(*mpi.Rank) {})
		lc.must("mpi world rung", err)
		return usPer(time.Since(t), ranks)
	})
}

func (lc *ladderCtx) mpiLadder() {
	const eager, rndv = 1 << 10, 4 << 20
	rounds := lc.size(1<<14, 1<<4)
	var eagerVirt, rndvVirt sim.Duration
	lc.timed("mpi.eager_msg_ns", func() (ns float64) {
		ns, eagerVirt = lc.pingPong(eager, rounds)
		return ns
	})
	lc.timed("mpi.rndv_msg_ns", func() (ns float64) {
		ns, rndvVirt = lc.pingPong(rndv, rounds/4)
		return ns
	})
	lc.set("mpi.virt_pingpong_us", eagerVirt.Microseconds())
	if s := rndvVirt.Seconds(); s > 0 {
		lc.set("mpi.virt_bw_gbps", rndv/s/1e9)
	}

	// 63 senders each push their messages at the root before it posts a
	// single receive, so every match is made against the unexpected queue.
	perSender := lc.size(128, 2)
	lc.timed("mpi.fanin_msg_ns", func() float64 {
		const ranks = 64
		w, comm := newWorld(ranks)
		t := time.Now()
		_, err := w.Run(func(r *mpi.Rank) {
			buf := gpu.NewBuffer(eager)
			if r.ID != 0 {
				for i := 0; i < perSender; i++ {
					r.Send(comm, 0, rungTag, buf, topology.ModeAuto)
				}
				return
			}
			r.Sleep(sim.Second)
			for i := 0; i < perSender; i++ {
				for src := ranks - 1; src >= 1; src-- {
					r.Recv(comm, src, rungTag, buf)
				}
			}
		})
		lc.must("mpi fan-in rung", err)
		return nsPer(time.Since(t), (ranks-1)*perSender)
	})

	ranks, rounds := lc.size(160, 8), lc.size(64, 2)
	collective := func(name string, op func(r *mpi.Rank, comm *mpi.Comm, buf *gpu.Buffer)) {
		lc.timed(name, func() float64 {
			w, comm := newWorld(ranks)
			t := time.Now()
			_, err := w.Run(func(r *mpi.Rank) {
				buf := gpu.NewBuffer(64 << 10)
				for i := 0; i < rounds; i++ {
					op(r, comm, buf)
				}
			})
			lc.must(name, err)
			return nsPer(time.Since(t), ranks*rounds)
		})
	}
	collective("mpi.ibcast_ns_per_rank", func(r *mpi.Rank, comm *mpi.Comm, buf *gpu.Buffer) {
		r.Wait(r.Ibcast(comm, 0, buf, topology.ModeAuto))
	})
	collective("mpi.barrier_ns_per_rank", func(r *mpi.Rank, comm *mpi.Comm, _ *gpu.Buffer) {
		comm.Barrier(r)
	})

	lc.sp.do("mpi.virt_ibcast_overlap", func() {
		ov, err := scaffe.IbcastOverlapBench(lc.size(160, 8), int64(lc.size(64<<20, 1<<20)))
		lc.must("ibcast overlap rung", err)
		if err == nil {
			lc.set("mpi.virt_ibcast_overlap", ov.Overlap)
		}
	})
}

// ---- coll -----------------------------------------------------------------

// collective runs op trials times (after one warm-up) on a fresh world of
// the given size, OSU-style: every trial sits between two barriers. It
// returns the host microseconds and the virtual latency per call. Built
// here rather than on scaffe.ReduceBench so that building the world stays
// outside the host-time figure.
func (lc *ladderCtx) collective(ranks int, bytes int64, trials int, data bool, build func(comm *mpi.Comm) func(r *mpi.Rank, buf *gpu.Buffer)) (wallUs float64, virt sim.Duration) {
	w, comm := newWorld(ranks)
	op := build(comm)
	var t0 time.Time
	var wall time.Duration
	var enter, lastDone sim.Time
	var total sim.Duration
	// The kernel is sequential here: one rank runs at a time, so the
	// shared variables need no lock.
	_, err := w.Run(func(r *mpi.Rank) {
		buf := gpu.NewBuffer(bytes)
		if data {
			buf = gpu.NewDataBuffer(int(bytes / 4))
			buf.Fill(1)
		}
		for trial := 0; trial <= trials; trial++ {
			comm.Barrier(r)
			if r.ID == 0 {
				enter = r.Now()
				if trial == 1 {
					t0 = time.Now()
				}
			}
			op(r, buf)
			if r.Now() > lastDone {
				lastDone = r.Now()
			}
			comm.Barrier(r)
			if r.ID == 0 && trial > 0 {
				total += lastDone - enter
			}
		}
		if r.ID == 0 {
			wall = time.Since(t0)
		}
	})
	lc.must("collective rung", err)
	return usPer(wall, trials), total / sim.Duration(trials)
}

func reducerOp(alg coll.Algorithm, o coll.Options) func(comm *mpi.Comm) func(r *mpi.Rank, buf *gpu.Buffer) {
	return func(comm *mpi.Comm) func(r *mpi.Rank, buf *gpu.Buffer) {
		red := coll.NewReducer(comm, alg, o)
		return func(r *mpi.Rank, buf *gpu.Buffer) { red.Reduce(r, buf, rungTag) }
	}
}

var rungReducers = map[string]coll.Algorithm{
	"binomial": coll.Binomial, "chain": coll.Chain, "cc": coll.ChainChain, "cb": coll.ChainBinomial,
	"ccb": coll.ChainChainBinomial, "hr": coll.Tuned, "rsg": coll.Rabenseifner,
	"mv2": coll.MV2Baseline, "openmpi": coll.OpenMPIBaseline,
}

func (lc *ladderCtx) collLadder(w *reduceWorkload) {
	ranks, bytes, trials := lc.size(64, 8), int64(lc.size(64<<20, 1<<20)), lc.size(4, 1)
	for _, name := range reduceRungAlgs {
		name := name
		var virt sim.Duration
		lc.timed("coll.wall_us_per_reduce."+name, func() (us float64) {
			us, virt = lc.collective(ranks, bytes, trials, false, reducerOp(rungReducers[name], coll.DefaultOptions()))
			return us
		})
		lc.set("coll.virt_ms."+name, virt.Milliseconds())
	}
	var virt sim.Duration
	lc.timed("coll.wall_us_per_allreduce.ring", func() (us float64) {
		us, virt = lc.collective(ranks, bytes, trials, false, func(comm *mpi.Comm) func(*mpi.Rank, *gpu.Buffer) {
			ring := coll.NewRing(comm, coll.DefaultOptions())
			return func(r *mpi.Rank, buf *gpu.Buffer) { ring.Allreduce(r, buf, rungTag) }
		})
		return us
	})
	lc.set("coll.virt_ms.ring", virt.Milliseconds())

	// How far the HR selector is from the best fixed design it could have
	// picked, over the workload's own grid: the grid's latencies from the
	// last rep, plus the flat chain the grid does not carry.
	lc.sp.do("coll.virt_hr_regret", func() {
		var regrets []float64
		for _, p := range w.grid {
			if p.name != "hr" {
				continue
			}
			chain, err := scaffe.ReduceBench(scaffe.ReduceBenchConfig{Ranks: w.ranks, Bytes: p.bytes, Algorithm: scaffe.ReduceChain, Trials: 1})
			lc.must("chain reduce", err)
			best := chain
			for _, q := range w.grid {
				if d, ok := w.last[q]; ok && q.bytes == p.bytes && (q.name == "binomial" || q.name == "cc" || q.name == "cb") && d < best {
					best = d
				}
			}
			if hr, ok := w.last[p]; ok && best > 0 {
				regrets = append(regrets, float64(hr)/float64(best))
			}
		}
		lc.set("coll.virt_hr_regret", geomean(regrets))
	})

	// The simulator against the paper's Eq. (1) and (2), the only
	// reference the repository holds: t(b) is taken from the simulator
	// itself as the 2-rank reduce inside a node, and the two formulas
	// must then predict the binomial tree and the n-chunk chain at the
	// ladder's shape, where most steps cross nodes.
	lc.sp.do("coll.virt_model_err", func() {
		const chunks = 16
		procs := ranks
		latency := func(alg coll.Algorithm, p int, b int64) float64 {
			o := coll.DefaultOptions()
			o.Chunks = chunks
			_, virt := lc.collective(p, b, 1, false, reducerOp(alg, o))
			return virt.Seconds()
		}
		model := coll.CostParams{Alpha: 0, Beta: 1} // T(b) = b: the formulas then count steps of t
		binSteps := coll.BinomialTime(model, procs, 1)
		chainSteps := coll.ChainTime(model, procs, chunks, chunks) // steps of t(c)
		if tb := latency(coll.Binomial, 2, bytes); tb > 0 {
			lc.set("coll.virt_model_err.binomial", latency(coll.Binomial, procs, bytes)/(binSteps*tb)-1)
		}
		if tc := latency(coll.Binomial, 2, bytes/chunks); tc > 0 {
			lc.set("coll.virt_model_err.chain", latency(coll.Chain, procs, bytes)/(chainSteps*tc)-1)
		}
	})
}

// ---- sched, trace, core ---------------------------------------------------

func (lc *ladderCtx) schedLadder() {
	// SC-OBR's shape without the work: a main lane of no-op nodes, each
	// followed by a no-op node on a helper lane that depends on it.
	pairs, execs := lc.size(2048, 16), lc.size(16, 2)
	var buildNs float64
	lc.timed("sched.node_ns", func() float64 {
		w, _ := newWorld(1)
		var build, exec time.Duration
		_, err := w.Run(func(r *mpi.Rank) {
			t := time.Now()
			g := sched.New(r)
			helper := g.Lane("helper")
			noop := func(*sched.Ctx) {}
			for i := 0; i < pairs; i++ {
				n := g.Add(0, sched.Generic, "backward", "n", noop)
				g.Add(helper, sched.Generic, "aggregation", "h", noop).After(n)
			}
			build = time.Since(t)
			t = time.Now()
			for it := 0; it < execs; it++ {
				g.Execute(nil, it)
			}
			exec = time.Since(t)
		})
		lc.must("sched rung", err)
		buildNs = nsPer(build, 2*pairs)
		return nsPer(exec, 2*pairs*execs)
	})
	lc.set("sched.build_node_ns", buildNs)
}

func (lc *ladderCtx) traceLadder() {
	n := lc.size(1<<18, 1<<8)
	var rec *trace.Recorder
	lc.timed("trace.span_ns", func() float64 {
		rec = trace.New()
		t := time.Now()
		for i := 0; i < n; i++ {
			rec.AddNode(i&127, "forward", "conv1", sim.Time(i), sim.Time(i+1))
		}
		return nsPer(time.Since(t), n)
	})
	lc.timed("trace.export_ms", func() float64 {
		t := time.Now()
		lc.must("trace export rung", rec.WriteChromeTrace(io.Discard))
		return float64(time.Since(t)) / float64(time.Millisecond)
	})
}

// alternate runs each configuration in turn, rounds times over, and
// returns the median host seconds of each. Taking turns makes the slow
// drift of the host's speed hit all sides alike, which comparing against
// reps measured half a minute earlier does not. It also returns each
// configuration's last result, for the output checks.
func (lc *ladderCtx) alternate(w *trainWorkload, rounds int, cfgs ...scaffe.Config) ([]float64, []repResult) {
	walls := make([][]float64, len(cfgs))
	last := make([]repResult, len(cfgs))
	for r := 0; r < rounds; r++ {
		for i, cfg := range cfgs {
			t := time.Now()
			last[i] = w.run(cfg, nil)
			walls[i] = append(walls[i], time.Since(t).Seconds())
			lc.notes = append(lc.notes, last[i].notes...)
		}
	}
	meds := make([]float64, len(cfgs))
	for i := range meds {
		meds[i] = median(walls[i])
	}
	return meds, last
}

// sameVirtual checks that a run of the workload on the sequential kernel
// reproduced the virtual outputs of the workload's own reps.
func (lc *ladderCtx) sameVirtual(w *trainWorkload, seq repResult) {
	if seq.digest != lc.untraced[0].res.digest {
		lc.failf("%s: the sequential kernel changed the virtual outputs", w.name)
	}
}

// sequential is the workload's configuration on the sequential kernel;
// users get SimParallel 0, the kernel sized to the host's cores.
func sequential(cfg scaffe.Config) scaffe.Config {
	cfg.SimParallel = 1
	return cfg
}

func (lc *ladderCtx) trainLadder(w *trainWorkload) {
	lc.schedLadder()
	lc.sp.do("core.armed_overhead_frac", func() {
		// The price of ftLoop over core.run: the same run with a fault
		// schedule whose only event lies far past its end. Both sides
		// run on the sequential kernel, which armed runs always use.
		free := sequential(w.cfg)
		if !lc.smoke {
			free.GPUs, free.Nodes, free.GlobalBatch, free.Iterations = 32, 2, 256, 8
		}
		probe := w.run(free, nil)
		armed := free
		armed.Faults = scaffe.FaultSchedule{{At: probe.totalTime * 1000, Kind: fault.StragglerOff, Rank: 0}}
		walls, last := lc.alternate(w, lc.size(rungRounds, 1), free, armed)
		lc.set("core.armed_overhead_frac", walls[1]/walls[0]-1)
		if last[1].totalTime != last[0].totalTime {
			lc.failf("armed-untripped run took %v virtual, fault-free %v", last[1].totalTime, last[0].totalTime)
		}
	})
	lc.sp.do("core.seq_vs_auto_wall_ratio", func() {
		// Below 1 the parallel kernel costs host time.
		walls, last := lc.alternate(w, lc.size(3, 1), w.cfg, sequential(w.cfg))
		lc.set("core.seq_vs_auto_wall_ratio", walls[1]/walls[0])
		lc.sameVirtual(w, last[1])
	})
	lc.traceLadder()
	lc.set("core.virt_sps_1gpu", w.base.SamplesPerSec)
}

func (lc *ladderCtx) scaleLadder(w *trainWorkload) {
	lc.simLadder()
	lc.topologyLadder()
	lc.mpiWorldRung()
	lc.sp.do("core.fit_and_seq_vs_auto", func() {
		// Two-point fit of the wall at half and at all of the workload's
		// iterations, and the sequential kernel against the default.
		n := w.cfg.Iterations
		short := w.cfg
		short.Iterations = (n + 1) / 2
		walls, last := lc.alternate(w, lc.size(3, 1), short, w.cfg, sequential(w.cfg))
		wShort, wFull, wSeq := walls[0], walls[1], walls[2]
		kranks := float64(w.cfg.GPUs) / 1000
		if d := n - short.Iterations; d > 0 {
			perIter := (wFull - wShort) / float64(d)
			lc.set("core.iter_ms_per_krank", perIter*1e3/kranks)
			lc.set("core.setup_ms_per_krank", (wFull-float64(n)*perIter)*1e3/kranks)
		}
		lc.set("core.seq_vs_auto_wall_ratio", wSeq/wFull)
		lc.sameVirtual(w, last[2])
	})
	lc.set("core.allocs_per_rank", median(column(lc.untraced, func(s sample) float64 { return s.allocs }))/float64(w.cfg.GPUs))
}

// ---- tensor, layers, solver, data ----------------------------------------

func (lc *ladderCtx) realLadder(*trainWorkload) {
	rng := rand.New(rand.NewSource(1))
	randSlice := func(n int) []float32 {
		s := make([]float32, n)
		for i := range s {
			s[i] = rng.Float32() - 0.5
		}
		return s
	}
	// Layer-sized multiplies as im2col lowers them (the shapes of
	// internal/tensor's BenchmarkGemmShapes).
	for _, sh := range []struct {
		name    string
		transB  bool
		m, n, k int
	}{
		{"conv_fwd", false, 128, 729, 1200},
		{"conv_dw", true, 128, 1200, 729},
		{"fc_fwd", true, 32, 4096, 9216},
	} {
		sh := sh
		if lc.smoke {
			sh.m, sh.n, sh.k = 8, 16, 32
		}
		a, b, c := randSlice(sh.m*sh.k), randSlice(sh.k*sh.n), make([]float32, sh.m*sh.n)
		reps := lc.size(4, 1)
		lc.timed("tensor.gemm_gflops."+sh.name, func() float64 {
			t := time.Now()
			for i := 0; i < reps; i++ {
				tensor.Gemm(false, sh.transB, sh.m, sh.n, sh.k, 1, a, b, 0, c)
			}
			return 2 * float64(sh.m) * float64(sh.n) * float64(sh.k) * float64(reps) / time.Since(t).Seconds() / 1e9
		})
	}

	// cifar10-quick's conv2: 32 channels of 16x16, 5x5 kernel, pad 2.
	geom := tensor.ConvGeom{InC: 32, InH: 16, InW: 16, KernelH: 5, KernelW: 5, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2}
	img := randSlice(geom.InC * geom.InH * geom.InW)
	col := make([]float32, geom.InC*geom.KernelH*geom.KernelW*geom.OutH()*geom.OutW())
	images := lc.size(256, 2)
	lc.timed("tensor.im2col_gbps", func() float64 {
		t := time.Now()
		for i := 0; i < images; i++ {
			tensor.Im2col(geom, img, col)
		}
		return float64(4*len(col)*images) / time.Since(t).Seconds() / 1e9
	})

	const batch = 16
	ds := data.SyntheticCIFAR10(1024, 1)
	net := models.BuildCIFAR10Quick(batch, 1)
	shape := ds.Shape()
	input := tensor.New(batch, shape.C, shape.H, shape.W)
	labels := make([]int, batch)
	data.BatchTensorInto(ds, 0, batch, input.Data, labels)
	step := func() {
		net.ZeroGrads()
		net.Forward(input, labels)
		net.Backward()
	}
	step() // blobs and the workspace pool
	lc.timed("layers.fwd_ms", func() float64 {
		t := time.Now()
		net.Forward(input, labels)
		return float64(time.Since(t)) / float64(time.Millisecond)
	})
	lc.timed("layers.bwd_ms", func() float64 {
		net.ZeroGrads()
		t := time.Now()
		net.Backward()
		return float64(time.Since(t)) / float64(time.Millisecond)
	})
	lc.sp.do("layers.allocs_per_iter", func() {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		step()
		runtime.ReadMemStats(&m1)
		lc.set("layers.allocs_per_iter", float64(m1.Mallocs-m0.Mallocs))
	})

	sgd := solver.New(solver.Fixed{Base: 0.01}, 0.9, 0.0005)
	sgd.Step(net, 0, 1) // the history blobs
	steps := lc.size(64, 2)
	lc.timed("solver.step_ns_per_param", func() float64 {
		t := time.Now()
		for i := 0; i < steps; i++ {
			sgd.Step(net, i, 1)
		}
		return nsPer(time.Since(t), steps*net.TotalParams())
	})

	fills := lc.size(16, 1)
	lc.timed("data.fill_ns_per_sample", func() float64 {
		t := time.Now()
		for i := 0; i < fills; i++ {
			data.BatchTensorInto(ds, i*batch, batch, input.Data, labels)
		}
		return nsPer(time.Since(t), fills*batch)
	})

	// The one place a reducer does arithmetic: HR over 4 ranks on
	// buffers that carry data, priced in reduced operand bytes a second.
	const ranks = 4
	elems := lc.size(1<<20, 1<<10)
	lc.timed("coll.real_reduce_gbps", func() float64 {
		us, _ := lc.collective(ranks, int64(4*elems), 2, true, reducerOp(coll.Tuned, coll.DefaultOptions()))
		return float64((ranks-1)*4*elems) / (us / 1e6) / 1e9
	})
}

// ---- fault ----------------------------------------------------------------

func (lc *ladderCtx) chaosLadder(w *chaosWorkload) {
	var walls, allocs []float64
	for _, s := range lc.untraced {
		for _, spec := range s.res.specs {
			walls = append(walls, spec.wallMs)
		}
		allocs = append(allocs, s.allocs/float64(w.perRep))
	}
	lc.set("fault.wall_ms_per_spec_p50", quantile(walls, 0.5))
	lc.set("fault.wall_ms_per_spec_p80", quantile(walls, 0.8))
	lc.set("fault.allocs_per_spec", median(allocs))

	// Every rep verifies the same specs, so one rep's counters speak for
	// all and repeat exactly.
	var recoveries, joins, retries, revokes, fenced, stale, unrecovered float64
	var slowdowns, detects, recovers []float64
	for _, spec := range lc.untraced[0].res.specs {
		if spec.outcome == chaos.Unrecovered {
			unrecovered++
			continue
		}
		f := spec.fault
		recoveries += float64(len(f.Recoveries))
		joins += float64(len(f.Joins))
		retries += float64(f.Retries)
		revokes += float64(f.WireRevokes)
		fenced += float64(f.Fenced)
		stale += float64(f.StaleDissolved)
		slowdowns = append(slowdowns, float64(spec.totalTime)/float64(w.base.TotalTime))
		for _, r := range f.Recoveries {
			detects = append(detects, r.DetectionLatency().Milliseconds())
			recovers = append(recovers, r.RecoveryTime().Milliseconds())
		}
	}
	lc.set("fault.recoveries", recoveries)
	lc.set("fault.joins", joins)
	lc.set("fault.retries", retries)
	lc.set("fault.wire_revokes", revokes)
	lc.set("fault.fenced", fenced)
	lc.set("fault.stale_dissolved", stale)
	lc.set("fault.unrecovered_specs", unrecovered)
	lc.set("fault.virt_slowdown", geomean(slowdowns))
	lc.set("fault.virt_detect_ms_p50", median(detects))
	lc.set("fault.virt_recover_ms_p50", median(recovers))
}

// ---- the ladder of each workload -------------------------------------------

func (w *trainWorkload) ladder(lc *ladderCtx) { w.rungs(lc, w) }

func (w *reduceWorkload) ladder(lc *ladderCtx) {
	lc.mpiLadder()
	lc.collLadder(w)
}

func (w *chaosWorkload) ladder(lc *ladderCtx) { lc.chaosLadder(w) }
