package coll

import (
	"math"
	"math/rand"
	"testing"

	"scaffe/internal/gpu"
	"scaffe/internal/mpi"
	"scaffe/internal/sched"
	"scaffe/internal/sim"
	"scaffe/internal/topology"
)

func newWorld(t testing.TB, nodes, gpusPerNode, ranks int) *mpi.World {
	t.Helper()
	k := sim.New()
	c := topology.New(k, "test", nodes, gpusPerNode, topology.DefaultParams())
	return mpi.NewWorld(c, ranks)
}

// runReduce executes one reduction over `ranks` ranks with per-rank
// payloads of n elements where rank i contributes value i+1 to every
// element, and returns root's result plus the final virtual time.
func runReduce(t testing.TB, alg Algorithm, o Options, ranks, n int) ([]float32, sim.Time) {
	t.Helper()
	nodes := (ranks + 3) / 4
	w := newWorld(t, nodes, 4, ranks)
	c := w.WorldComm()
	plan := reducePlan(NewReducer(c, alg, o), nil)
	var result []float32
	end, err := w.RunSteps(func(r *mpi.Rank) sim.Stepper {
		buf := gpu.NewDataBuffer(n)
		buf.Fill(float32(r.ID + 1))
		return &reduceCalls{r: r, plan: plan, bufs: []*gpu.Buffer{buf}, tag: 10, ended: func(int) {
			if r.ID == 0 {
				result = append([]float32(nil), buf.Data...)
			}
		}}
	})
	if err != nil {
		t.Fatal(err)
	}
	return result, end
}

// reducePlan is a collective of red as a training run's reduce node makes
// it: a one-lane plan whose splice is red's fragment for the walk's
// buffer and tag. then, if set, is a node after it, which a revocation
// skips.
func reducePlan(red Reducer, then func(x *sched.Ctx)) *sched.Plan {
	pl := sched.NewPlan()
	pl.AddSplice(sched.Reduce, "", "", func(x *sched.Ctx) (*sched.Plan, *gpu.Buffer, int) {
		return red.Fragment(x.R, x.Buf), x.Buf, x.Tag
	})
	if then != nil {
		pl.Add(0, sched.Generic, "", "", then)
	}
	pl.Seal()
	return pl
}

// reduceCalls is rank r's part of collectives of plan, one per buffer of
// bufs in order, as its main proc's stepper: a walk of the plan
// (sched.Walk) per buffer. ended, if set, runs as each walk ends, with
// its index.
type reduceCalls struct {
	r       *mpi.Rank
	plan    *sched.Plan
	bufs    []*gpu.Buffer
	tag     int
	ended   func(i int)
	walk    sched.Walk
	i       int
	started bool
}

func (s *reduceCalls) Step(p *sim.Proc) bool {
	for ; s.i < len(s.bufs); s.i++ {
		if !s.started {
			s.started = true
			s.walk.Start(s.r, s.plan, s.bufs[s.i], s.tag, 1)
		}
		if !s.walk.Step(p) {
			return false
		}
		s.started = false
		if s.ended != nil {
			s.ended(s.i)
		}
	}
	return true
}

func expectSum(t *testing.T, got []float32, ranks int) {
	t.Helper()
	want := float32(ranks * (ranks + 1) / 2)
	for i, v := range got {
		if v != want {
			t.Fatalf("element %d = %v, want %v (sum over %d ranks)", i, v, want, ranks)
		}
	}
}

func TestBinomialReduceCorrect(t *testing.T) {
	for _, ranks := range []int{1, 2, 3, 4, 7, 8, 13, 16} {
		got, _ := runReduce(t, Binomial, DefaultOptions(), ranks, 37)
		expectSum(t, got, ranks)
	}
}

func TestChainReduceCorrect(t *testing.T) {
	for _, ranks := range []int{1, 2, 3, 5, 8} {
		for _, chunks := range []int{1, 3, 8} {
			o := DefaultOptions()
			o.Chunks = chunks
			got, _ := runReduce(t, Chain, o, ranks, 41)
			expectSum(t, got, ranks)
		}
	}
}

func TestChainMoreChunksThanElems(t *testing.T) {
	o := DefaultOptions()
	o.Chunks = 16
	got, _ := runReduce(t, Chain, o, 4, 5) // 5 elems, 16 requested chunks
	expectSum(t, got, 4)
}

func TestHierarchicalCCCorrect(t *testing.T) {
	for _, ranks := range []int{8, 12, 16, 24} {
		o := DefaultOptions()
		o.ChainSize = 4
		got, _ := runReduce(t, ChainChain, o, ranks, 29)
		expectSum(t, got, ranks)
	}
}

func TestHierarchicalCBCorrect(t *testing.T) {
	for _, ranks := range []int{8, 12, 16, 24} {
		o := DefaultOptions()
		o.ChainSize = 4
		got, _ := runReduce(t, ChainBinomial, o, ranks, 29)
		expectSum(t, got, ranks)
	}
}

func TestThreeLevelCCBCorrect(t *testing.T) {
	// The future-work design: chains of 4 -> chains over leaders ->
	// binomial over top leaders, verified numerically at several
	// sizes including non-multiples of the chain size.
	for _, ranks := range []int{4, 16, 23, 64} {
		o := DefaultOptions()
		o.ChainSize = 4
		got, _ := runReduce(t, ChainChainBinomial, o, ranks, 31)
		expectSum(t, got, ranks)
	}
}

func TestThreeLevelCCBScalesAtVeryLargeCounts(t *testing.T) {
	// CCB's raison d'être: beyond what two levels cover, the third
	// level keeps the top fan-in logarithmic. At 160 ranks it should
	// at least stay within range of CB (both use binomial tops).
	o := DefaultOptions()
	_, tCCB := runReduce(t, ChainChainBinomial, o, 64, 1<<20)
	_, tBin := runReduce(t, Binomial, o, 64, 1<<20)
	if tCCB >= tBin {
		t.Errorf("4MB/64 ranks: CCB (%v) should beat flat binomial (%v)", tCCB, tBin)
	}
}

func TestCCBName(t *testing.T) {
	w := newWorld(t, 8, 4, 32)
	red := NewReducer(w.WorldComm(), ChainChainBinomial, DefaultOptions())
	if red.Name() != "CCB-8" {
		t.Errorf("name = %q, want CCB-8", red.Name())
	}
	if ChainChainBinomial.String() != "CCB" {
		t.Errorf("algorithm string = %q", ChainChainBinomial.String())
	}
}

func TestTunedCorrectAcrossSizes(t *testing.T) {
	for _, n := range []int{8, 1 << 16, 1 << 20} { // 32B, 256KB, 4MB
		got, _ := runReduce(t, Tuned, DefaultOptions(), 16, n)
		expectSum(t, got, 16)
	}
}

func TestBaselinesCorrect(t *testing.T) {
	for _, alg := range []Algorithm{MV2Baseline, OpenMPIBaseline} {
		got, _ := runReduce(t, alg, DefaultOptions(), 8, 33)
		expectSum(t, got, 8)
	}
}

// checkReduce runs family f with options o over p ranks of a world that
// has `holes` more, dropped from the communicator as a shrink would drop
// them (an EpochComm over the rest, picked by seed). It runs once with
// payloads — group rank g contributing g+1 to every element, so the root
// (for the ring, every rank) must hold exactly p(p+1)/2 — and once
// payload-free, which must take the same virtual time.
func checkReduce(t *testing.T, f family, p, holes, elems int, o Options, seed int64) {
	t.Helper()
	w := p + holes
	dropped := map[int]bool{}
	for _, id := range rand.New(rand.NewSource(seed)).Perm(w)[:holes] {
		dropped[id] = true
	}
	var members []int
	for id := 0; id < w; id++ {
		if !dropped[id] {
			members = append(members, id)
		}
	}
	run := func(payload bool) (sim.Time, [][]float32) {
		world := newWorld(t, (w+3)/4, 4, w)
		c := world.EpochComm(members)
		plan := reducePlan(f.build(c, o), nil)
		got := make([][]float32, p)
		end, err := world.RunSteps(func(r *mpi.Rank) sim.Stepper {
			me := c.GroupRank(r.ID)
			if me < 0 {
				return &reduceCalls{}
			}
			buf := gpu.NewBuffer(int64(4 * elems))
			if payload {
				buf = gpu.NewDataBuffer(elems)
				buf.Fill(float32(me + 1))
			}
			return &reduceCalls{r: r, plan: plan, bufs: []*gpu.Buffer{buf}, tag: f.tag, ended: func(int) { got[me] = buf.Data }}
		})
		if err != nil {
			t.Fatalf("%s P=%d holes=%d elems=%d %+v: %v", f.name, p, holes, elems, o, err)
		}
		return end, got
	}
	withData, got := run(true)
	if noData, _ := run(false); noData != withData {
		t.Errorf("%s P=%d holes=%d elems=%d %+v: payload changed timing: %v vs %v", f.name, p, holes, elems, o, withData, noData)
	}
	want := float32(p * (p + 1) / 2)
	for me, res := range got {
		if me > 0 && f.name != "ring" {
			break
		}
		for i, v := range res {
			if v != want {
				t.Fatalf("%s P=%d holes=%d elems=%d %+v: rank %d element %d = %v, want %v", f.name, p, holes, elems, o, me, i, v, want)
			}
		}
	}
}

// reduceShape draws one case of the property harness from raw inputs: a
// family, up to 160 ranks (a power of two one time in four), up to 7
// holes, a buffer from one element to a few pipeline chunks of them, a
// chain size and a chunk count (0 for the size-dependent default).
func reduceShape(t *testing.T, fam, ranks, holes uint8, elems uint16, chain, chunks uint8, seed int64) {
	fams := families()
	p := 1 + int(ranks)%160
	if ranks%4 == 0 {
		p = 1 << (ranks / 4 % 8)
	}
	o := DefaultOptions()
	o.ChainSize = 1 + int(chain)%12
	o.Chunks = int(chunks) % 17
	checkReduce(t, fams[int(fam)%len(fams)], p, int(holes)%8, 1+int(elems)%4096, o, seed)
}

// TestReducePropertyRandomShapes: for random shapes of every family, the
// root holds the exact sum, and payloads do not move virtual time.
func TestReducePropertyRandomShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		reduceShape(t, uint8(i), uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint16(rng.Intn(1<<16)), uint8(rng.Intn(256)), uint8(rng.Intn(256)), rng.Int63())
	}
}

// FuzzReduce is TestReducePropertyRandomShapes' property over fuzzed shapes.
func FuzzReduce(f *testing.F) {
	f.Add(uint8(2), uint8(13), uint8(3), uint16(100), uint8(4), uint8(0), int64(1))
	f.Add(uint8(9), uint8(159), uint8(1), uint16(4095), uint8(7), uint8(16), int64(2))
	f.Fuzz(reduceShape)
}

func TestChainBeatsBinomialForLargeBuffers(t *testing.T) {
	// Paper Section 5: for large b and small P, T(CC) << T(Bin).
	const ranks, elems = 8, 8 << 20 / 4 // 8 MB
	_, tChain := runReduce(t, Chain, DefaultOptions(), ranks, elems)
	_, tBin := runReduce(t, Binomial, DefaultOptions(), ranks, elems)
	if tChain >= tBin {
		t.Errorf("16MB/8 ranks: chain %v should beat binomial %v", tChain, tBin)
	}
}

func TestBinomialBeatsChainForManyProcsSmallBuffers(t *testing.T) {
	// Paper Section 5: for large P and small b, T(CC) >> T(Bin).
	const ranks, elems = 64, 1024 // 4 KB
	o := DefaultOptions()
	o.Chunks = 4
	_, tChain := runReduce(t, Chain, o, ranks, elems)
	_, tBin := runReduce(t, Binomial, DefaultOptions(), ranks, elems)
	if tBin >= tChain {
		t.Errorf("4KB/64 ranks: binomial %v should beat chain %v", tBin, tChain)
	}
}

func TestHRBeatsMV2AtScale(t *testing.T) {
	const ranks = 32
	const elems = 8 << 20 / 4 // 8 MB
	_, tHR := runReduce(t, Tuned, DefaultOptions(), ranks, elems)
	_, tMV2 := runReduce(t, MV2Baseline, DefaultOptions(), ranks, elems)
	if tHR >= tMV2 {
		t.Errorf("32MB/32 ranks: HR %v should beat MV2 %v", tHR, tMV2)
	}
}

func TestMV2BeatsOpenMPIAtScale(t *testing.T) {
	const ranks = 32
	const elems = 8 << 20 / 4
	_, tMV2 := runReduce(t, MV2Baseline, DefaultOptions(), ranks, elems)
	_, tOMPI := runReduce(t, OpenMPIBaseline, DefaultOptions(), ranks, elems)
	if tMV2 >= tOMPI {
		t.Errorf("32MB/32 ranks: MV2 %v should beat OpenMPI %v", tMV2, tOMPI)
	}
}

func TestAllreduceCorrect(t *testing.T) {
	const ranks = 6
	w := newWorld(t, 2, 4, ranks)
	c := w.WorldComm()
	red := NewReducer(c, Binomial, DefaultOptions())
	results := make([][]float32, ranks)
	bcast := make([][]*mpi.Request, ranks)
	// Reduce to the root, then its broadcast.
	pl := sched.NewPlan()
	pl.AddSplice(sched.Reduce, "", "", func(x *sched.Ctx) (*sched.Plan, *gpu.Buffer, int) {
		return red.Fragment(x.R, x.Buf), x.Buf, x.Tag
	})
	pl.Add(0, sched.PostBcast, "", "", func(x *sched.Ctx) {
		bcast[x.R.ID] = []*mpi.Request{x.R.Ibcast(c, 0, x.Buf, topology.ModeAuto)}
	})
	pl.Add(0, sched.WaitBcast, "", "", func(x *sched.Ctx) {
		results[x.R.ID] = append([]float32(nil), x.Buf.Data...)
	}).Awaiting(func(x *sched.Ctx) []*mpi.Request { return bcast[x.R.ID] })
	pl.Seal()
	walks := make([]sched.Walk, ranks)
	_, err := w.RunSteps(func(r *mpi.Rank) sim.Stepper {
		buf := gpu.NewDataBuffer(17)
		buf.Fill(float32(r.ID + 1))
		return walks[r.ID].Start(r, pl, buf, 50, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	want := float32(ranks * (ranks + 1) / 2)
	for i, res := range results {
		for _, v := range res {
			if v != want {
				t.Fatalf("rank %d allreduce = %v, want %v", i, v, want)
			}
		}
	}
}

func TestRingAllreduceCorrect(t *testing.T) {
	for _, ranks := range []int{2, 3, 4, 7, 8} {
		w := newWorld(t, 2, 4, ranks)
		c := w.WorldComm()
		results := make([][]float32, ranks)
		plan := reducePlan(NewRing(c, DefaultOptions()), nil)
		_, err := w.RunSteps(func(r *mpi.Rank) sim.Stepper {
			buf := gpu.NewDataBuffer(53)
			buf.Fill(float32(c.Rank(r) + 1))
			return &reduceCalls{r: r, plan: plan, bufs: []*gpu.Buffer{buf}, tag: 100, ended: func(int) {
				results[c.Rank(r)] = append([]float32(nil), buf.Data...)
			}}
		})
		if err != nil {
			t.Fatal(err)
		}
		want := float32(ranks * (ranks + 1) / 2)
		for i, res := range results {
			for j, v := range res {
				if v != want {
					t.Fatalf("ranks=%d rank %d elem %d = %v, want %v", ranks, i, j, v, want)
				}
			}
		}
	}
}

func TestReducerNames(t *testing.T) {
	w := newWorld(t, 4, 4, 16)
	c := w.WorldComm()
	o := DefaultOptions()
	cases := map[Algorithm]string{
		Binomial:        "binomial",
		Chain:           "chain",
		ChainChain:      "CC-8",
		ChainBinomial:   "CB-8",
		Tuned:           "HR(tuned)",
		MV2Baseline:     "MV2",
		OpenMPIBaseline: "OpenMPI",
	}
	for alg, want := range cases {
		if got := NewReducer(c, alg, o).Name(); got != want {
			t.Errorf("%v reducer name = %q, want %q", alg, got, want)
		}
	}
}

func TestAlgorithmString(t *testing.T) {
	if Algorithm(99).String() != "unknown" {
		t.Error("unknown algorithm should stringify as unknown")
	}
	if Tuned.String() != "HR(tuned)" {
		t.Errorf("Tuned = %q", Tuned.String())
	}
}

func TestTunedSelection(t *testing.T) {
	w := newWorld(t, 48, 4, 160)
	c := w.WorldComm()
	tr := newTuned(c, DefaultOptions())
	if got := tr.Select(64 << 10).Name(); got != "binomial" {
		t.Errorf("64KB@160 -> %s, want binomial", got)
	}
	if got := tr.Select(64 << 20).Name(); got != "CB-8" {
		t.Errorf("64MB@160 -> %s, want CB-8", got)
	}
	w2 := newWorld(t, 8, 4, 32)
	tr2 := newTuned(w2.WorldComm(), DefaultOptions())
	if got := tr2.Select(64 << 20).Name(); got != "CC-8" {
		t.Errorf("64MB@32 -> %s, want CC-8", got)
	}
	w3 := newWorld(t, 2, 4, 8)
	tr3 := newTuned(w3.WorldComm(), DefaultOptions())
	if got := tr3.Select(64 << 20).Name(); got != "chain" {
		t.Errorf("64MB@8 -> %s, want chain", got)
	}
}

func TestDefaultChunks(t *testing.T) {
	if got := defaultChunks(256<<20, 0); got != 64 {
		t.Errorf("256MB -> %d chunks, want 64 (cap)", got)
	}
	if got := defaultChunks(1<<20, 0); got != 4 {
		t.Errorf("1MB -> %d chunks, want 4 (floor)", got)
	}
	if got := defaultChunks(8<<20, 17); got != 17 {
		t.Errorf("explicit chunks ignored: got %d", got)
	}
	if got := defaultChunks(100<<10, 0); got < 1 {
		t.Errorf("tiny buffer -> %d chunks", got)
	}
}

func TestCostModelEq1Eq2(t *testing.T) {
	p := CostParams{Alpha: 10e-6, Beta: 10e9}
	// Eq. 1: log2(8)=3 steps.
	if got, want := BinomialTime(p, 8, 8e6), 3*p.T(8e6); math.Abs(got-want) > 1e-12 {
		t.Errorf("BinomialTime = %v, want %v", got, want)
	}
	// Eq. 2: (n+P-2)*t(c).
	if got, want := ChainTime(p, 8, 4, 8e6), 10*p.T(2e6); math.Abs(got-want) > 1e-12 {
		t.Errorf("ChainTime = %v, want %v", got, want)
	}
	if BinomialTime(p, 1, 1e6) != 0 || ChainTime(p, 1, 4, 1e6) != 0 {
		t.Error("single-process reductions are free")
	}
}

func TestCostModelCrossovers(t *testing.T) {
	p := CostParams{Alpha: 10e-6, Beta: 10e9}
	big := 64e6
	small := 4e3
	// Large buffer, small P: a 64-chunk pipeline wins (paper's first
	// observation).
	if ChainTime(p, 8, 64, big) >= BinomialTime(p, 8, big) {
		t.Error("Eq2 should beat Eq1 for large b, small P")
	}
	// Small buffer, large P: binomial wins (second observation).
	if BinomialTime(p, 128, small) >= ChainTime(p, 128, 4, small) {
		t.Error("Eq1 should beat Eq2 for small b, large P")
	}
}

func TestCrossoverProcs(t *testing.T) {
	p := CostParams{Alpha: 10e-6, Beta: 10e9}
	x := CrossoverProcs(p, 8, 4e6, 256)
	if x <= 8 || x > 256 {
		t.Errorf("crossover P = %d; expected a moderate chain-friendly range", x)
	}
	// Larger buffers (smaller latency fraction) keep the chain
	// competitive to larger P.
	x2 := CrossoverProcs(p, 8, 256e6, 256)
	if x2 < x {
		t.Errorf("crossover should not shrink with buffer size: %d -> %d", x, x2)
	}
	// Tiny buffers are latency-bound: the chain never wins.
	if x0 := CrossoverProcs(p, 8, 64, 256); x0 != 2 {
		t.Errorf("64-byte crossover = %d, want 2 (chain never wins)", x0)
	}
}

// TestCrossoverProcsBoundary checks CrossoverProcs against the model
// it scans: the chain is strictly faster one rank below the returned
// count (when that count is above 2, the value meaning the chain never
// wins), and the binomial tree is no slower at every count from the
// returned one up to maxProcs.
func TestCrossoverProcsBoundary(t *testing.T) {
	for _, tc := range []struct {
		p        CostParams
		chunks   int
		bytes    float64
		maxProcs int
	}{
		{CostParams{Alpha: 10e-6, Beta: 10e9}, 8, 4e6, 256},
		{CostParams{Alpha: 10e-6, Beta: 10e9}, 8, 256e6, 256},
		{CostParams{Alpha: 10e-6, Beta: 10e9}, 8, 64, 256},
		{CostParams{Alpha: 2e-6, Beta: 6e9}, 16, 1 << 20, 1024},
		{CostParams{Alpha: 2e-6, Beta: 6e9}, 4, 1 << 16, 128},
		{CostParams{Alpha: 2e-6, Beta: 6e9}, 32, 64 << 20, 16}, // the chain wins throughout
	} {
		x := CrossoverProcs(tc.p, tc.chunks, tc.bytes, tc.maxProcs)
		if x < 2 || x > tc.maxProcs+1 {
			t.Errorf("%+v: crossover %d outside [2, %d]", tc, x, tc.maxProcs+1)
			continue
		}
		if below := x - 1; x > 2 && ChainTime(tc.p, below, tc.chunks, tc.bytes) >= BinomialTime(tc.p, below, tc.bytes) {
			t.Errorf("%+v: crossover %d, but the chain does not win at P = %d", tc, x, below)
		}
		for procs := x; procs <= tc.maxProcs; procs++ {
			if BinomialTime(tc.p, procs, tc.bytes) > ChainTime(tc.p, procs, tc.chunks, tc.bytes) {
				t.Errorf("%+v: crossover %d, but the chain still wins at P = %d", tc, x, procs)
				break
			}
		}
	}
}

func TestReduceDeterministicTiming(t *testing.T) {
	_, t1 := runReduce(t, ChainBinomial, DefaultOptions(), 16, 1<<18)
	_, t2 := runReduce(t, ChainBinomial, DefaultOptions(), 16, 1<<18)
	if t1 != t2 {
		t.Errorf("identical runs produced different times: %v vs %v", t1, t2)
	}
}

func TestPayloadFreeMatchesPayloadTiming(t *testing.T) {
	// Timing must not depend on whether buffers carry real payloads, for
	// any family.
	for _, f := range families() {
		checkReduce(t, f, 8, 0, 1<<18, DefaultOptions(), 0)
	}
}

func TestRabenseifnerReduceCorrect(t *testing.T) {
	for _, ranks := range []int{2, 4, 8, 16} {
		for _, elems := range []int{7, 16, 61, 256} { // uneven and even splits
			w := newWorld(t, (ranks+3)/4, 4, ranks)
			c := w.WorldComm()
			var got []float32
			plan := reducePlan(NewReducer(c, Rabenseifner, DefaultOptions()), nil)
			_, err := w.RunSteps(func(r *mpi.Rank) sim.Stepper {
				buf := gpu.NewDataBuffer(elems)
				buf.Fill(float32(c.Rank(r) + 1))
				return &reduceCalls{r: r, plan: plan, bufs: []*gpu.Buffer{buf}, tag: 40, ended: func(int) {
					if c.Rank(r) == 0 {
						got = append([]float32(nil), buf.Data...)
					}
				}}
			})
			if err != nil {
				t.Fatalf("ranks=%d elems=%d: %v", ranks, elems, err)
			}
			want := float32(ranks * (ranks + 1) / 2)
			for i, v := range got {
				if v != want {
					t.Fatalf("ranks=%d elems=%d elem %d = %v, want %v", ranks, elems, i, v, want)
				}
			}
		}
	}
}

// TestRabenseifnerFewerElemsThanRanks: with fewer elements than ranks
// some gathered parts are empty, and neither side posts one, so a later
// call with the same tag matches only its own messages: a call on 3
// elements, then one on 64, both sum exactly and leave no request live.
// When the sender still sent its empty part, the second call's receive
// matched that stale 0-byte message and the run panicked with a size
// mismatch.
func TestRabenseifnerFewerElemsThanRanks(t *testing.T) {
	for _, ranks := range []int{8, 16} {
		w := newWorld(t, ranks/4, 4, ranks)
		c := w.WorldComm()
		plan := reducePlan(NewReducer(c, Rabenseifner, DefaultOptions()), nil)
		got := map[int][]float32{}
		_, err := w.RunSteps(func(r *mpi.Rank) sim.Stepper {
			var bufs []*gpu.Buffer
			for _, elems := range []int{3, 64} {
				buf := gpu.NewDataBuffer(elems)
				buf.Fill(float32(c.Rank(r) + 1))
				bufs = append(bufs, buf)
			}
			return &reduceCalls{r: r, plan: plan, bufs: bufs, tag: 40, ended: func(i int) {
				if c.Rank(r) == 0 {
					got[len(bufs[i].Data)] = bufs[i].Data
				}
			}}
		})
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		want := float32(ranks * (ranks + 1) / 2)
		for _, elems := range []int{3, 64} {
			if len(got[elems]) != elems {
				t.Fatalf("ranks=%d: the root reduced %d elements, want %d", ranks, len(got[elems]), elems)
			}
			for i, v := range got[elems] {
				if v != want {
					t.Fatalf("ranks=%d elems=%d elem %d = %v, want %v", ranks, elems, i, v, want)
				}
			}
		}
		for _, r := range w.Ranks {
			if n := r.LiveRequests(); n != 0 {
				t.Errorf("ranks=%d: rank %d ended with %d live requests", ranks, r.ID, n)
			}
		}
	}
}

func TestRabenseifnerNonPowerOfTwoFallsBack(t *testing.T) {
	const ranks = 6
	w := newWorld(t, 2, 4, ranks)
	c := w.WorldComm()
	var got []float32
	plan := reducePlan(NewReducer(c, Rabenseifner, DefaultOptions()), nil)
	_, err := w.RunSteps(func(r *mpi.Rank) sim.Stepper {
		buf := gpu.NewDataBuffer(19)
		buf.Fill(float32(c.Rank(r) + 1))
		return &reduceCalls{r: r, plan: plan, bufs: []*gpu.Buffer{buf}, tag: 40, ended: func(int) {
			if c.Rank(r) == 0 {
				got = append([]float32(nil), buf.Data...)
			}
		}}
	})
	if err != nil {
		t.Fatal(err)
	}
	expectSum(t, got, ranks)
}

func TestRabenseifnerBandwidthAdvantage(t *testing.T) {
	// 2b(P-1)/P traffic per rank should beat the binomial tree's
	// b·log2(P) for large buffers.
	const ranks, elems = 16, 32 << 20 / 4
	w := newWorld(t, 4, 4, ranks)
	plan := reducePlan(NewReducer(w.WorldComm(), Rabenseifner, DefaultOptions()), nil)
	rsg, err := w.RunSteps(func(r *mpi.Rank) sim.Stepper {
		return &reduceCalls{r: r, plan: plan, bufs: []*gpu.Buffer{gpu.NewBuffer(elems * 4)}, tag: 40}
	})
	if err != nil {
		t.Fatal(err)
	}
	_, bin := runReduce(t, Binomial, DefaultOptions(), ranks, elems)
	if rsg >= bin {
		t.Errorf("32MB/16 ranks: Rabenseifner (%v) should beat binomial (%v)", rsg, bin)
	}
}

// TestEveryReducerRunsAsSteps: every family's fragment, spliced into a
// plan that a rank with no goroutine walks (mpi.World.RunSteps,
// sched.Walk.Start), makes no coroutine switch at any size, checksums
// armed or not: each of its waits is a step on the event loop.
func TestEveryReducerRunsAsSteps(t *testing.T) {
	const calls = 4
	for _, f := range families() {
		for _, p := range []int{2, 13, 160} {
			for _, armed := range []bool{false, true} {
				w := newWorld(t, (p+3)/4, 4, p)
				if armed {
					w.Integrity = &mpi.Integrity{Mode: mpi.IntegrityRecover, RetryBudget: 2}
				}
				pl := reducePlan(f.build(w.WorldComm(), DefaultOptions()), nil)
				walks := make([]sched.Walk, p)
				if _, err := w.RunSteps(func(r *mpi.Rank) sim.Stepper {
					return walks[r.ID].Start(r, pl, gpu.NewDataBuffer(1<<12), 10, calls)
				}); err != nil {
					t.Fatal(err)
				}
				if r := w.K.Resumes(); r.Switches != 0 || r.Steps < calls {
					t.Errorf("%s P=%d armed=%v: resumes %+v, want steps and no switch", f.name, p, armed, r)
				}
			}
		}
	}
}
