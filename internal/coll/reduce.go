package coll

import (
	"fmt"

	"scaffe/internal/gpu"
	"scaffe/internal/mpi"
	"scaffe/internal/sched"
	"scaffe/internal/sim"
	"scaffe/internal/topology"
)

// A reducer is compiled, not walked by hand. Each flat algorithm is a
// tier over one communicator, where what a rank does depends only on its
// role, so a reducer compiles one sealed sched.Plan fragment per role,
// when a rank of it first calls: O(log P) fragments for P ranks. Nodes
// find the rank's place and state, and a stage its number, at run time.
// A receive stage is two nodes: the post of its checksummed receive and
// whatever it sends, then, the receive in, its checksum settled and the
// reduction, which occupies the lane until its kernel ends. The nodes
// make the calls the blocking algorithm made, in its order, so the
// events are the blocking reducer's (TestReduceFamiliesPinned).

// reducer is every Reducer: a name, a state table, a fragment finder.
type reducer struct {
	name string
	tab  *stateTable
	frag func(r *mpi.Rank, buf *gpu.Buffer) *sched.Plan
}

func (x *reducer) Name() string { return x.name }

func (x *reducer) Fragment(r *mpi.Rank, buf *gpu.Buffer) *sched.Plan { return x.frag(r, buf) }

func (x *reducer) Reduce(r *mpi.Rank, buf *gpu.Buffer, tag int) {
	if frag := x.frag(r, buf); frag != nil {
		x.tab.acquire(r.W.Size(), r.ID).steps.Run(r, frag, buf, tag)
	}
}

// role is all a rank's fragment depends on: algorithm, size (but a
// chain's), receive rounds n (a chain's chunks), neighbours to and from.
type role struct {
	alg        Algorithm
	size, n    int
	recv, send bool
}

// ringAllreduce is the Ring's tier algorithm.
const ringAllreduce Algorithm = -1

// tier is one flat algorithm — binomial, chain, MV2, OpenMPI,
// Rabenseifner or the ring — over a communicator (for a hierarchical
// design's lower level: chains over segments of seg consecutive ranks).
type tier struct {
	alg Algorithm
	o   Options
	c   *mpi.Comm
	seg int
	tab *stateTable
}

// flat is the reducer of algorithm alg over c alone.
func flat(alg Algorithm, o Options, tab *stateTable, c *mpi.Comm) *reducer {
	return &reducer{alg.String(), tab, (&tier{alg, o, c, c.Size(), tab}).fragment}
}

func (t *tier) fragment(r *mpi.Rank, buf *gpu.Buffer) *sched.Plan {
	me := t.c.GroupRank(r.ID)
	if me < 0 {
		return nil
	}
	root := me - me%t.seg
	size := min(t.seg, t.c.Size()-root)
	if size == 1 {
		return nil
	}
	st := t.tab.acquire(r.W.Size(), r.ID)
	st.c, st.me, st.root = t.c, me, root
	ro := t.role(me-root, size, buf)
	if t.tab.frags[ro] == nil {
		t.tab.frags[ro] = t.compile(ro)
	}
	return t.tab.frags[ro]
}

// role is the role of the rank me places from its reduction's root, in
// a reduction of buf over size ranks.
func (t *tier) role(me, size int, buf *gpu.Buffer) role {
	switch t.alg {
	case Chain: // whether it sends, its root's role answers too
		elems, n := buf.Elems(), defaultChunks(buf.Bytes, t.o.Chunks)
		used := 0 // the chunks holding elements: a prefix
		if per := (elems + n - 1) / n; per > 0 {
			used = (elems + per - 1) / per
		}
		return role{alg: Chain, n: used, recv: me < size-1}
	case OpenMPIBaseline, ringAllreduce:
		return role{alg: t.alg, size: size, send: me > 0 && t.alg == OpenMPIBaseline}
	}
	// A tree: a round for every bit below the rank's lowest set one that
	// has a peer past it, then a send to the parent.
	ro := role{alg: t.alg, size: size, send: me > 0}
	for mask := 1; mask < size && me&mask == 0 && me+mask < size; mask <<= 1 {
		ro.n++
	}
	return ro
}

// state is the executing rank's state.
func (t *tier) state(x *sched.Ctx) *rankState { return &t.tab.sts[x.R.ID] }

// builder appends a fragment's nodes, with callbacks all stages share.
type builder struct {
	t                 *tier
	p                 *sched.Plan
	recvd, sent, fwds func(*sched.Ctx) []*mpi.Request // the rank's requests a node awaits
	verify            func(*sched.Ctx)                // the receive's checksum settled
	reduce            func(*sched.Ctx) sim.Time       // that, then st.acc += st.op on the GPU or CPU
	host              func(*sched.Ctx) sim.Time       // a baseline's: buf += st.op on the host
}

// compile builds the fragment of role ro.
func (t *tier) compile(ro role) *sched.Plan {
	b := t.tab.b
	if b == nil {
		b = &builder{t: t}
		b.recvd = func(x *sched.Ctx) []*mpi.Request { return t.state(x).req[:1] }
		b.sent = func(x *sched.Ctx) []*mpi.Request { return t.state(x).req[1:] }
		b.fwds = func(x *sched.Ctx) []*mpi.Request { return t.state(x).fwds }
		b.verify = func(x *sched.Ctx) { t.state(x).settled(x) }
		b.reduce = func(x *sched.Ctx) sim.Time {
			st := t.state(x)
			if !st.settled(x) {
				return 0
			}
			end := reduceEnd(x.R, st.acc, st.op, t.o)
			st.putScratch(st.op)
			return end
		}
		b.host = func(x *sched.Ctx) sim.Time {
			st := t.state(x)
			x.Buf.Accumulate(st.op)
			st.putScratch(st.op)
			return x.R.Now() + x.R.W.Cluster.ReduceTime(x.Buf.Bytes, false)
		}
		t.tab.b = b
	}
	b.p = sched.NewPlan()
	switch ro.alg {
	case Binomial:
		b.binomial(ro)
	case Chain:
		b.chain(ro)
	case MV2Baseline:
		b.mv2(ro)
	case OpenMPIBaseline:
		b.openMPI(ro)
	case Rabenseifner:
		b.rsg(ro)
	case ringAllreduce:
		b.ring(ro.size)
	}
	b.p.Seal()
	return b.p
}

func (b *builder) post(fn func(*sched.Ctx)) *sched.Node {
	return b.p.Add(0, sched.Reduce, "", "", fn)
}

func (b *builder) timed(fn func(*sched.Ctx) sim.Time) *sched.Node {
	return b.p.AddTimed(0, sched.Reduce, "", "", fn)
}

func (b *builder) join(reqs func(*sched.Ctx) []*mpi.Request) {
	b.p.Add(0, sched.Reduce, "", "", nil).Awaiting(reqs)
}

// stage appends a receive stage: post, then its checksum settled and,
// if reduce, its reduction.
func (b *builder) stage(post func(*sched.Ctx), reduce bool) {
	b.post(post)
	if reduce {
		b.timed(b.reduce).Awaiting(b.recvd)
	} else {
		b.post(b.verify).Awaiting(b.recvd)
	}
}

// sendTo appends the send of the buffer to group rank to(me), and its wait.
func (b *builder) sendTo(to func(me int) int, mode topology.TransferMode) {
	t := b.t
	b.post(func(x *sched.Ctx) {
		st := t.state(x)
		st.req[1] = x.R.Isend(st.c, to(st.me), x.Tag, x.Buf, mode)
	})
	b.join(b.sent)
}

// parent is a tree rank's parent: itself less its lowest set bit.
func parent(me int) int { return me & (me - 1) }

// binomial is the flat binomial-tree reduce of Eq. (1): log2(P) rounds,
// each moving and reducing the full buffer. A rank receives and reduces
// from the peer of every round its bit is clear in, then sends the
// partial sum to its parent.
func (b *builder) binomial(ro role) {
	t := b.t
	recv := func(x *sched.Ctx) {
		st := t.state(x)
		st.acc, st.op = x.Buf, st.getScratch(x.Buf)
		st.recv(x, st.me+1<<st.begin(), x.Tag, st.op)
	}
	for i := 0; i < ro.n; i++ {
		b.stage(recv, true)
	}
	if ro.send {
		b.sendTo(parent, t.o.Mode)
	}
}

// chain is the chunked-chain pipelined reduce of Eq. (2): the tail
// splits the buffer into n chunks; each interior rank receives a chunk
// from its right neighbour, reduces it into its own copy, and forwards
// it left; the pipeline drains at the root. The fragment walks only the
// ro.n chunks that hold elements, and serves the root and the interior
// ranks both: only the latter forward.
func (b *builder) chain(ro role) {
	t := b.t
	// chunk is the rank's view of its buffer's chunk j.
	chunk := func(x *sched.Ctx, st *rankState, j int) *gpu.Buffer {
		lo, hi := chunkBounds(x.Buf.Elems(), defaultChunks(x.Buf.Bytes, t.o.Chunks), j)
		return st.view(x.Buf, lo, hi)
	}
	// forward sends a chunk's sum, mine, on to the left neighbour.
	forward := func(x *sched.Ctx, st *rankState, mine *gpu.Buffer) {
		if st.me == st.root {
			return
		}
		if len(st.fwds) == 0 && cap(st.fwds) < ro.n {
			st.fwds = make([]*mpi.Request, 0, ro.n) // every forward is in flight before the first is waited
		}
		st.fwds = append(st.fwds, x.R.Isend(st.c, st.me-1, x.Tag, mine, t.o.Mode))
	}
	if !ro.recv { // the tail sends every chunk as it is
		b.post(func(x *sched.Ctx) {
			st := t.state(x)
			for j := 0; j < ro.n; j++ {
				forward(x, st, chunk(x, st, j))
			}
		})
	} else {
		recv := func(x *sched.Ctx) { // forward the last chunk's sum, receive the next chunk
			st := t.state(x)
			j := st.begin()
			if j > 0 {
				forward(x, st, st.acc)
			}
			if j < ro.n {
				st.acc = chunk(x, st, j)
				st.op = st.getScratch(st.acc)
				st.recv(x, st.me+1, x.Tag, st.op)
			}
		}
		for j := 0; j < ro.n; j++ {
			b.stage(recv, true)
		}
		b.post(recv)
	}
	b.join(b.fwds)
}

// newHierarchical builds the two-level design of Section 5 over c:
// lower-level chunked chains over consecutive (locality-aligned) ranks,
// then an upper-level reduce among the chain leaders at the next tag — a
// chain for CC, a binomial tree for CB, and for CCB CB over the leaders:
// the chain-of-chain plus binomial design the paper proposes for very
// large scales ("in future, we can exploit multi-level combinations like
// chain-of-chain combined with a top level binomial", Section 5). Every
// rank's fragment is the same: it splices the rank's lower fragment,
// then its upper one, which is nil off the leaders.
func newHierarchical(c *mpi.Comm, o Options, alg Algorithm, tab *stateTable) *reducer {
	_, leaders := c.SplitChains(o.ChainSize)
	var upper Reducer
	switch {
	case alg == ChainChain:
		upper = flat(Chain, o, tab, leaders)
	case alg == ChainChainBinomial && leaders.Size() > o.ChainSize:
		upper = newHierarchical(leaders, o, ChainBinomial, tab)
	default: // CB, and CCB with too few leaders for a third level: plain CB
		upper = flat(Binomial, o, tab, leaders)
	}
	lower := &tier{Chain, o, c, o.ChainSize, tab}
	frag := sched.NewPlan()
	frag.AddSplice(sched.Reduce, "", "", func(x *sched.Ctx) (*sched.Plan, *gpu.Buffer, int) {
		return lower.fragment(x.R, x.Buf), x.Buf, x.Tag
	})
	frag.AddSplice(sched.Reduce, "", "", func(x *sched.Ctx) (*sched.Plan, *gpu.Buffer, int) {
		return upper.Fragment(x.R, x.Buf), x.Buf, x.Tag + 1
	})
	frag.Seal()
	return &reducer{fmt.Sprintf("%s-%d", alg, o.ChainSize), tab, func(r *mpi.Rank, _ *gpu.Buffer) *sched.Plan {
		if c.GroupRank(r.ID) < 0 {
			return nil
		}
		return frag
	}}
}
