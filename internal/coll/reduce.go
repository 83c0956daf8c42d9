package coll

import (
	"fmt"
	"slices"

	"scaffe/internal/gpu"
	"scaffe/internal/mpi"
	"scaffe/internal/sched"
	"scaffe/internal/sim"
	"scaffe/internal/topology"
)

// A reducer is a list of steps per rank, compiled. Each family —
// binomial, chain, MV2, OpenMPI, Rabenseifner, the ring — is a function
// from a rank's role in a reduction to the steps it takes, plain values
// naming what moves between whom: the peer as an offset from the rank,
// the part of the buffer, the tag offset, the transfer mode and where a
// reduce runs. A reducer is one or more levels, each a family over a
// communicator, and a rank's list is its levels' lists one after
// another, level i at tag+i: the two- and three-level designs are
// concatenations. One compiler turns any list into a sealed sched.Plan
// fragment, at most three nodes a step, whose callbacks are the table's
// and read the rank's current step by cursor, so compiling makes no
// closure. A table compiles each distinct list once, when a rank first
// resolves it; ranks with the same list share its fragment. The nodes
// make the calls the blocking algorithm made, in its order, so the
// events are the blocking reducer's (TestReduceFamiliesPinned), and the
// lists pair every send with a receive (TestStepListsPair).

// op is what a step does. The four that post come first: op <= forward.
type op uint8

const (
	recv       op = iota // receive the part, checksummed, and settle its checksum
	recvReduce           // receive an operand shaped like the part and reduce it into the part
	send                 // send the part; a later join waits for it
	forward              // send on the part the last receive-and-reduce reduced into (a chain's partial sum)
	upload               // copy the host-reduced buffer back to the device
	join                 // wait for every send since the last join not already released
)

// reduceAt is where a receive-and-reduce step reduces.
type reduceAt uint8

const (
	onKernel     reduceAt = iota // reduceEnd, of a checksummed receive: a GPU kernel or the CPU, as Options say
	onHost                       // MV2's and OpenMPI's host reduce, of a plain receive
	onHostStaged                 // onHost after staging the local operand down to the host (MV2's first round)
)

// part is the part of the buffer a step moves.
type part uint8

const (
	whole    part = iota
	chunk         // chain chunk step.chunk of the call's pipeline
	half          // Rabenseifner: the segments of the aligned group of step.width ranks holding rank pos+step.seg
	gathered      // the same in the gather, where an empty one is neither sent nor received
	ringSeg       // the ring segment of rank pos+step.seg, modulo the size
)

// step is one step of a rank's list: plain values, so lists compare.
type step struct {
	op    op
	at    reduceAt
	part  part
	root  bool  // peer is counted from the reduction's root, not the rank
	level uint8 // the reducer level it is at: its communicator
	peer  int32 // the peer, as an offset from the rank, modulo the size
	tag   int32 // tag offset from the call's
	chunk int32
	seg   int32
	width int32
	mode  topology.TransferMode
}

// role is where a rank stands at a level on a call, and all its steps
// there depend on: the level's communicator, the rank's reduction's root
// there, its position from the root, the reduction's size, the chunks of
// the call's buffer that hold elements, and the reducer's transfer mode.
type role struct {
	c                       *mpi.Comm
	root, pos, size, chunks int
	mode                    topology.TransferMode
}

// level is a family over a communicator, in reductions of seg
// consecutive ranks: a hierarchical design's lower chains, or, with seg
// its size, the whole communicator.
type level struct {
	fam func(s []step, ro role) []step // a family: it appends the steps of role ro to s
	c   *mpi.Comm
	seg int
}

// maxLevels is the most levels a reducer has: CCB's three.
const maxLevels = 3

// role is where the rank of group rank me stands at level lv.
func (lv *level) role(me int) role {
	root := me - me%lv.seg
	return role{c: lv.c, root: root, pos: me - root, size: min(lv.seg, lv.c.Size()-root)}
}

// peer is the group rank of step s's peer, for a rank in role ro.
func (ro *role) peer(s *step) int {
	pos := ro.pos
	if s.root {
		pos = 0
	}
	return ro.root + (pos+int(s.peer)+ro.size)%ro.size
}

// extent is the element range of step s's part, for a rank at pos of a
// reduction of size over elems elements pipelined in n chunks.
func (s *step) extent(pos, size, elems, n int) (lo, hi int) {
	switch s.part {
	case chunk:
		return segment(n, elems, int(s.chunk))
	case half, gathered:
		g := (pos + int(s.seg)) &^ (int(s.width) - 1)
		return rsgSegStart(size, elems, g), rsgSegStart(size, elems, g+int(s.width))
	case ringSeg:
		return segment(size, elems, pos+int(s.seg))
	}
	return 0, elems
}

// segment is the element range of part j, modulo n, of elems elements
// cut into n parts of equal size, the last shorter and any past the end
// empty: a chain's pipeline chunk, a ring's segment.
func segment(n, elems, j int) (lo, hi int) {
	per := (elems + n - 1) / n
	lo = (j%n + n) % n * per
	hi = min(lo+per, elems)
	return min(lo, hi), hi
}

// resolve appends rank id's steps for a call on buf to s, and records
// its group rank at each level in me.
func resolve(s []step, levels []level, o Options, id int, buf *gpu.Buffer, me *[maxLevels]int32) []step {
	elems, n, used := buf.Elems(), defaultChunks(buf.Bytes, o.Chunks), 0
	if per := (elems + n - 1) / n; per > 0 {
		used = (elems + per - 1) / per // the chunks holding elements: a prefix
	}
	for i := range levels {
		g := levels[i].c.GroupRank(id)
		if g < 0 {
			break // a rank at no level is at none above it
		}
		me[i] = int32(g)
		if ro := levels[i].role(g); ro.size > 1 {
			ro.chunks, ro.mode = used, o.Mode
			from := len(s)
			s = levels[i].fam(s, ro)
			for k := from; k < len(s); k++ {
				s[k].level, s[k].tag = uint8(i), s[k].tag+int32(i)
			}
		}
	}
	return s
}

// compiled is a step list and its fragment, one of a table's.
type compiled struct {
	steps []step
	plan  *sched.Plan
	next  *compiled // the table's next list of the same hash
}

// fragment readies rank r's state for a call of the reducer of the given
// levels on buf and returns the fragment of its steps, or nil if it has
// none. A rank that calls the same levels on as many bytes as last time
// has the same steps, and is not resolved again.
func (t *stateTable) fragment(r *mpi.Rank, buf *gpu.Buffer, levels []level) *sched.Plan {
	st := t.acquire(r.W.Size(), r.ID)
	if st.frag == nil || &st.levels[0] != &levels[0] || st.bytes != buf.Bytes {
		st.levels, st.bytes = levels, buf.Bytes
		t.scratch = resolve(t.scratch[:0], levels, t.o, r.ID, buf, &st.me)
		st.frag = t.lookup(t.scratch)
	}
	return st.frag.plan
}

// lookup returns the table's entry for steps, compiling it if the table
// has none; an empty list's has no fragment. The hash only narrows the
// search: equality decides.
func (t *stateTable) lookup(steps []step) *compiled {
	h := uint64(len(steps))
	for _, s := range steps {
		h = (h ^ uint64(s.op)<<56 ^ uint64(s.level)<<48 ^ uint64(uint32(s.peer))<<16 ^ uint64(uint32(s.chunk+s.seg+s.tag))) * 1099511628211
	}
	for f := t.frags[h]; f != nil; f = f.next {
		if slices.Equal(f.steps, steps) {
			return f
		}
	}
	f := &compiled{steps: slices.Clone(steps)}
	if len(steps) > 0 {
		t.compile(f)
	}
	f.next, t.frags[h] = t.frags[h], f
	return f
}

// nodes are the callbacks of every fragment a table compiles.
type nodes struct {
	begin, settle         func(*sched.Ctx)
	reduce, stage, upload func(*sched.Ctx) sim.Time
	received, sent        func(*sched.Ctx) []*mpi.Request
}

// compile builds the fragment of f's steps: each step is the node that
// takes it and posts what it sends or receives, then the nodes that wait
// for what it posted and do what follows. The plan carves its nodes in
// one chunk of exactly their number (nodeCount).
func (t *stateTable) compile(f *compiled) {
	n := t.nodes
	f.plan = sched.NewPlan()
	f.plan.Grow(0, nodeCount(f.steps))
	add := func(fn func(*sched.Ctx)) *sched.Node { return f.plan.Add(0, sched.Reduce, "", "", fn) }
	timed := func(fn func(*sched.Ctx) sim.Time) *sched.Node { return f.plan.AddTimed(0, sched.Reduce, "", "", fn) }
	posting := false // the last node posts, and a post after a send joins it
	for _, s := range f.steps {
		if s.op <= forward && !posting {
			add(n.begin)
		}
		posting = s.op == send || s.op == forward
		switch s.op {
		case recv:
			add(n.settle).Awaiting(n.received)
		case recvReduce:
			if s.at == onHostStaged {
				timed(n.stage).Awaiting(n.received)
			}
			timed(n.reduce).Awaiting(n.received)
		case upload:
			timed(n.upload)
		case join:
			add(n.begin).Awaiting(n.sent)
		}
	}
	f.plan.Seal()
}

// nodeCount is how many nodes compile makes of steps: a begin before the
// first of a run of posts, as many as a receive's wait and what follows
// it take, and one for an upload and for a join.
func nodeCount(steps []step) int {
	n, posting := 0, false
	for _, s := range steps {
		if s.op <= forward && !posting {
			n++
		}
		posting = s.op == send || s.op == forward
		switch {
		case s.op == recvReduce && s.at == onHostStaged:
			n += 2
		case s.op == recv, s.op == recvReduce, s.op == upload, s.op == join:
			n++
		}
	}
	return n
}

// begin takes the rank's next steps and posts what they receive and
// send: every step up to a receive, whose wait comes next, or to one no
// post follows. A join, its sends waited, takes its step alone and
// starts the next sends' list.
func (t *stateTable) begin(x *sched.Ctx) {
	st := &t.sts[x.R.ID]
	steps := st.frag.steps
	if steps[st.cursor].op == join {
		st.cursor++
		st.sends = st.sends[:0]
		return
	}
	for {
		s := &steps[st.cursor]
		st.cursor++
		st.start(x, s, t.o)
		if s.op <= recvReduce || st.cursor == len(steps) || steps[st.cursor].op > forward {
			return
		}
	}
}

// start posts step s's receive or send.
func (st *rankState) start(x *sched.Ctx, s *step, o Options) {
	at := st.levels[s.level].role(int(st.me[s.level]))
	c, peer, tag := at.c, at.peer(s), x.Tag+int(s.tag)
	into := st.acc // a forward's
	if s.op != forward {
		lo, hi := s.extent(at.pos, at.size, x.Buf.Elems(), defaultChunks(x.Buf.Bytes, o.Chunks))
		if s.part == gathered && lo >= hi { // both sides see it empty, and neither posts
			st.req[0], st.sum = nil, nil
			return
		}
		if into = x.Buf; s.part != whole {
			into = st.view(x.Buf, lo, hi)
		}
	}
	switch s.op {
	case recv:
		st.req[0], st.sum = x.R.IrecvSummed(c, peer, tag, into)
	case recvReduce:
		st.acc, st.op = into, st.getScratch(into)
		if s.at == onKernel {
			st.req[0], st.sum = x.R.IrecvSummed(c, peer, tag, st.op)
		} else {
			st.req[0] = x.R.Irecv(c, peer, tag, st.op)
		}
	default: // send, forward
		st.post(x.R, x.R.Isend(c, peer, tag, into, s.mode))
	}
}

// settle settles the receive's checksum.
func (t *stateTable) settle(x *sched.Ctx) { t.sts[x.R.ID].settled(x) }

// reduce adds the received operand into the part of the step the
// cursor just passed, on the host for a host reduce, else, the receive's
// checksum settled, on the GPU or CPU; and holds the lane until done.
func (t *stateTable) reduce(x *sched.Ctx) sim.Time {
	st := &t.sts[x.R.ID]
	if st.frag.steps[st.cursor-1].at != onKernel {
		st.acc.Accumulate(st.op)
		st.putScratch(st.op)
		return x.R.Now() + x.R.W.Cluster.ReduceTime(st.acc.Bytes, false)
	}
	if !st.settled(x) {
		return 0
	}
	end := reduceEnd(x.R, st.acc, st.op, t.o)
	st.putScratch(st.op)
	return end
}

// stage, the operand received, stages the local one down to the host
// (overlapped with nothing: MV2's reduce is blocking).
func (t *stateTable) stage(x *sched.Ctx) sim.Time {
	st := &t.sts[x.R.ID]
	st.req[0] = nil // waited: the reduce has nothing to await
	_, end := x.R.W.Cluster.Transfer(x.R.Now(), x.R.Dev.ID, topology.HostOf(x.R.Dev.ID.Node), st.acc.Bytes, topology.ModeAuto)
	return end
}

// upload takes its step and returns the root's host-reduced result to
// its device.
func (t *stateTable) upload(x *sched.Ctx) sim.Time {
	t.sts[x.R.ID].cursor++
	_, end := x.R.W.Cluster.Transfer(x.R.Now(), topology.HostOf(x.R.Dev.ID.Node), x.R.Dev.ID, x.Buf.Bytes, topology.ModeAuto)
	return end
}

func (t *stateTable) received(x *sched.Ctx) []*mpi.Request { return t.sts[x.R.ID].req[:1] }

func (t *stateTable) sent(x *sched.Ctx) []*mpi.Request { return t.sts[x.R.ID].sends }

// reducer is every Reducer: a name, a state table, and its levels — or,
// for HR, the candidates each call picks its levels from.
type reducer struct {
	name   string
	tab    *stateTable
	levels []level
	tuned  *tunedReducer
}

func (x *reducer) Name() string { return x.name }

func (x *reducer) Fragment(r *mpi.Rank, buf *gpu.Buffer) *sched.Plan {
	if x.tuned != nil {
		return x.tuned.Select(buf.Bytes).Fragment(r, buf)
	}
	return x.tab.fragment(r, buf, x.levels)
}

func (x *reducer) Reduce(r *mpi.Rank, buf *gpu.Buffer, tag int) {
	if frag := x.Fragment(r, buf); frag != nil {
		x.tab.sts[r.ID].walk.Run(r, frag, buf, tag)
	}
}

// flat is the reducer of family fam over c alone.
func flat(name string, fam func([]step, role) []step, tab *stateTable, c *mpi.Comm) *reducer {
	return &reducer{name: name, tab: tab, levels: []level{{fam, c, c.Size()}}}
}

// newHierarchical builds the two-level design of Section 5 over c:
// lower-level chunked chains over consecutive (locality-aligned) ranks,
// then an upper-level reduce among the chain leaders — a chain for CC, a
// binomial tree for CB, and for CCB CB over the leaders: the
// chain-of-chain plus binomial design the paper proposes for very large
// scales ("in future, we can exploit multi-level combinations like
// chain-of-chain combined with a top level binomial", Section 5).
func newHierarchical(c *mpi.Comm, o Options, alg Algorithm, tab *stateTable) *reducer {
	_, leaders := c.SplitChains(o.ChainSize)
	upper := []level{{binomial, leaders, leaders.Size()}} // CB, and CCB with too few leaders for a third level
	switch {
	case alg == ChainChain:
		upper[0].fam = chain
	case alg == ChainChainBinomial && leaders.Size() > o.ChainSize:
		upper = newHierarchical(leaders, o, ChainBinomial, tab).levels
	}
	return &reducer{name: fmt.Sprintf("%s-%d", alg, o.ChainSize), tab: tab, levels: append([]level{{chain, c, o.ChainSize}}, upper...)}
}

// binomial is the flat binomial-tree reduce of Eq. (1): log2(P) rounds,
// each moving and reducing the full buffer.
func binomial(s []step, ro role) []step {
	return tree(s, ro, onKernel, onKernel, ro.mode)
}

// tree appends a binomial tree's steps: a rank receives and reduces, at
// first the first time and then at rest, from the peer of every round
// its bit is clear in, then sends the partial sum to its parent in mode.
func tree(s []step, ro role, first, rest reduceAt, mode topology.TransferMode) []step {
	for mask := 1; mask < ro.size && ro.pos&mask == 0 && ro.pos+mask < ro.size; mask <<= 1 {
		s = append(s, step{op: recvReduce, at: first, peer: int32(mask)})
		first = rest
	}
	if ro.pos > 0 {
		s = append(s, step{op: send, peer: -int32(ro.pos & -ro.pos), mode: mode}, step{op: join})
	}
	return s
}

// chain is the chunked-chain pipelined reduce of Eq. (2): the tail
// splits the buffer into n chunks; each interior rank receives a chunk
// from its right neighbour, reduces it into its own copy, and forwards
// it left; the pipeline drains at the root. Only the chunks that hold
// elements move.
func chain(s []step, ro role) []step {
	for j := range int32(ro.chunks) {
		if ro.pos == ro.size-1 { // the tail sends every chunk as it is
			s = append(s, step{op: send, peer: -1, part: chunk, chunk: j, mode: ro.mode})
			continue
		}
		s = append(s, step{op: recvReduce, peer: 1, part: chunk, chunk: j})
		if ro.pos > 0 {
			s = append(s, step{op: forward, peer: -1, part: chunk, chunk: j, mode: ro.mode})
		}
	}
	if ro.pos > 0 {
		s = append(s, step{op: join})
	}
	return s
}
