package coll

import (
	"fmt"

	"scaffe/internal/gpu"
	"scaffe/internal/mpi"
	"scaffe/internal/sim"
)

// recvStage is the unit the chain and binomial reducers repeat: receive
// a checksummed operand, verify it, reduce it into the accumulator. It
// is written for a sim.Stepper: step never parks, and names what its
// caller's Step must do next.
type recvStage struct {
	req     *mpi.Request
	sum     *mpi.Summed
	acc, op *gpu.Buffer // acc += op once op has arrived
	w       mpi.Waiter  // of the stepper's one wait in flight: the stage's, or a send's between stages
	at      stageAt
}

type stageAt uint8

const (
	stageIdle   stageAt = iota
	stageRecv           // the receive is posted and not yet complete
	stageVerify         // the checksum mismatched: Verify must run on the goroutine
	stageReduce         // the reduction is charged and not yet finished
)

type stageNext uint8

const (
	stageDone  stageNext = iota // acc holds the sum: go on
	stagePark                   // a wait is armed: Step returns false
	stageStack                  // Verify needs a stack: Step returns true
)

// post starts a stage: acc += what `from` sends under tag, received
// into op.
func (g *recvStage) post(r *mpi.Rank, c *mpi.Comm, from, tag int, acc, op *gpu.Buffer) {
	g.req, g.sum = r.IrecvSummed(c, from, tag, op)
	g.acc, g.op, g.at = acc, op, stageRecv
}

// step advances a posted stage as far as it goes without parking.
//
//scaffe:hotpath
func (g *recvStage) step(p *sim.Proc, r *mpi.Rank, o Options) stageNext {
	switch g.at {
	case stageRecv:
		if !r.PollRequest(&g.w, g.req) {
			return stagePark
		}
		if !g.sum.TryVerify() {
			g.at = stageVerify
			return stageStack
		}
		fallthrough
	case stageVerify: // run has settled the handle
		g.at = stageReduce
		p.ArmUntil(reduceEnd(r, g.acc, g.op, o))
		return stagePark
	}
	g.at = stageIdle
	return stageDone
}

// run drives stepper s, whose receives go through g, to its end on the
// rank's main proc: the steps on the event loop, and a mismatched
// checksum's retransmission — which waits on the wire, and may unwind
// with Revoked — here, on the goroutine.
func (g *recvStage) run(p *sim.Proc, s sim.Stepper) {
	for p.RunSteps(s); g.at == stageVerify; p.RunSteps(s) {
		g.sum.Verify()
	}
}

// binomialReducer implements the flat binomial-tree reduce of Eq. (1):
// log2(P) rounds, each moving and reducing the full buffer.
type binomialReducer struct {
	c      *mpi.Comm
	o      Options
	states stateTable
}

func (b *binomialReducer) Name() string { return "binomial" }

//scaffe:hotpath
func (b *binomialReducer) Reduce(r *mpi.Rank, buf *gpu.Buffer, tag int) {
	me := b.c.Rank(r)
	size := b.c.Size()
	if size == 1 {
		return
	}
	st := b.states.acquire(size, me)
	defer st.release()
	st.step = stepState{r: r, c: b.c, o: &b.o, st: st, buf: buf, tag: tag, me: me, size: size, mask: 1}
	s := (*binomialStep)(&st.step)
	s.recv.run(r.Proc, s)
}

// stepState is the storage of a rank's walk through one reduction on
// one reducer instance. An instance is a binomial tree or a chain,
// never both, so the two steppers are two views of the one record a
// rankState holds.
type stepState struct {
	r    *mpi.Rank
	c    *mpi.Comm
	o    *Options
	st   *rankState
	buf  *gpu.Buffer
	tag  int
	recv recvStage

	// binomialStep
	me, size int
	mask     int // the round being walked
	scratch  *gpu.Buffer
	send     *mpi.Request // the final send to the parent, once posted

	// chainStep
	from, to int // neighbours' group ranks; -1 for the tail's from and the root's to
	n        int // chunks
	j        int // the chunk being worked on
	drained  int // forwards (st.sreqs) already waited
}

// binomialStep is one rank's walk up the tree: receive and reduce from
// the peer of every round its bit is clear in, then send the partial
// sum to the parent and leave.
type binomialStep stepState

//scaffe:hotpath
func (s *binomialStep) Step(p *sim.Proc) bool {
	r := s.r
	for {
		if s.send != nil {
			return r.PollRequest(&s.recv.w, s.send)
		}
		if s.recv.at != stageIdle {
			switch s.recv.step(p, r, *s.o) {
			case stagePark:
				return false
			case stageStack:
				return true
			}
			s.mask <<= 1
		}
		switch {
		case s.mask >= s.size: // the root, past its last round
			s.putScratch()
			return true
		case s.me&s.mask != 0:
			s.putScratch()
			s.send = r.Isend(s.c, s.me-s.mask, s.tag, s.buf, s.o.Mode)
		case s.me+s.mask >= s.size:
			s.mask <<= 1
		default:
			if s.scratch == nil {
				s.scratch = s.st.getScratch(s.buf)
			}
			s.recv.post(r, s.c, s.me+s.mask, s.tag, s.buf, s.scratch)
		}
	}
}

func (s *binomialStep) putScratch() {
	if s.scratch != nil {
		s.st.putScratch(s.scratch)
		s.scratch = nil
	}
}

// chainReducer implements the chunked-chain pipelined reduce of
// Eq. (2): the tail splits the buffer into n chunks; each interior
// rank receives a chunk from its right neighbour, reduces it into its
// own copy, and forwards it left; the pipeline drains at the root.
type chainReducer struct {
	c      *mpi.Comm
	o      Options
	states stateTable
}

func (cr *chainReducer) Name() string { return "chain" }

func (cr *chainReducer) Reduce(r *mpi.Rank, buf *gpu.Buffer, tag int) {
	me := cr.c.Rank(r)
	size := cr.c.Size()
	if size == 1 {
		return
	}
	st := cr.states.acquire(size, me)
	defer st.release()
	n := defaultChunks(buf.Bytes, cr.o.Chunks)
	st.sreqs = st.sreqs[:0] // an unwound call may have left its forwards behind
	if me > 0 && cap(st.sreqs) < n {
		st.roomForForwards(n)
	}
	st.step = stepState{
		r: r, c: cr.c, o: &cr.o, st: st, buf: buf, tag: tag,
		from: me + 1, to: me - 1, n: n,
	}
	if me == size-1 {
		st.step.from = -1
	}
	s := (*chainStep)(&st.step)
	s.recv.run(r.Proc, s)
	// The forwards have been waited: drop the dead handles, keep the
	// list's capacity for the next call.
	clear(st.sreqs)
}

// chainStep is one rank's stage of the pipeline. Per chunk: receive it
// from the right neighbour, reduce it into this rank's copy, forward
// the sum left; then wait out the forwards. The tail (nobody to its
// right) only sends, the root (nobody to its left) only receives.
type chainStep stepState

//scaffe:hotpath
func (s *chainStep) Step(p *sim.Proc) bool {
	r, st := s.r, s.st
	for {
		if s.recv.at != stageIdle {
			switch s.recv.step(p, r, *s.o) {
			case stagePark:
				return false
			case stageStack:
				return true
			}
			// The scratch is free for the next chunk right away: the
			// forward below sends `mine` (a view of buf), never the
			// scratch.
			st.putScratch(s.recv.op)
			s.forward(s.recv.acc)
		}
		if s.j == s.n {
			for ; s.drained < len(st.sreqs); s.drained++ {
				if !r.PollRequest(&s.recv.w, st.sreqs[s.drained]) {
					return false
				}
			}
			return true
		}
		lo, hi := chunkBounds(s.buf.Elems(), s.n, s.j)
		if lo >= hi {
			s.j++
			continue
		}
		mine := st.view(s.buf, lo, hi)
		if s.from < 0 {
			s.forward(mine)
			continue
		}
		s.recv.post(r, s.c, s.from, s.tag, mine, st.getScratch(mine))
	}
}

// forward sends chunk j's sum — mine, this rank's view of the chunk —
// on to the left neighbour, if there is one, and moves to the next
// chunk.
//
//scaffe:hotpath
func (s *chainStep) forward(mine *gpu.Buffer) {
	if s.to >= 0 {
		//scaffe:nolint hotpath the rank state's request list is reset to [:0] after each call; append reuses high-water capacity
		s.st.sreqs = append(s.st.sreqs, s.r.Isend(s.c, s.to, s.tag, mine, s.o.Mode))
	}
	s.j++
}

// hierarchical is the two-level design of Section 5: lower-level
// chunked chains over consecutive (locality-aligned) ranks, then an
// upper-level reduce among chain leaders using `upper` (Chain for CC,
// Binomial for CB).
type hierarchical struct {
	base     *mpi.Comm
	o        Options
	upperAlg Algorithm
	chains   []*mpi.Comm
	leaders  *mpi.Comm
	lower    []Reducer
	upper    Reducer
	name     string
}

func newHierarchical(c *mpi.Comm, o Options, upperAlg Algorithm) *hierarchical {
	chains, leaders := c.SplitChains(o.ChainSize)
	h := &hierarchical{base: c, o: o, upperAlg: upperAlg, chains: chains, leaders: leaders}
	for _, ch := range chains {
		h.lower = append(h.lower, &chainReducer{c: ch, o: o})
	}
	switch upperAlg {
	case Chain:
		h.upper = &chainReducer{c: leaders, o: o}
		h.name = fmt.Sprintf("CC-%d", o.ChainSize)
	case Binomial:
		h.upper = &binomialReducer{c: leaders, o: o}
		h.name = fmt.Sprintf("CB-%d", o.ChainSize)
	default:
		panic("coll: hierarchical upper level must be Chain or Binomial")
	}
	return h
}

func (h *hierarchical) Name() string { return h.name }

func (h *hierarchical) Reduce(r *mpi.Rank, buf *gpu.Buffer, tag int) {
	me := h.base.Rank(r)
	ci := me / h.o.ChainSize
	h.lower[ci].Reduce(r, buf, tag)
	if me%h.o.ChainSize == 0 {
		h.upper.Reduce(r, buf, tag+1)
	}
}

// newThreeLevel builds the chain-of-chain-plus-binomial design the
// paper proposes for very large scales ("in future, we can exploit
// multi-level combinations like chain-of-chain combined with a top
// level binomial", Section 5): level-0 chains over consecutive ranks,
// level-1 chains over the level-0 leaders, binomial tree over the
// level-1 leaders.
func newThreeLevel(c *mpi.Comm, o Options) *hierarchical {
	chains, leaders := c.SplitChains(o.ChainSize)
	h := &hierarchical{base: c, o: o, upperAlg: ChainChainBinomial, chains: chains, leaders: leaders}
	for _, ch := range chains {
		h.lower = append(h.lower, &chainReducer{c: ch, o: o})
	}
	if leaders.Size() > o.ChainSize {
		h.upper = newHierarchical(leaders, o, Binomial)
	} else {
		// Too few leaders for another level: degrade to a single
		// binomial, i.e. plain CB.
		h.upper = &binomialReducer{c: leaders, o: o}
	}
	h.name = fmt.Sprintf("CCB-%d", o.ChainSize)
	return h
}
