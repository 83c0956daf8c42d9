package mpi

import (
	"fmt"

	"scaffe/internal/gpu"
	"scaffe/internal/sim"
	"scaffe/internal/topology"
)

// tagBarrier is the base of the reserved tag range used by Barrier;
// user code should keep tags below 1<<20.
const tagBarrier = 1 << 20

// Comm is a communicator: an ordered group of world ranks with a
// private tag space. Group ranks (0..Size-1) index into the group.
type Comm struct {
	id    int
	w     *World
	group []int       // group rank -> world rank
	index map[int]int // world rank -> group rank
	// bcastSeq numbers offloaded collective operations per group rank
	// so that matching calls across ranks join the same operation.
	bcastSeq []int
}

// WorldComm returns a communicator spanning every rank of the world.
func (w *World) WorldComm() *Comm {
	g := make([]int, w.Size())
	for i := range g {
		g[i] = i
	}
	return w.newComm(g)
}

func (w *World) newComm(group []int) *Comm {
	c := &Comm{
		id:       w.nextCommID,
		w:        w,
		group:    group,
		index:    make(map[int]int, len(group)),
		bcastSeq: make([]int, len(group)),
	}
	w.nextCommID++
	for i, wr := range group {
		c.index[wr] = i
	}
	return c
}

// Size returns the number of ranks in the group.
func (c *Comm) Size() int { return len(c.group) }

// WorldRank converts a group rank to a world rank.
func (c *Comm) WorldRank(groupRank int) int { return c.group[groupRank] }

// GroupRank converts a world rank to this comm's group rank, or -1 if
// the rank is not a member.
func (c *Comm) GroupRank(worldRank int) int {
	if i, ok := c.index[worldRank]; ok {
		return i
	}
	return -1
}

// Rank returns r's group rank in c; r must be a member.
func (c *Comm) Rank(r *Rank) int {
	i := c.GroupRank(r.ID)
	if i < 0 {
		panic(fmt.Sprintf("mpi: world rank %d is not a member of comm %d", r.ID, c.id))
	}
	return i
}

// Contains reports whether r is a member of the communicator.
func (c *Comm) Contains(r *Rank) bool { return c.GroupRank(r.ID) >= 0 }

func (c *Comm) rankAt(groupRank int) *Rank {
	return c.w.Ranks[c.group[groupRank]]
}

// Device returns the device a group rank's process is bound to.
func (c *Comm) Device(groupRank int) topology.DeviceID {
	return c.rankAt(groupRank).Dev.ID
}

// Sub creates a sub-communicator from the given group ranks of c (in
// the given order). Used to build the multi-level communicators of the
// hierarchical reduce.
func (c *Comm) Sub(groupRanks []int) *Comm {
	g := make([]int, len(groupRanks))
	for i, gr := range groupRanks {
		g[i] = c.group[gr]
	}
	return c.w.newComm(g)
}

// SplitChains partitions c into consecutive chains of size chainSize
// (the last may be shorter) and returns the lower-level communicators
// plus the upper-level communicator of chain leaders (group rank 0 of
// each chain). Block placement makes consecutive ranks node-local, so
// chains align with locality — the property Section 5 relies on.
func (c *Comm) SplitChains(chainSize int) (chains []*Comm, leaders *Comm) {
	if chainSize < 1 {
		panic("mpi: chain size must be >= 1")
	}
	var leaderRanks []int
	for lo := 0; lo < c.Size(); lo += chainSize {
		hi := lo + chainSize
		if hi > c.Size() {
			hi = c.Size()
		}
		g := make([]int, hi-lo)
		for i := range g {
			g[i] = lo + i
		}
		chains = append(chains, c.Sub(g))
		leaderRanks = append(leaderRanks, lo)
	}
	return chains, c.Sub(leaderRanks)
}

// barrierBuf is the shared zero-byte payload of every barrier
// exchange: the messages carry no data, so all ranks (and both ends of
// each exchange) can use one immutable buffer instead of allocating
// two per round.
var barrierBuf = gpu.NewBuffer(0)

// Barrier synchronizes all ranks of c with a dissemination barrier
// (ceil(log2 P) rounds of zero-byte exchanges). Every member must call
// it.
func (c *Comm) Barrier(r *Rank) {
	size := c.Size()
	if size == 1 {
		return
	}
	r.barrier = barrierStep{r: r, c: c, me: c.Rank(r), size: size, dist: 1}
	r.Proc.RunSteps(&r.barrier)
}

// barrierStep walks the barrier's rounds as steps: post the round's
// receive and send, wait the receive, wait the send, double the
// distance.
type barrierStep struct {
	r          *Rank
	c          *Comm
	me, size   int
	dist       int      // this round's distance; the barrier is over at size
	round      int      // rounds posted so far: the next round's tag offset
	rreq, sreq *Request // this round's exchange; nil once waited
	w          Waiter
}

func (s *barrierStep) Step(*sim.Proc) bool {
	r := s.r
	for {
		if s.sreq == nil {
			if s.dist >= s.size {
				return true
			}
			to := (s.me + s.dist) % s.size
			from := (s.me - s.dist + s.size) % s.size
			tag := tagBarrier + s.round
			s.rreq = r.Irecv(s.c, from, tag, barrierBuf)
			s.sreq = r.Isend(s.c, to, tag, barrierBuf, topology.ModeHost)
			s.dist <<= 1
			s.round++
		}
		if s.rreq != nil {
			if !r.PollRequest(&s.w, s.rreq) {
				return false
			}
			s.rreq = nil
		}
		if !r.PollRequest(&s.w, s.sreq) {
			return false
		}
		s.sreq = nil
	}
}
