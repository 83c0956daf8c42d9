package sched_test

import (
	"testing"

	"scaffe/internal/coll"
	"scaffe/internal/gpu"
	"scaffe/internal/mpi"
	"scaffe/internal/sim"
	"scaffe/internal/topology"
)

// TestCompiledFragmentsCarveExactly: a reducer's fragment is compiled
// from a step list whose node count is known before the first node is
// added, so the plan carves its nodes in one chunk of exactly that
// number, with no node left unused. Chunks doubling up to 128 carved 252
// nodes for a 130-node fragment.
func TestCompiledFragmentsCarveExactly(t *testing.T) {
	w := mpi.NewWorld(topology.New(sim.New(), "t", 10, 16, topology.DefaultParams()), 160)
	c := w.WorldComm()
	var reds []coll.Reducer
	for alg := coll.Binomial; alg <= coll.Rabenseifner; alg++ {
		reds = append(reds, coll.NewReducer(c, alg, coll.DefaultOptions()))
	}
	for _, red := range append(reds, coll.NewRing(c, coll.DefaultOptions())) {
		for _, bytes := range []int64{4 << 10, 64 << 20} {
			buf := gpu.NewBuffer(bytes)
			for _, id := range []int{0, 1, 7, 8, 63, 80, 159} {
				frag := red.Fragment(w.Ranks[id], buf)
				if frag == nil {
					continue
				}
				if chunks, unused := frag.Arena(); chunks != 1 || unused != 0 {
					t.Errorf("%s %d B rank %d: fragment carved in %d chunks with %d nodes unused, want one chunk and none", red.Name(), bytes, id, chunks, unused)
				}
			}
		}
	}
}
