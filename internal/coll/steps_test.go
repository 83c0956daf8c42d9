package coll

import (
	"testing"

	"scaffe/internal/gpu"
)

// TestStepListsPair resolves every rank's step list, with no kernel
// running, for every flat family, CC, CB, CCB and the ring, over
// communicator sizes that are powers of two and not and messages that go
// eager, pipelined and chunked, and checks that sends and receives pair
// one-to-one: each send meets exactly one receive with the same sender,
// receiver, tag offset and element range.
func TestStepListsPair(t *testing.T) {
	type msg struct{ from, to, tag, lo, hi int }
	o := DefaultOptions()
	for _, p := range []int{2, 3, 8, 13, 33, 160} {
		c := newWorld(t, (p+3)/4, 4, p).WorldComm()
		reducers := map[string]*reducer{"ring": NewRing(c, o).reducer}
		for a := Algorithm(0); a.known(); a++ {
			if a != Tuned { // a choice among the others, per call
				reducers[a.String()] = NewReducer(c, a, o).(*reducer)
			}
		}
		for name, x := range reducers {
			for _, bytes := range []int64{4 << 10, 1 << 20, 64 << 20} {
				buf := gpu.NewBuffer(bytes)
				n := defaultChunks(bytes, o.Chunks)
				unmet := map[msg]int{} // sends less receives
				sends := 0
				for id := 0; id < p; id++ {
					var g [maxLevels]int32
					for _, s := range resolve(nil, x.levels, o, id, buf, &g) {
						pl := x.levels[s.level].role(int(g[s.level]))
						me, peer := pl.c.WorldRank(pl.root+pl.pos), pl.c.WorldRank(pl.peer(&s))
						lo, hi := s.extent(pl.pos, pl.size, buf.Elems(), n)
						switch s.op {
						case send, forward:
							unmet[msg{me, peer, int(s.tag), lo, hi}]++
							sends++
						case recv, recvReduce:
							unmet[msg{peer, me, int(s.tag), lo, hi}]--
						}
					}
				}
				if sends < p-1 {
					t.Errorf("%s P=%d %d B: %d sends; every rank but the root sends", name, p, bytes, sends)
				}
				bad := 0
				for m, k := range unmet {
					if k != 0 {
						if bad++; bad <= 3 {
							t.Errorf("%s P=%d %d B: %d to %d, tag +%d, elements [%d,%d): %d more sends than receives", name, p, bytes, m.from, m.to, m.tag, m.lo, m.hi, k)
						}
					}
				}
				if bad > 3 {
					t.Errorf("%s P=%d %d B: %d unpaired messages in all", name, p, bytes, bad)
				}
			}
		}
	}
}
