package core

import (
	"math/bits"
	"testing"

	"scaffe/internal/models"
	"scaffe/internal/mpi"
)

// TestTagRangesDisjoint checks that the tags one design uses in a run
// never overlap, at every world size up to 4096 ranks and with one
// reduce per GoogLeNet layer: a shared tag would let two of its
// messages cross their matches. Every design may also run the join
// handshake and the catch-up's barrier.
func TestTagRangesDisjoint(t *testing.T) {
	type span struct {
		name   string
		lo, hi int // inclusive
	}
	layers := len(models.GoogLeNet().Layers)
	var perLayer []span
	for l := range layers {
		perLayer = append(perLayer, span{"layer reduce", layerTag(l), layerTag(l) + 3})
	}
	packed := []span{{"packed reduce", tagPackedReduce, tagPackedReduce + 3}}
	for p := 1; p <= 4096; p++ {
		designs := map[Design][]span{
			SCB: packed, SCOB: packed, CaffeMT: packed,
			SCOBR:       perLayer,
			CNTKLike:    {{"ring", tagPackedReduce, tagPackedReduce + 2*p}},
			ParamServer: {{"parameter server", tagPS, tagPS + 1}},
		}
		if len(designs) != int(ParamServer)+1 {
			t.Fatalf("the table covers %d designs, want %d", len(designs), ParamServer+1)
		}
		for d, own := range designs {
			used := append([]span{
				{"join ack", tagJoinAck, tagJoinAck},
				{"barrier", mpi.TagBarrier, mpi.TagBarrier + bits.Len(uint(p-1)) - 1},
			}, own...)
			for i, a := range used {
				for _, b := range used[i+1:] {
					if a.lo <= b.hi && b.lo <= a.hi {
						t.Fatalf("%v at P=%d: %s tags %d..%d overlap %s tags %d..%d", d, p, a.name, a.lo, a.hi, b.name, b.lo, b.hi)
					}
				}
			}
		}
	}
}
