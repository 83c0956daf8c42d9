package core

import (
	"testing"

	"scaffe/internal/fault"
	"scaffe/internal/models"
	"scaffe/internal/sim"
)

// TestTimingRanksShareOneLayout: a timing run builds its communication
// buffers once — payload-free size descriptors, buckets included — and
// every rank's workload holds that one layout, a rank that crashed and
// rejoined included. A real run gives every replica a layout of its own
// over payloads of its own, and its views alias them.
func TestTimingRanksShareOneLayout(t *testing.T) {
	spec, _ := models.ByName("cifar10-quick")
	cfg := timingConfig(spec, 8, 64, 10)
	cfg.Design, cfg.BucketBytes = SCOBR, 64<<10
	base := midRun(t, cfg, 1.0)
	cfg.Faults = fault.Schedule{
		{At: sim.Time(float64(base) * 0.3), Kind: fault.Crash, Rank: 5},
		{At: sim.Time(float64(base) * 0.6), Kind: fault.Join, Rank: 5},
	}
	res, st, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep := res.Fault; rep.Crashes != 1 || len(rep.Joins) != 1 || rep.Joins[0].Rank != 5 || rep.Survivors != 8 {
		t.Fatalf("the drill did not crash and rejoin rank 5: %v", rep)
	}
	lay := st.layout
	if lay == nil || lay.packedGrads.Data != nil || len(lay.buckets) < 2 {
		t.Fatalf("timing layout %+v: want a payload-free one with buckets", lay)
	}
	for _, b := range append(append(lay.layerParam, lay.layerGrad...), lay.packedParams) {
		if b != nil && b.Data != nil {
			t.Fatalf("timing buffer of %d bytes carries a payload", b.Bytes)
		}
	}
	for id, w := range st.wl {
		if w.layout != lay {
			t.Errorf("rank %d holds a layout of its own", id)
		}
	}

	rst := tinyRealConfig(4, 32, 2)
	_, st, err = run(rst)
	if err != nil {
		t.Fatal(err)
	}
	if st.layout != nil {
		t.Error("a real run built a shared layout")
	}
	seen := map[*float32]int{}
	for id, w := range st.wl {
		p, g := &w.packedParams.Data[0], &w.packedGrads.Data[0]
		for _, d := range []*float32{p, g} {
			if other, ok := seen[d]; ok {
				t.Fatalf("ranks %d and %d share a payload", other, id)
			}
			seen[d] = id
		}
		off := 0
		for l, v := range w.layerGrad {
			if v == nil {
				continue
			}
			if &v.Data[0] != &w.packedGrads.Data[off] || &w.layerParam[l].Data[0] != &w.packedParams.Data[off] {
				t.Fatalf("rank %d layer %d: views do not alias the rank's packed payloads", id, l)
			}
			off += v.Elems()
		}
	}
}
