package scaffe

import (
	"fmt"
	"slices"
	"testing"

	"scaffe/internal/experiments"
	"scaffe/internal/sim"
)

// reducePins are ReduceBench latencies, in virtual nanoseconds, with
// Trials: 2, at P = 1, 2, 13, 16 and 160 ranks. They pin the drivers
// around the reducers — barrier, reduce, barrier, per trial — event for
// event: a driver that moved any event of a reduction or its barriers
// moves some of these.
var reducePins = []struct {
	alg   ReduceAlgorithm
	bytes int64
	ns    [5]sim.Duration
}{
	{ReduceBinomial, 4 << 10, [5]sim.Duration{0, 13500, 48591, 54000, 127549}},
	{ReduceBinomial, 1 << 20, [5]sim.Duration{0, 141158, 564632, 564632, 1238120}},
	{ReduceBinomial, 64 << 20, [5]sim.Duration{0, 8215194, 32860776, 32860776, 65836408}},
	{ReduceChain, 4 << 10, [5]sim.Duration{0, 13500, 162000, 202500, 2150061}},
	{ReduceChain, 1 << 20, [5]sim.Duration{0, 180156, 675585, 810702, 7610886}},
	{ReduceChain, 64 << 20, [5]sim.Duration{0, 9034112, 10586850, 11010324, 33284484}},
	{ReduceCC, 4 << 10, [5]sim.Duration{0, 13500, 102591, 108000, 471833}},
	{ReduceCC, 1 << 20, [5]sim.Duration{0, 180156, 630546, 630546, 1831216}},
	{ReduceCC, 64 << 20, [5]sim.Duration{0, 9034112, 18915172, 18915172, 23405424}},
	{ReduceCB, 4 << 10, [5]sim.Duration{0, 13500, 102591, 108000, 178958}},
	{ReduceCB, 1 << 20, [5]sim.Duration{0, 180156, 591548, 591548, 1249036}},
	{ReduceCB, 64 << 20, [5]sim.Duration{0, 9034112, 18096254, 18096254, 51063886}},
	{ReduceCCB, 4 << 10, [5]sim.Duration{0, 13500, 102591, 108000, 229825}},
	{ReduceCCB, 1 << 20, [5]sim.Duration{0, 180156, 591548, 591548, 1411333}},
	{ReduceCCB, 64 << 20, [5]sim.Duration{0, 9034112, 18096254, 18096254, 38041060}},
	{ReduceHR, 4 << 10, [5]sim.Duration{0, 13500, 48591, 54000, 127549}},
	{ReduceHR, 1 << 20, [5]sim.Duration{0, 141158, 630546, 630546, 1249036}},
	{ReduceHR, 64 << 20, [5]sim.Duration{0, 8215194, 18915172, 18915172, 51063886}},
	{ReduceMV2, 4 << 10, [5]sim.Duration{0, 12909, 28500, 31182, 150947}},
	{ReduceMV2, 1 << 20, [5]sim.Duration{0, 500333, 1354190, 1354190, 2607522}},
	{ReduceMV2, 64 << 20, [5]sim.Duration{0, 31328468, 85030556, 85030556, 156748196}},
	{ReduceOpenMPI, 4 << 10, [5]sim.Duration{0, 9113, 24612, 28839, 404808}},
	{ReduceOpenMPI, 1 << 20, [5]sim.Duration{0, 548761, 5398705, 6721417, 90632089}},
	{ReduceOpenMPI, 64 << 20, [5]sim.Duration{0, 34679911, 342306186, 426204261, 5742089973}},
	{ReduceRabenseifner, 4 << 10, [5]sim.Duration{0, 18453, 162000, 72847, 2150061}},
	{ReduceRabenseifner, 1 << 20, [5]sim.Duration{0, 134506, 675585, 290447, 7610886}},
	{ReduceRabenseifner, 64 << 20, [5]sim.Duration{0, 7474540, 10586850, 14053008, 33284484}},
}

var reducePinRanks = [5]int{1, 2, 13, 16, 160}

// tablePins are the rows of the experiments that time reductions with a
// slowed device (skew) and at several scales (threelevel), as
// cmd/experiments prints them.
var tablePins = map[string][][]string{
	"skew": {
		{"1x", "23.405ms", "51.064ms", "65.836ms", "1.00x", "1.00x"},
		{"2x", "25.424ms", "53.067ms", "70.316ms", "1.09x", "1.04x"},
		{"4x", "32.816ms", "57.074ms", "79.312ms", "1.40x", "1.12x"},
		{"8x", "48.842ms", "65.087ms", "97.304ms", "2.09x", "1.27x"},
	},
	"threelevel": {
		{"32", "20.935ms", "26.335ms", "26.335ms"},
		{"64", "21.556ms", "34.579ms", "34.579ms"},
		{"128", "22.804ms", "42.831ms", "29.809ms"},
		{"160", "23.405ms", "51.064ms", "38.041ms"},
	},
}

// TestReduceBenchPinned holds the reduce-latency drivers to the
// latencies above, exactly.
func TestReduceBenchPinned(t *testing.T) {
	for _, pin := range reducePins {
		for i, p := range reducePinRanks {
			t.Run(fmt.Sprintf("%v/%d/P%d", pin.alg, pin.bytes, p), func(t *testing.T) {
				lat, err := ReduceBench(ReduceBenchConfig{Ranks: p, Bytes: pin.bytes, Algorithm: pin.alg, Trials: 2})
				if err != nil {
					t.Fatal(err)
				}
				if lat != pin.ns[i] {
					t.Errorf("latency %d ns, pinned %d ns", int64(lat), int64(pin.ns[i]))
				}
			})
		}
	}
	for id, rows := range tablePins {
		t.Run(id, func(t *testing.T) {
			r, err := experiments.ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			tab, err := r.Run(experiments.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.EqualFunc(tab.Rows, rows, slices.Equal) {
				t.Errorf("rows\n%q\npinned\n%q", tab.Rows, rows)
			}
		})
	}
}
