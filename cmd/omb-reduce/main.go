// Command omb-reduce is an OSU-micro-benchmark-style latency sweep for
// the reduction designs (the methodology of Section 6.5): for each
// message size it reports the reduce latency of the selected
// algorithms on the simulated cluster.
//
// Example:
//
//	omb-reduce -ranks 160 -algs mv2,cc,cb,hr,openmpi -min 2097152 -max 268435456
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"scaffe"
)

func main() {
	ranks := flag.Int("ranks", 160, "number of GPU processes")
	nodes := flag.Int("nodes", 0, "cluster nodes (0 = auto)")
	perNode := flag.Int("gpus-per-node", 16, "GPUs per node")
	algsFlag := flag.String("algs", "mv2,cc,cb,hr", "comma-separated: binomial, chain, cc, cb, ccb, hr (or tuned), mv2, openmpi, rsg (or rabenseifner)")
	chain := flag.Int("chain", 8, "chain size for hierarchical designs")
	minSize := flag.Int64("min", 2<<20, "minimum message size in bytes")
	maxSize := flag.Int64("max", 256<<20, "maximum message size in bytes")
	trials := flag.Int("trials", 3, "timed trials per point")
	flag.Parse()

	ladder, err := sizes(*minSize, *maxSize)
	if err != nil {
		fmt.Fprintln(os.Stderr, "omb-reduce:", err)
		os.Exit(1)
	}
	var names []string
	var selected []scaffe.ReduceAlgorithm
	for _, name := range strings.Split(*algsFlag, ",") {
		name = strings.TrimSpace(strings.ToLower(name))
		alg, err := scaffe.ParseReduceAlgorithm(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "omb-reduce:", err)
			os.Exit(1)
		}
		names = append(names, name)
		selected = append(selected, alg)
	}

	fmt.Printf("# OSU-style MPI_Reduce latency, %d GPU ranks (chain size %d)\n", *ranks, *chain)
	fmt.Printf("%-12s", "# size")
	for _, n := range names {
		fmt.Printf("%16s", n)
	}
	fmt.Println()
	for _, size := range ladder {
		fmt.Printf("%-12d", size)
		for _, alg := range selected {
			opts := scaffe.ReduceOptions{ChainSize: *chain, OnGPU: true}
			lat, err := scaffe.ReduceBench(scaffe.ReduceBenchConfig{
				Ranks: *ranks, Nodes: *nodes, GPUsPerNode: *perNode,
				Bytes: size, Algorithm: alg, Options: opts, Trials: *trials,
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "omb-reduce:", err)
				os.Exit(1)
			}
			fmt.Printf("%16.2f", lat.Microseconds())
		}
		fmt.Println()
	}
	fmt.Println("# latencies in microseconds (virtual time)")
}

// sizes is the sweep's message-size ladder: min, doubling, up to max.
// It stops before a doubling would pass max — or overflow, for a max
// near math.MaxInt64 — and takes only 1 <= min <= max.
func sizes(min, max int64) ([]int64, error) {
	if min < 1 || min > max {
		return nil, fmt.Errorf("message sizes -min %d -max %d: want 1 <= min <= max", min, max)
	}
	var ladder []int64
	for size := min; ; size *= 2 {
		ladder = append(ladder, size)
		if size > max/2 {
			return ladder, nil
		}
	}
}
