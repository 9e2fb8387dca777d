// Numa shows where hierarchy awareness starts to matter: the same task
// graph is placed on a two-level NUMA machine while the cross-socket
// penalty sweeps from flat (same as intra-socket) to steep. Classical
// balanced k-way partitioning ignores which parts land on which cores;
// the hierarchical partitioner pays attention — and the gap between them
// grows with the penalty (experiment E9's story as a runnable demo).
//
// Run with: go run ./examples/numa
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"text/tabwriter"

	"hierpart/internal/baseline"
	"hierpart/internal/gen"
	"hierpart/internal/hgp"
	"hierpart/internal/hierarchy"
	"hierpart/internal/metrics"
)

func main() {
	rng := rand.New(rand.NewSource(3))
	g := gen.Community(rng, 4, 8, 0.5, 0.03, 10, 1)
	gen.EqualDemands(g, 0.25)

	fmt.Println("32 tasks in 4 chatty groups on 4 sockets × 4 cores;")
	fmt.Println("sweeping the cross-socket cost multiplier (intra-socket fixed at 1):")
	fmt.Println()

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "cross-socket ×\thgp cost\tkBGP-oblivious\tkBGP + refine\toblivious / hgp")
	for _, steep := range []float64{1, 2, 5, 10, 25, 100} {
		h := hierarchy.MustNew([]int{4, 4}, []float64{steep, 1, 0})
		res, err := hgp.Solver{Eps: 0.5, Trees: 4, Seed: 9}.Solve(g, h)
		if err != nil {
			log.Fatal(err)
		}
		obl := baseline.KBGPOblivious(rng, g, h)
		oblRef := baseline.RefineLocal(context.Background(), g, h, obl, 1.1, 3)
		oblCost := metrics.CostLCA(g, h, obl)
		fmt.Fprintf(tw, "%.0f\t%.0f\t%.0f\t%.0f\t%.2f\n",
			steep, res.Cost, oblCost, metrics.CostLCA(g, h, oblRef), oblCost/res.Cost)
	}
	tw.Flush()

	fmt.Println("\nWith a flat penalty every balanced partition is equally good; as the")
	fmt.Println("penalty steepens, WHICH socket each part lands on dominates the cost —")
	fmt.Println("the regime the hierarchical formulation (and this paper) is about.")
}
