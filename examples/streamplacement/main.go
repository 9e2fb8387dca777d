// Streamplacement reproduces the paper's §1 motivation: pinning the
// operators of a data-stream-processing job (a TidalRace/Storm-style
// ingest→parse→aggregate pipeline) onto the cores of a multi-socket
// server so that hot channels stay inside sockets.
//
// It places the same topology with five policies — the SPAA'14
// algorithm, SCOTCH-style dual recursive bipartitioning, METIS-style
// multilevel, round-robin (an OS-like spread), and random — and reports
// the sustainable input-rate multiplier λ and the average per-message
// cost of each.
//
// Run with: go run ./examples/streamplacement
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"text/tabwriter"

	"hierpart/internal/baseline"
	"hierpart/internal/hgp"
	"hierpart/internal/hierarchy"
	"hierpart/internal/metrics"
	"hierpart/internal/stream"
)

func main() {
	rng := rand.New(rand.NewSource(7))

	// 8 ingest→parse lanes feeding 4 aggregators and a sink, with
	// demands that make the job occupy most of a 4-socket × 4-core box.
	// The hot per-lane src→parse channels are exactly what pinning wins
	// on; the parse→agg shuffle is unavoidable cross-traffic.
	topo := stream.FanInAggregation(rng, 8, 4, 0.35, 0.6, 60)
	g := topo.CommGraph()
	h := hierarchy.NUMASockets(4, 4)
	model := stream.Model{OverheadPerMsg: 2e-3}
	fmt.Printf("topology: fan-in aggregation with %d operators, machine %v\n\n", topo.N(), h)

	res, err := hgp.Solver{Eps: 0.5, Trees: 4, Seed: 3}.Solve(g, h)
	if err != nil {
		log.Fatal(err)
	}

	rr := metrics.NewAssignment(topo.N())
	for v := range rr {
		rr[v] = v % h.Leaves()
	}

	placements := []struct {
		name string
		a    metrics.Assignment
	}{
		{"hgp (SPAA'14)", res.Assignment},
		{"hgp + local refine", baseline.RefineLocal(context.Background(), g, h, res.Assignment, 1.2, 3)},
		{"dual recursive (SCOTCH-style)", baseline.DualRecursive(rng, g, h)},
		{"multilevel (METIS-style)", baseline.Multilevel(rng, g, h)},
		{"round robin (OS-like)", rr},
		{"random", baseline.Random(rng, g, h)},
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "placement\tλ sustained\tavg msg cost\tHGP objective")
	for _, p := range placements {
		fmt.Fprintf(tw, "%s\t%.3f\t%.2f\t%.0f\n",
			p.name,
			model.Throughput(topo, h, p.a),
			stream.AvgMsgCost(topo, h, p.a),
			metrics.CostLCA(g, h, p.a))
	}
	tw.Flush()

	fmt.Println("\nThe HGP objective is exactly the quantity the placement minimizes, and it")
	fmt.Println("wins the per-message cost (latency proxy) by a wide margin. λ charges")
	fmt.Println("per-message CPU overhead by hierarchy distance: communication-light but")
	fmt.Println("better-balanced placements (dual recursive) can sustain a higher λ, while")
	fmt.Println("hierarchy-oblivious spreading (round robin, random) loses on both axes.")
}
