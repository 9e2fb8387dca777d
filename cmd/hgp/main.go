// Command hgp partitions a task graph across a resource hierarchy.
//
// It reads an instance (graph + hierarchy) in the JSON format of
// internal/instio, runs the selected algorithm, and writes the placement
// as JSON to stdout along with a cost report on stderr.
//
// Usage:
//
//	hgp -in instance.json [-algo hgp|dual|multilevel|kbgp|greedy|random]
//	    [-eps 0.5] [-trees 4] [-seed 1] [-refine]
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"hierpart/internal/baseline"
	"hierpart/internal/graph"
	"hierpart/internal/hgp"
	"hierpart/internal/hierarchy"
	"hierpart/internal/instio"
	"hierpart/internal/metrics"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hgp:", err)
		os.Exit(1)
	}
}

func run() error {
	in := flag.String("in", "", "instance JSON file (see instio.Instance); '-' for stdin")
	algo := flag.String("algo", "hgp", "algorithm: hgp, dual, multilevel, kbgp, greedy, random")
	eps := flag.Float64("eps", 0.5, "demand rounding parameter ε of the tree DP")
	trees := flag.Int("trees", 4, "number of decomposition trees")
	seed := flag.Int64("seed", 1, "random seed")
	refine := flag.Bool("refine", false, "post-process with hierarchy-aware local search")
	flag.Parse()

	if *in == "" {
		return fmt.Errorf("missing -in (instance JSON file)")
	}
	r := os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	g, h, err := instio.ReadInstance(r)
	if err != nil {
		return err
	}

	a, err := solve(*algo, g, h, *eps, *trees, *seed)
	if err != nil {
		return err
	}
	if *refine {
		a = baseline.RefineLocal(context.Background(), g, h, a, 1.2, 3)
	}

	cost := metrics.CostLCA(g, h, a)
	fmt.Fprintf(os.Stderr, "algorithm:  %s\n", *algo)
	fmt.Fprintf(os.Stderr, "hierarchy:  %v\n", h)
	fmt.Fprintf(os.Stderr, "vertices:   %d, edges: %d\n", g.N(), g.M())
	fmt.Fprintf(os.Stderr, "cost:       %.6g\n", cost)
	fmt.Fprintf(os.Stderr, "imbalance:  %.4g\n", metrics.Imbalance(g, h, a))
	for j, v := range metrics.Violation(g, h, a) {
		fmt.Fprintf(os.Stderr, "violation level %d: %.4g\n", j, v)
	}
	return instio.WriteAssignment(os.Stdout, a, cost)
}

func solve(algo string, g *graph.Graph, h *hierarchy.Hierarchy, eps float64, trees int, seed int64) (metrics.Assignment, error) {
	rng := rand.New(rand.NewSource(seed))
	switch algo {
	case "hgp":
		res, err := hgp.Solver{Eps: eps, Trees: trees, Seed: seed}.Solve(g, h)
		if err != nil {
			return nil, err
		}
		return res.Assignment, nil
	case "dual":
		return baseline.DualRecursive(rng, g, h), nil
	case "multilevel":
		return baseline.Multilevel(rng, g, h), nil
	case "kbgp":
		return baseline.KBGPOblivious(rng, g, h), nil
	case "greedy":
		return baseline.GreedyBFS(g, h), nil
	case "random":
		return baseline.Random(rng, g, h), nil
	default:
		return nil, fmt.Errorf("unknown algorithm %q", algo)
	}
}
