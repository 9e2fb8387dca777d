package experiments

import (
	"context"
	"math/rand"
	"sort"
	"time"

	"hierpart/internal/baseline"
	"hierpart/internal/gen"
	"hierpart/internal/graph"
	"hierpart/internal/hgp"
	"hierpart/internal/hierarchy"
	"hierpart/internal/metrics"
	"hierpart/internal/stream"
	"hierpart/internal/treedecomp"
)

// quantizeDemands rounds every demand up to a multiple of q. Few
// distinct demand values keep the signature DP's subset-sum state space
// small — the practical knob the paper's ε-rounding (§3) formalizes.
func quantizeDemands(g *graph.Graph, q float64) {
	for v := 0; v < g.N(); v++ {
		d := g.Demand(v)
		steps := int(d/q + 1 - 1e-9)
		g.SetDemand(v, float64(steps)*q)
	}
}

// E5VsBaselines compares the paper's algorithm (and its locally refined
// variant) against the related-work heuristics on four workload
// families. Cells are mean cost ratios relative to the HGP pipeline
// (> 1 means worse than HGP).
func E5VsBaselines(cfg Config) *Table {
	t := &Table{
		ID:    "E5",
		Title: "Cost vs baselines (ratio to HGP pipeline; >1 = worse)",
		Columns: []string{"workload", "n", "HGP cost", "HGP+refine", "dual-recursive",
			"multilevel", "kBGP-oblivious", "greedy-BFS", "random"},
		Notes: "expected: hierarchy-oblivious ratios well above 1 on structured workloads; refined variants (HGP+refine, multilevel) can beat the bare pipeline as n grows — guarantees vs heuristics",
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 20))
	h := hierarchy.NUMASockets(4, 4)
	scale := cfg.pick(1, 2)
	workloads := []struct {
		name string
		mk   func() *graph.Graph
	}{
		{"community", func() *graph.Graph {
			g := gen.Community(rng, 4, 8*scale, 0.5, 0.02, 10, 1)
			gen.EqualDemands(g, 0.6*float64(h.Leaves())/float64(32*scale))
			return g
		}},
		{"power-law", func() *graph.Graph {
			g := gen.BarabasiAlbert(rng, 32*scale, 2, 5)
			gen.EqualDemands(g, 0.6*float64(h.Leaves())/float64(32*scale))
			return g
		}},
		{"grid", func() *graph.Graph {
			g := gen.Grid(8, 4*scale, 2)
			gen.EqualDemands(g, 0.6*float64(h.Leaves())/float64(32*scale))
			return g
		}},
		{"stream word-count", func() *graph.Graph {
			topo := stream.WordCount(rng, 12*scale, 16*scale, 0.1, 0.4, 50)
			g := topo.CommGraph()
			quantizeDemands(g, 1.0/8)
			return g
		}},
	}
	trials := cfg.pick(2, 5)
	for _, wl := range workloads {
		var hgpC, refC, dualC, mlC, kbgpC, bfsC, rndC float64
		var n int
		for i := 0; i < trials; i++ {
			g := wl.mk()
			n = g.N()
			res, err := hgp.Solver{Eps: 0.5, Trees: 3, Seed: rng.Int63(), Workers: cfg.Workers, Prune: cfg.Prune}.Solve(g, h)
			if err != nil {
				continue
			}
			hgpC += res.Cost
			refined := baseline.RefineLocal(context.Background(), g, h, res.Assignment, 1.2, 2)
			refC += metrics.CostLCA(g, h, refined)
			dualC += metrics.CostLCA(g, h, baseline.DualRecursive(rng, g, h))
			mlC += metrics.CostLCA(g, h, baseline.Multilevel(rng, g, h))
			kbgpC += metrics.CostLCA(g, h, baseline.KBGPOblivious(rng, g, h))
			bfsC += metrics.CostLCA(g, h, baseline.GreedyBFS(g, h))
			rndC += metrics.CostLCA(g, h, baseline.Random(rng, g, h))
		}
		t.AddRow(wl.name, n, hgpC/float64(trials),
			metrics.Ratio(refC, hgpC), metrics.Ratio(dualC, hgpC), metrics.Ratio(mlC, hgpC),
			metrics.Ratio(kbgpC, hgpC), metrics.Ratio(bfsC, hgpC), metrics.Ratio(rndC, hgpC))
	}
	return t
}

// E6StreamThroughput reproduces the paper's §1 motivation: pinning
// communicating tasks on nearby cores raises sustainable throughput.
// Reported: input-rate multiplier sustained by each placement policy and
// the rate-weighted average per-message cost (latency proxy).
func E6StreamThroughput(cfg Config) *Table {
	t := &Table{
		ID:    "E6",
		Title: "Stream placement throughput (sustainable input-rate multiplier λ)",
		Columns: []string{"topology", "ops", "λ HGP", "λ dual-rec", "λ multilevel",
			"λ round-robin", "λ random", "msgcost HGP", "msgcost round-robin"},
		Notes: "expected: HGP has the lowest per-message cost everywhere and the highest λ on communication-dominated shapes (fan-in, join tree); on compute-dominated shapes balanced-oblivious placements can sustain more",
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 21))
	h := hierarchy.NUMASockets(4, 4)
	model := stream.Model{OverheadPerMsg: 1e-3}
	scale := cfg.pick(1, 2)
	topos := []struct {
		name string
		mk   func() *stream.Topology
	}{
		{"fan-in aggregation", func() *stream.Topology {
			return stream.FanInAggregation(rng, 4*scale, 2*scale, 0.3, 0.6, 40)
		}},
		{"word-count", func() *stream.Topology {
			return stream.WordCount(rng, 4*scale, 6*scale, 0.3, 0.6, 40)
		}},
		{"pipeline", func() *stream.Topology {
			return stream.Pipeline(rng, 4, 3*scale, 0.3, 0.6, 40)
		}},
		{"diamond", func() *stream.Topology {
			return stream.Diamond(rng, 3*scale, 0.3, 0.6, 40)
		}},
		{"join tree", func() *stream.Topology {
			return stream.JoinTree(rng, 8, 0.3, 0.6, 40)
		}},
	}
	for _, tc := range topos {
		topo := tc.mk()
		g := topo.CommGraph()
		res, err := hgp.Solver{Eps: 0.5, Trees: 3, Seed: rng.Int63(), Workers: cfg.Workers, Prune: cfg.Prune}.Solve(g, h)
		if err != nil {
			t.AddRow(tc.name, topo.N(), "err: "+err.Error())
			continue
		}
		rr := metrics.NewAssignment(topo.N())
		for v := range rr {
			rr[v] = v % h.Leaves()
		}
		dual := baseline.DualRecursive(rng, g, h)
		ml := baseline.Multilevel(rng, g, h)
		rnd := baseline.Random(rng, g, h)
		t.AddRow(tc.name, topo.N(),
			model.Throughput(topo, h, res.Assignment),
			model.Throughput(topo, h, dual),
			model.Throughput(topo, h, ml),
			model.Throughput(topo, h, rr),
			model.Throughput(topo, h, rnd),
			stream.AvgMsgCost(topo, h, res.Assignment),
			stream.AvgMsgCost(topo, h, rr))
	}
	return t
}

// E9CMSweep sweeps the steepness of the cost multipliers on a fixed
// workload: the flatter the hierarchy costs, the less hierarchy
// awareness matters; the crossover locates where HGP starts paying off
// against a hierarchy-oblivious balanced partitioner.
func E9CMSweep(cfg Config) *Table {
	t := &Table{
		ID:      "E9",
		Title:   "Benefit of hierarchy awareness vs cm steepness",
		Columns: []string{"cm(0)/cm(1)", "HGP cost", "kBGP-oblivious cost", "oblivious/HGP"},
		Notes:   "expected: ratio grows with steepness; ≈1 when cm is flat",
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 22))
	g := gen.Community(rng, 4, 8, 0.5, 0.03, 10, 1)
	gen.EqualDemands(g, 0.5*16.0/32.0)
	trials := cfg.pick(2, 5)
	for _, steep := range []float64{1, 2, 5, 10, 50} {
		h := hierarchy.MustNew([]int{4, 4}, []float64{steep, 1, 0})
		var hgpC, oblC float64
		for i := 0; i < trials; i++ {
			res, err := hgp.Solver{Eps: 0.5, Trees: 3, Seed: rng.Int63(), Workers: cfg.Workers, Prune: cfg.Prune}.Solve(g, h)
			if err != nil {
				continue
			}
			hgpC += res.Cost
			oblC += metrics.CostLCA(g, h, baseline.KBGPOblivious(rng, g, h))
		}
		t.AddRow(steep, hgpC/float64(trials), oblC/float64(trials), metrics.Ratio(oblC, hgpC))
	}
	return t
}

// E15DESStability runs the discrete-event simulator's stability search
// (binary search on the input-rate multiplier) for each placement
// policy, cross-validating the analytic throughput model of E6 with an
// executed system rather than a utilization formula.
func E15DESStability(cfg Config) *Table {
	t := &Table{
		ID:    "E15",
		Title: "Discrete-event stability limit per placement (max stable rate)",
		Columns: []string{"topology", "ops", "HGP", "dual-recursive", "round-robin",
			"random", "HGP p95 latency @1x"},
		Notes: "expected: same ordering as the analytic λ of E6; latency in simulated seconds",
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 50))
	h := hierarchy.NUMASockets(4, 4)
	model := stream.Model{OverheadPerMsg: 1e-3}
	dur := float64(cfg.pick(4, 12))
	topos := []struct {
		name string
		mk   func() *stream.Topology
	}{
		{"fan-in aggregation", func() *stream.Topology {
			return stream.FanInAggregation(rng, 4, 2, 0.3, 0.6, 40)
		}},
		{"join tree", func() *stream.Topology {
			return stream.JoinTree(rng, 8, 0.3, 0.6, 40)
		}},
		{"pipeline", func() *stream.Topology {
			return stream.Pipeline(rng, 4, 3, 0.3, 0.6, 40)
		}},
	}
	for _, tc := range topos {
		topo := tc.mk()
		g := topo.CommGraph()
		res, err := hgp.Solver{Eps: 0.5, Trees: 3, Seed: rng.Int63(), Workers: cfg.Workers, Prune: cfg.Prune}.Solve(g, h)
		if err != nil {
			t.AddRow(tc.name, topo.N(), "err: "+err.Error())
			continue
		}
		rr := metrics.NewAssignment(topo.N())
		for v := range rr {
			rr[v] = v % h.Leaves()
		}
		simCfg := stream.SimConfig{Duration: dur, Model: model, Seed: 11}
		limit := func(a metrics.Assignment) float64 {
			return stream.MaxStableRate(topo, h, a, simCfg, 0.05, 8, cfg.pick(5, 8))
		}
		oneX := simCfg
		oneX.Rate = 1
		lat := stream.Simulate(topo, h, res.Assignment, oneX).P95Latency
		t.AddRow(tc.name, topo.N(),
			limit(res.Assignment),
			limit(baseline.DualRecursive(rng, g, h)),
			limit(rr),
			limit(baseline.Random(rng, g, h)),
			lat)
	}
	return t
}

// E21AtScale runs the E5 comparison at production-ish sizes (hundreds of
// tasks on a 64-core two-level machine) — the regime dominance pruning
// (E20) opens up for the exact tree DP.
func E21AtScale(cfg Config) *Table {
	t := &Table{
		ID:    "E21",
		Title: "At-scale comparison on 64 cores (ratio to HGP pipeline; >1 = worse)",
		Columns: []string{"n", "HGP cost", "solve time", "HGP+refine", "dual-recursive",
			"multilevel", "kBGP-oblivious", "random", "dp off (8t)", "dp on (8t)", "prune speedup"},
		Notes: "expected: the pipeline stays exact-on-tree and sub-second at n=256; the E5 ordering persists at scale; " +
			"the last three columns A/B incumbent pruning over one prebuilt mixed-strategy 8-tree portfolio " +
			"(2 bisection + 2 min-cut + 4 FRT; median of interleaved repeats)",
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 52))
	h := hierarchy.NUMASockets(8, 8)
	sizes := []int{128, 256}
	if cfg.Quick {
		sizes = []int{64}
	}
	for _, n := range sizes {
		g := gen.Community(rng, 8, n/8, 0.3, 0.01, 10, 1)
		for v := 0; v < g.N(); v++ {
			d := 0.05 + 0.3*rng.Float64()
			g.SetDemand(v, quantUp(d, 8))
		}
		start := time.Now()
		res, err := hgp.Solver{Eps: 0.5, Trees: 2, Seed: 3, Workers: cfg.Workers, Prune: cfg.Prune}.Solve(g, h)
		el := time.Since(start)
		if err != nil {
			t.AddRow(n, "err: "+err.Error())
			continue
		}
		refined := baseline.RefineLocal(context.Background(), g, h, res.Assignment, 1.2, 2)
		offMed, onMed, abErr := e21PruneAB(cfg, g, h)
		if abErr != nil {
			t.AddRow(n, "err: "+abErr.Error())
			continue
		}
		t.AddRow(n, res.Cost, el.Round(time.Millisecond),
			metrics.Ratio(metrics.CostLCA(g, h, refined), res.Cost),
			metrics.Ratio(metrics.CostLCA(g, h, baseline.DualRecursive(rng, g, h)), res.Cost),
			metrics.Ratio(metrics.CostLCA(g, h, baseline.Multilevel(rng, g, h)), res.Cost),
			metrics.Ratio(metrics.CostLCA(g, h, baseline.KBGPOblivious(rng, g, h)), res.Cost),
			metrics.Ratio(metrics.CostLCA(g, h, baseline.Random(rng, g, h)), res.Cost),
			offMed.Round(time.Millisecond), onMed.Round(time.Millisecond),
			metrics.Ratio(offMed.Seconds(), onMed.Seconds()))
	}
	return t
}

// e21PruneAB times the DP phase with incumbent pruning off and on over
// one prebuilt mixed-strategy portfolio (2 bisection + 2 min-cut + 4
// FRT trees), so the A/B isolates the solver from tree-construction
// noise. The mixed portfolio is the regime pruning targets: FRT trees
// land ~40% above the bisection incumbent here, so their DPs abort
// early, whereas a homogeneous portfolio's mapped costs cluster within
// a few percent and the bound structurally cannot bite. Repeats are
// interleaved (off, on, off, on, …) to decorrelate machine drift, and
// the medians are reported. The placements are bit-identical either
// way (the pruning identity battery); only the wall-clock differs.
func e21PruneAB(cfg Config, g *graph.Graph, h *hierarchy.Hierarchy) (off, on time.Duration, err error) {
	sv := hgp.Solver{Eps: 0.5, Trees: 4, Seed: 3, Workers: cfg.Workers}
	dec := mixedPortfolio(sv, g)
	reps := cfg.pick(1, 5)
	offs := make([]time.Duration, 0, reps)
	ons := make([]time.Duration, 0, reps)
	for r := 0; r < reps; r++ {
		for _, prune := range []bool{false, true} {
			s := sv
			s.Prune = prune
			start := time.Now()
			if _, serr := s.SolveDecomposition(context.Background(), g, h, dec); serr != nil {
				return 0, 0, serr
			}
			if el := time.Since(start); prune {
				ons = append(ons, el)
			} else {
				offs = append(offs, el)
			}
		}
	}
	return medianDuration(offs), medianDuration(ons), nil
}

// mixedPortfolio builds the prebuilt mixed-strategy 8-tree portfolio
// the pruning experiments share (2 bisection + 2 min-cut + 4 FRT): the
// heterogeneous regime where the incumbent bound structurally bites.
// E21's A/B and E24's multi-core matrix solve the same decomposition so
// their numbers compare like for like.
func mixedPortfolio(sv hgp.Solver, g *graph.Graph) *treedecomp.Decomposition {
	dec := &treedecomp.Decomposition{}
	for _, sp := range []struct {
		st treedecomp.Strategy
		k  int
	}{{treedecomp.BalancedBisection, 2}, {treedecomp.MinCutSplit, 2}, {treedecomp.FRT, 4}} {
		opt := sv.DecompOptions()
		opt.Trees = sp.k
		opt.Strategy = sp.st
		d2 := treedecomp.Build(g, opt)
		dec.Trees = append(dec.Trees, d2.Trees...)
	}
	return dec
}

func medianDuration(ds []time.Duration) time.Duration {
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)/2]
}

// quantUp rounds x up to a multiple of 1/q.
func quantUp(x float64, q int) float64 {
	steps := int(x*float64(q) + 1 - 1e-9)
	return float64(steps) / float64(q)
}
