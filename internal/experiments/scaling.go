package experiments

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"hierpart/internal/gen"
	"hierpart/internal/graph"
	"hierpart/internal/hgpt"
	"hierpart/internal/hierarchy"
	"hierpart/internal/kbgp"
	"hierpart/internal/metrics"
	"hierpart/internal/tree"
	"hierpart/internal/treedecomp"
)

// E7TreeDistortion measures the cut distortion of the decomposition-tree
// embedding: Proposition 1 guarantees ≥ 1; Räcke's construction would
// bound the expectation by O(log n) — this reports what the randomized
// recursive bisection substitute actually achieves per graph family.
func E7TreeDistortion(cfg Config) *Table {
	t := &Table{
		ID:    "E7",
		Title: "Decomposition-tree cut distortion (Proposition 1 / Räcke substitute)",
		Columns: []string{"family", "n", "subsets", "min", "mean", "p95", "max",
			"mean best-of-4"},
		Notes: "expected: min ≥ 1 always; modest means (the O(log n) regime); best-of-distribution lower",
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 30))
	n := cfg.pick(24, 64)
	subsets := cfg.pick(60, 400)
	fams := []struct {
		name string
		mk   func() *graph.Graph
	}{
		{"grid", func() *graph.Graph { return gen.Grid(n/4, 4, 1) }},
		{"torus", func() *graph.Graph { return gen.Torus(n/4, 4, 1) }},
		{"erdos-renyi", func() *graph.Graph { return gen.ErdosRenyi(rng, n, 0.15, 4) }},
		{"power-law", func() *graph.Graph { return gen.BarabasiAlbert(rng, n, 2, 4) }},
		{"community", func() *graph.Graph { return gen.Community(rng, 4, n/4, 0.5, 0.03, 8, 1) }},
	}
	for _, fc := range fams {
		g := fc.mk()
		dec := treedecomp.Build(g, treedecomp.Options{Trees: 4, Seed: rng.Int63()})
		var all []float64
		var bestSum float64
		for si := 0; si < subsets; si++ {
			s := map[int]bool{}
			for v := 0; v < g.N(); v++ {
				if rng.Float64() < 0.3 {
					s[v] = true
				}
			}
			if len(s) == 0 || len(s) == g.N() {
				continue
			}
			best := math.Inf(1)
			for _, dt := range dec.Trees {
				d := dt.CutDistortion(g, s)
				all = append(all, d)
				if d < best {
					best = d
				}
			}
			bestSum += best
		}
		sort.Float64s(all)
		var sum float64
		for _, d := range all {
			sum += d
		}
		t.AddRow(fc.name, g.N(), len(all)/4,
			all[0], sum/float64(len(all)), all[int(float64(len(all))*0.95)], all[len(all)-1],
			bestSum/float64(len(all)/4))
	}
	return t
}

// E8DPScaling sweeps the signature DP's state count and wall time over
// leaves n, rounding ε (which drives D ≈ n²/ε), and hierarchy height h —
// the practical face of the paper's O(n·D^{O(h)}) bound.
func E8DPScaling(cfg Config) *Table {
	t := &Table{
		ID:      "E8",
		Title:   "Signature DP scaling over n, ε, h",
		Columns: []string{"h", "leaves", "ε", "D", "states", "time"},
		Notes:   "expected: states grow with n and 1/ε and sharply with h",
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 31))
	// Per-height sweeps: the state space is D^Θ(h), so taller
	// hierarchies get smaller n and coarser ε (the same constant-h
	// caveat the paper attaches to Theorem 1).
	type sweep struct {
		h     *hierarchy.Hierarchy
		sizes []int
		epss  []float64
	}
	sweeps := []sweep{
		{hierarchy.FlatKWay(8), []int{8, 16, 32, 64, 128}, []float64{1, 0.5, 0.25}},
		{hierarchy.MustNew([]int{4, 2}, []float64{5, 2, 0}), []int{8, 16, 32, 64}, []float64{1, 0.5}},
		{hierarchy.MustNew([]int{2, 2, 2}, []float64{9, 5, 2, 0}), []int{8, 16, 32}, []float64{1, 0.5}},
	}
	if cfg.Quick {
		sweeps = []sweep{
			{hierarchy.FlatKWay(8), []int{8, 16}, []float64{1, 0.5}},
			{hierarchy.MustNew([]int{4, 2}, []float64{5, 2, 0}), []int{8, 16}, []float64{1, 0.5}},
		}
	}
	for _, sw := range sweeps {
		for _, n := range sw.sizes {
			tr := gen.BalancedTree(1, n, 1, 0) // star; demands set below
			leaves := tr.Leaves()
			for _, l := range leaves {
				tr.SetDemand(l, 0.1+0.8*rng.Float64())
			}
			for _, eps := range sw.epss {
				start := time.Now()
				sol, err := hgpt.Solver{Eps: eps, MaxStates: 20_000_000, Workers: cfg.Workers}.Solve(tr, sw.h)
				el := time.Since(start)
				if err != nil {
					t.AddRow(sw.h.Height(), n, eps, "-", "-", "state budget")
					continue
				}
				t.AddRow(sw.h.Height(), n, eps, sol.ScaledTotal, sol.States, el.Round(time.Millisecond/10))
			}
		}
	}
	return t
}

// E10KBGPConsistency cross-checks the general signature DP at h = 1
// against the independent single-dimension k-BGP DP on trees beyond
// brute-force reach.
func E10KBGPConsistency(cfg Config) *Table {
	t := &Table{
		ID:      "E10",
		Title:   "h=1 consistency: signature DP vs independent k-BGP DP",
		Columns: []string{"leaves", "trials", "agree", "max abs diff"},
		Notes:   "expected: exact agreement on every instance",
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 32))
	trials := cfg.pick(4, 12)
	for _, maxLeaves := range []int{10, 20, 40} {
		agree := 0
		var worst float64
		for i := 0; i < trials; i++ {
			tr := exactScaleTree(rng, maxLeaves)
			h := hierarchy.FlatKWay(8)
			sol, err := hgpt.Solver{Eps: 0.5}.Solve(tr, h)
			if err != nil {
				continue
			}
			got, err := kbgp.TreeOptimal(tr, 0.5)
			if err != nil {
				continue
			}
			d := math.Abs(got - sol.DPCost)
			if d > worst {
				worst = d
			}
			if d < 1e-6 {
				agree++
			}
		}
		t.AddRow(maxLeaves, trials, frac(agree, trials), worst)
	}
	return t
}

// E14EmbeddingCongestion routes each decomposition-tree edge's weight
// along its mapped graph path (m_E of §4) and reports the worst relative
// edge load — the congestion quantity Theorem 6 bounds by O(log n) for
// Räcke's optimal distribution. For the randomized-bisection substitute
// this is a measurement, not a guarantee.
func E14EmbeddingCongestion(cfg Config) *Table {
	t := &Table{
		ID:      "E14",
		Title:   "Embedding congestion (Theorem 6 view, m_E routing)",
		Columns: []string{"family", "n", "trees", "min congestion", "mean", "max"},
		Notes:   "diagnostic: single-path m_E routing (not Räcke's fractional multipath) inflates congestion well past O(log n) on expanders — the price of the embedding substitute, measured honestly",
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 33))
	n := cfg.pick(24, 64)
	trees := cfg.pick(3, 6)
	fams := []struct {
		name string
		mk   func() *graph.Graph
	}{
		{"grid", func() *graph.Graph { return gen.Grid(n/4, 4, 1) }},
		{"torus", func() *graph.Graph { return gen.Torus(n/4, 4, 1) }},
		{"erdos-renyi", func() *graph.Graph { return gen.ErdosRenyi(rng, n, 0.15, 4) }},
		{"power-law", func() *graph.Graph { return gen.BarabasiAlbert(rng, n, 2, 4) }},
		{"community", func() *graph.Graph { return gen.Community(rng, 4, n/4, 0.5, 0.03, 8, 1) }},
	}
	for _, fc := range fams {
		g := fc.mk()
		dec := treedecomp.Build(g, treedecomp.Options{Trees: trees, Seed: rng.Int63()})
		min, max, sum := math.Inf(1), 0.0, 0.0
		for _, dt := range dec.Trees {
			m := dt.BuildMapping(g)
			c := dt.Congestion(g, m)
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
			sum += c
		}
		t.AddRow(fc.name, g.N(), trees, min, sum/float64(trees), max)
	}
	return t
}

// E19EpsSweep sweeps the rounding parameter ε — the knob Theorem 2
// exposes: finer rounding tightens the capacity violation toward (1+j)
// and the cost toward the true relaxed optimum, at a polynomial state
// blow-up (D ≈ n²/ε).
func E19EpsSweep(cfg Config) *Table {
	t := &Table{
		ID:      "E19",
		Title:   "Rounding parameter ε: cost / violation / states trade-off",
		Columns: []string{"ε", "mean cost vs ε=0.125", "worst leaf violation", "mean states", "trials"},
		Notes:   "measured: the bicriteria trade made visible — coarse ε under-counts demands, buying LOWER cost at HIGHER leaf violation; fine ε tightens violation toward feasibility while the state count grows, saturating once the instance's demand resolution is fully captured",
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 34))
	trials := cfg.pick(4, 10)
	h := hierarchy.MustNew([]int{2, 2}, []float64{6, 2, 0})
	type inst struct{ tr *tree.Tree }
	var instances []inst
	for len(instances) < trials {
		tr := exactScaleTree(rng, cfg.pick(6, 9))
		if tr.TotalDemand() <= h.Cap(0) {
			instances = append(instances, inst{tr})
		}
	}
	epss := []float64{2, 1, 0.5, 0.25, 0.125}
	costs := make([]float64, len(epss))
	states := make([]float64, len(epss))
	worstViol := make([]float64, len(epss))
	for ei, eps := range epss {
		for _, in := range instances {
			sol, err := hgpt.Solver{Eps: eps}.Solve(in.tr, h)
			if err != nil {
				continue
			}
			costs[ei] += sol.Cost
			states[ei] += float64(sol.States)
			for _, set := range sol.Strict.Levels[h.Height()] {
				if v := set.Demand / h.Cap(h.Height()); v > worstViol[ei] {
					worstViol[ei] = v
				}
			}
		}
	}
	base := costs[len(costs)-1]
	for ei, eps := range epss {
		t.AddRow(eps, metrics.Ratio(costs[ei], base), worstViol[ei],
			states[ei]/float64(trials), trials)
	}
	return t
}

// E20AblationPruning measures dominance pruning of the DP tables: state
// count and wall time with and without, plus a per-instance check that
// the optimum is bit-identical (the formal argument for why it must be
// lives in internal/hgpt/prune.go; the brute-force batteries pin it).
func E20AblationPruning(cfg Config) *Table {
	t := &Table{
		ID:      "E20",
		Title:   "Ablation: dominance pruning of DP tables",
		Columns: []string{"h", "leaves", "states (pruned)", "states (full)", "reduction", "time pruned", "time full", "costs equal"},
		Notes:   "expected: identical optima, substantially fewer states on multi-level hierarchies",
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 35))
	type sweep struct {
		h     *hierarchy.Hierarchy
		sizes []int
	}
	sweeps := []sweep{
		{hierarchy.FlatKWay(8), []int{16, 32}},
		{hierarchy.MustNew([]int{4, 2}, []float64{5, 2, 0}), []int{16, 32}},
		{hierarchy.MustNew([]int{2, 2, 2}, []float64{9, 5, 2, 0}), []int{8, 16}},
	}
	if cfg.Quick {
		sweeps = sweeps[:2]
		for i := range sweeps {
			sweeps[i].sizes = sweeps[i].sizes[:1]
		}
	}
	for _, sw := range sweeps {
		for _, n := range sw.sizes {
			tr := gen.BalancedTree(1, n, 1, 0)
			for _, l := range tr.Leaves() {
				tr.SetDemand(l, 0.1+0.8*rng.Float64())
			}
			start := time.Now()
			pruned, err1 := hgpt.Solver{Eps: 0.5}.Solve(tr, sw.h)
			tp := time.Since(start)
			start = time.Now()
			full, err2 := hgpt.Solver{Eps: 0.5, DisablePruning: true}.Solve(tr, sw.h)
			tf := time.Since(start)
			if err1 != nil || err2 != nil {
				t.AddRow(sw.h.Height(), n, "-", "-", "-", "-", "-", "err")
				continue
			}
			equal := math.Abs(pruned.DPCost-full.DPCost) < 1e-9
			t.AddRow(sw.h.Height(), n, pruned.States, full.States,
				1-float64(pruned.States)/float64(full.States),
				tp.Round(time.Millisecond/10), tf.Round(time.Millisecond/10), equal)
		}
	}
	return t
}
