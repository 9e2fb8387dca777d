// Package hierpart's root benchmark harness: one testing.B target per
// experiment table (E1–E10, F1, F2 — see EXPERIMENTS.md), plus
// micro-benchmarks of the pipeline phases. Run everything with
//
//	go test -bench=. -benchmem
//
// Each experiment bench regenerates its table at Quick scale per
// iteration; cmd/hgpbench prints the full-scale tables.
package hierpart

import (
	"context"
	"math/rand"
	"testing"

	"hierpart/internal/baseline"
	"hierpart/internal/canon"
	"hierpart/internal/experiments"
	"hierpart/internal/gen"
	"hierpart/internal/graph"
	"hierpart/internal/hgp"
	"hierpart/internal/hgpt"
	"hierpart/internal/hierarchy"
	"hierpart/internal/instio"
	"hierpart/internal/metrics"
	"hierpart/internal/treedecomp"
)

func benchCfg() experiments.Config { return experiments.Config{Seed: 1, Quick: true} }

func BenchmarkE1TreeDPOptimality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.E1TreeDPOptimality(benchCfg()); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE2CostForms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.E2CostForms(benchCfg()); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE3ViolationBound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.E3ViolationBound(benchCfg()); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE4ApproxRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.E4ApproxRatio(benchCfg()); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE5VsBaselines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.E5VsBaselines(benchCfg()); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE6StreamThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.E6StreamThroughput(benchCfg()); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE7TreeDistortion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.E7TreeDistortion(benchCfg()); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE8DPScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.E8DPScaling(benchCfg()); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE9CMSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.E9CMSweep(benchCfg()); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE10KBGPConsistency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.E10KBGPConsistency(benchCfg()); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE11AblationDP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.E11AblationDP(benchCfg()); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE12AblationTrees(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.E12AblationTrees(benchCfg()); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE13AblationRefinement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.E13AblationRefinement(benchCfg()); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE14EmbeddingCongestion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.E14EmbeddingCongestion(benchCfg()); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE15DESStability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.E15DESStability(benchCfg()); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE16AblationFlowRefine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.E16AblationFlowRefine(benchCfg()); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE17AblationStrategy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.E17AblationStrategy(benchCfg()); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE18DynamicRepartition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.E18DynamicRepartition(benchCfg()); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE19EpsSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.E19EpsSweep(benchCfg()); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE20AblationPruning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.E20AblationPruning(benchCfg()); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE21AtScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.E21AtScale(benchCfg()); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkF1BadSetSplit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.F1BadSetSplit(benchCfg()); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkF2ActiveSets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.F2ActiveSets(benchCfg()); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// ---- micro-benchmarks of the pipeline phases ----

func benchGraph(n int) *hierarchyGraph {
	rng := rand.New(rand.NewSource(1))
	g := gen.Community(rng, 4, n/4, 0.5, 0.02, 10, 1)
	gen.EqualDemands(g, 0.6*16.0/float64(n))
	return &hierarchyGraph{g: g, h: hierarchy.NUMASockets(4, 4)}
}

type hierarchyGraph struct {
	g *graph.Graph
	h *hierarchy.Hierarchy
}

// benchSeeds is the seed cycle of the randomized phase benchmarks:
// iteration i builds with seed i % benchSeeds, so every b.N averages the
// same trees and a before/after ns/op compares the same work.
const benchSeeds = 8

func BenchmarkPhaseDecomposition(b *testing.B) {
	bg := benchGraph(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		treedecomp.Build(bg.g, treedecomp.Options{Trees: 1, Seed: int64(i % benchSeeds)})
	}
}

func BenchmarkPhaseSignatureDP(b *testing.B) {
	bg := benchGraph(64)
	dec := treedecomp.Build(bg.g, treedecomp.Options{Trees: 1, Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (hgpt.Solver{Eps: 0.5}).Solve(dec.Trees[0].T, bg.h); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPhaseWarmBoundedDP measures a session's warm solve after one
// intra-community edge reweight: decomposition repair, certified
// per-tree ceilings, then a DP that serves clean tables from the
// per-tree caches and recomputes the dirty chains under the ceilings.
// Bounded solves never repopulate the caches, so every iteration
// repairs the same base decomposition and does the same work.
func BenchmarkPhaseWarmBoundedDP(b *testing.B) {
	bg := benchGraph(128)
	ctx := context.Background()
	sv := hgp.Solver{Eps: 0.5, Trees: 4, Seed: 1}
	opts := sv.DecompOptions()
	dec, err := treedecomp.BuildContext(ctx, bg.g, opts)
	if err != nil {
		b.Fatal(err)
	}
	sv.TreeCaches = make([]*hgpt.TableCache, len(dec.Trees))
	for i := range sv.TreeCaches {
		sv.TreeCaches[i] = hgpt.NewTableCache()
	}
	base, err := sv.SolveDecomposition(ctx, bg.g, bg.h, dec)
	if err != nil {
		b.Fatal(err)
	}
	// The first edge inside community 0 (benchGraph's communities are
	// consecutive blocks of n/4 vertices), reweighted once.
	block := bg.g.N() / 4
	var deltas []treedecomp.Delta
	for _, e := range bg.g.Edges() {
		if e.U/block == 0 && e.V/block == 0 {
			deltas = []treedecomp.Delta{{Op: treedecomp.DeltaReweightEdge, U: e.U, V: e.V, Weight: 2*e.Weight + 1}}
			break
		}
	}
	mutated := bg.g.Clone()
	if err := treedecomp.Apply(mutated, deltas); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, st, err := treedecomp.Repair(ctx, mutated, dec, deltas, opts, 1)
		if err != nil {
			b.Fatal(err)
		}
		warm := sv
		warm.WarmBounds = hgp.WarmBoundsAfterRepair(base.PerTreeDPCosts, bg.h, st)
		res, err := warm.SolveDecomposition(ctx, mutated, bg.h, rep)
		if err != nil {
			b.Fatal(err)
		}
		if res.BoundFallbacks != 0 || res.TablesReused == 0 {
			b.Fatalf("warm solve: %d bound fallbacks, %d tables reused", res.BoundFallbacks, res.TablesReused)
		}
	}
}

func BenchmarkPhaseEndToEnd(b *testing.B) {
	bg := benchGraph(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := (hgp.Solver{Eps: 0.5, Trees: 2, Seed: int64(i % benchSeeds)}).Solve(bg.g, bg.h); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPhaseCostLCA(b *testing.B) {
	bg := benchGraph(256)
	a := baseline.GreedyBFS(bg.g, bg.h)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metrics.CostLCA(bg.g, bg.h, a)
	}
}

func BenchmarkPhaseCostMirror(b *testing.B) {
	bg := benchGraph(256)
	a := baseline.GreedyBFS(bg.g, bg.h)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metrics.CostMirror(bg.g, bg.h, a)
	}
}

func BenchmarkPhaseRefineLocal(b *testing.B) {
	bg := benchGraph(128)
	rng := rand.New(rand.NewSource(2))
	start := baseline.Random(rng, bg.g, bg.h)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baseline.RefineLocal(context.Background(), bg.g, bg.h, start, 1.2, 1)
	}
}

func BenchmarkPhaseEndToEndWorkers1(b *testing.B) { benchWorkers(b, 1) }
func BenchmarkPhaseEndToEndWorkers2(b *testing.B) { benchWorkers(b, 2) }
func BenchmarkPhaseEndToEndWorkers4(b *testing.B) { benchWorkers(b, 4) }

func BenchmarkPhaseSignatureDPWorkers1(b *testing.B) { benchSigDPWorkers(b, 1) }
func BenchmarkPhaseSignatureDPWorkers2(b *testing.B) { benchSigDPWorkers(b, 2) }
func BenchmarkPhaseSignatureDPWorkers4(b *testing.B) { benchSigDPWorkers(b, 4) }
func BenchmarkPhaseSignatureDPWorkers8(b *testing.B) { benchSigDPWorkers(b, 8) }

// benchSigDPWorkers measures the single-tree signature DP under the
// node-level scheduler (sibling subtrees concurrent, large
// cross-products sharded) on the E8-style workload.
func benchSigDPWorkers(b *testing.B, workers int) {
	bg := benchGraph(64)
	dec := treedecomp.Build(bg.g, treedecomp.Options{Trees: 1, Seed: 1, Workers: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (hgpt.Solver{Eps: 0.5, Workers: workers}).Solve(dec.Trees[0].T, bg.h); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPhaseDecompositionWorkers1(b *testing.B) { benchDecompWorkers(b, 1) }
func BenchmarkPhaseDecompositionWorkers2(b *testing.B) { benchDecompWorkers(b, 2) }
func BenchmarkPhaseDecompositionWorkers4(b *testing.B) { benchDecompWorkers(b, 4) }
func BenchmarkPhaseDecompositionWorkers8(b *testing.B) { benchDecompWorkers(b, 8) }

// benchDecompWorkers measures the decomposition build with per-tree
// sub-seeded RNGs on a worker pool (the distribution is identical at
// every worker count).
func benchDecompWorkers(b *testing.B, workers int) {
	bg := benchGraph(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		treedecomp.Build(bg.g, treedecomp.Options{Trees: 8, Seed: 1, Workers: workers})
	}
}

// benchWorkers measures the per-tree parallelism of the pipeline (the
// tree DPs are independent; results are deterministic regardless).
func benchWorkers(b *testing.B, workers int) {
	bg := benchGraph(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := (hgp.Solver{Eps: 0.5, Trees: 4, Seed: 1, Workers: workers}).Solve(bg.g, bg.h); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPhaseMultilevel(b *testing.B) {
	bg := benchGraph(256)
	rng := rand.New(rand.NewSource(3))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		baseline.Multilevel(rng, bg.g, bg.h)
	}
}

// denseInstance is K_n as a request would carry it: every pair once, in
// shuffled order and orientation, with random weights.
func denseInstance(n int) instio.Instance {
	rng := rand.New(rand.NewSource(1))
	inst := instio.Instance{Hierarchy: instio.HierarchySpec{Deg: []int{4, 4}, CM: []float64{20, 4, 0}}, N: n}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			a, b := u, v
			if rng.Intn(2) == 0 {
				a, b = v, u
			}
			inst.Edges = append(inst.Edges, [3]float64{float64(a), float64(b), 1 + 9*rng.Float64()})
		}
	}
	rng.Shuffle(len(inst.Edges), func(i, j int) { inst.Edges[i], inst.Edges[j] = inst.Edges[j], inst.Edges[i] })
	return inst
}

// BenchmarkMaterializeDense builds the graph of a shuffled K_1000
// (499 500 edges) from its request form.
func BenchmarkMaterializeDense(b *testing.B) {
	inst := denseInstance(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := inst.Materialize(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPermuteDense relabels that K_1000 as the canonical form does.
func BenchmarkPermuteDense(b *testing.B) {
	g, _, err := denseInstance(1000).Materialize()
	if err != nil {
		b.Fatal(err)
	}
	perm := rand.New(rand.NewSource(2)).Perm(g.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		canon.Permute(g, perm)
	}
}
