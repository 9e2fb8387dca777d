package baseline

import (
	"context"
	"math/rand"
	"testing"

	"hierpart/internal/gen"
	"hierpart/internal/graph"
	"hierpart/internal/hierarchy"
	"hierpart/internal/metrics"
)

func testGraph(seed int64, n int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := gen.ErdosRenyi(rng, n, 0.2, 5)
	gen.UniformDemands(rng, g, 0.1, 0.5)
	return g
}

func checkComplete(t *testing.T, g *graph.Graph, h *hierarchy.Hierarchy, a metrics.Assignment, name string) {
	t.Helper()
	if err := a.Validate(g, h); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

func TestAllBaselinesProduceValidAssignments(t *testing.T) {
	g := testGraph(1, 24)
	h := hierarchy.MustNew([]int{2, 2, 2}, []float64{9, 3, 1, 0})
	rng := rand.New(rand.NewSource(2))
	checkComplete(t, g, h, Random(rng, g, h), "Random")
	checkComplete(t, g, h, GreedyBFS(g, h), "GreedyBFS")
	checkComplete(t, g, h, KBGPOblivious(rng, g, h), "KBGPOblivious")
	checkComplete(t, g, h, DualRecursive(rng, g, h), "DualRecursive")
	checkComplete(t, g, h, Multilevel(rng, g, h), "Multilevel")
}

func TestRandomRespectsCapacityWhenPossible(t *testing.T) {
	g := graph.New(8)
	gen.EqualDemands(g, 0.5)
	h := hierarchy.FlatKWay(4) // 8 halves on 4 leaves: exact fit
	a := Random(rand.New(rand.NewSource(3)), g, h)
	if v := metrics.MaxViolation(g, h, a); v > 1+1e-9 {
		t.Fatalf("violation = %v on an exactly-fitting instance", v)
	}
}

func TestGreedyBFSBalances(t *testing.T) {
	g := gen.Grid(4, 4, 1)
	gen.EqualDemands(g, 0.25)
	h := hierarchy.FlatKWay(4)
	a := GreedyBFS(g, h)
	if v := metrics.MaxViolation(g, h, a); v > 1+1e-9 {
		t.Fatalf("violation = %v", v)
	}
	loads := metrics.LeafLoads(g, h, a)
	for l, d := range loads {
		if d == 0 {
			t.Fatalf("leaf %d empty: %v", l, loads)
		}
	}
}

func TestKBGPObliviousBalanced(t *testing.T) {
	g := testGraph(5, 32)
	gen.EqualDemands(g, 1.0/8.0)
	h := hierarchy.MustNew([]int{2, 2}, []float64{5, 1, 0})
	a := KBGPOblivious(rand.New(rand.NewSource(7)), g, h)
	if im := metrics.Imbalance(g, h, a); im > 1.8 {
		t.Fatalf("imbalance = %v, want near 1", im)
	}
}

func TestDualRecursiveBeatsObliviousOnCommunities(t *testing.T) {
	// 4 planted communities on a 2×2 hierarchy with steep cm: the
	// hierarchy-aware dual recursion should do no worse than the
	// oblivious mapping on average (and usually far better).
	rng := rand.New(rand.NewSource(11))
	h := hierarchy.MustNew([]int{2, 2}, []float64{50, 5, 0})
	var dualTotal, oblTotal float64
	for trial := 0; trial < 8; trial++ {
		g := gen.Community(rng, 4, 6, 0.7, 0.03, 10, 1)
		gen.EqualDemands(g, 1.0/6.0)
		dual := DualRecursive(rng, g, h)
		obl := KBGPOblivious(rng, g, h)
		dualTotal += metrics.CostLCA(g, h, dual)
		oblTotal += metrics.CostLCA(g, h, obl)
	}
	if dualTotal > oblTotal {
		t.Fatalf("dual recursive %v worse than oblivious %v in aggregate", dualTotal, oblTotal)
	}
}

func TestRefineLocalNeverWorsens(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	h := hierarchy.MustNew([]int{2, 2}, []float64{8, 2, 0})
	for trial := 0; trial < 10; trial++ {
		g := testGraph(int64(trial), 16)
		start := Random(rng, g, h)
		before := metrics.CostLCA(g, h, start)
		refined := RefineLocal(context.Background(), g, h, start, 1.1, 4)
		after := metrics.CostLCA(g, h, refined)
		if after > before+1e-9 {
			t.Fatalf("refinement worsened cost: %v -> %v", before, after)
		}
		// Load budget respected for vertices that moved.
		loads := metrics.LeafLoads(g, h, refined)
		startLoads := metrics.LeafLoads(g, h, start)
		for l := range loads {
			if loads[l] > 1.1+1e-9 && loads[l] > startLoads[l]+1e-9 {
				t.Fatalf("refinement overfilled leaf %d: %v", l, loads[l])
			}
		}
	}
}

func TestRefineLocalImprovesObviousMistake(t *testing.T) {
	// Two heavy pairs placed crosswise: refinement must fix it.
	g := graph.New(4)
	gen.EqualDemands(g, 0.5)
	g.AddEdge(0, 1, 100)
	g.AddEdge(2, 3, 100)
	h := hierarchy.FlatKWay(2)
	bad := metrics.Assignment{0, 1, 0, 1}
	refined := RefineLocal(context.Background(), g, h, bad, 1.0, 4)
	if got := metrics.CostLCA(g, h, refined); got != 0 {
		t.Fatalf("refined cost = %v, want 0 (assignment %v)", got, refined)
	}
}

func TestCoarsenPreservesTotals(t *testing.T) {
	g := testGraph(17, 30)
	cg, mapTo := coarsen(g, rand.New(rand.NewSource(1)))
	if cg.N() >= g.N() {
		t.Fatalf("coarsening did not shrink: %d -> %d", g.N(), cg.N())
	}
	var fineD, coarseD float64
	for v := 0; v < g.N(); v++ {
		fineD += g.Demand(v)
		if mapTo[v] < 0 || mapTo[v] >= cg.N() {
			t.Fatalf("bad coarse map %v", mapTo[v])
		}
	}
	for v := 0; v < cg.N(); v++ {
		coarseD += cg.Demand(v)
	}
	if diff := fineD - coarseD; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("demand not preserved: %v vs %v", fineD, coarseD)
	}
	// Cut weights between coarse parts equal summed fine weights.
	if err := cg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSplitKCountsAndCoverage(t *testing.T) {
	g := testGraph(19, 20)
	rng := rand.New(rand.NewSource(2))
	all := make([]int, g.N())
	for v := range all {
		all[v] = v
	}
	parts := splitK(g, rng, all, 5)
	if len(parts) != 5 {
		t.Fatalf("got %d parts", len(parts))
	}
	seen := map[int]bool{}
	for _, p := range parts {
		for _, v := range p {
			if seen[v] {
				t.Fatalf("vertex %d in two parts", v)
			}
			seen[v] = true
		}
	}
	if len(seen) != g.N() {
		t.Fatalf("parts cover %d of %d vertices", len(seen), g.N())
	}
}

func TestMultilevelOnCommunityGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := gen.Community(rng, 4, 16, 0.4, 0.01, 10, 1)
	gen.EqualDemands(g, 1.0/16.0)
	h := hierarchy.MustNew([]int{2, 2}, []float64{50, 5, 0})
	ml := Multilevel(rng, g, h)
	rd := Random(rng, g, h)
	mlCost := metrics.CostLCA(g, h, ml)
	rdCost := metrics.CostLCA(g, h, rd)
	if mlCost >= rdCost {
		t.Fatalf("multilevel (%v) no better than random (%v)", mlCost, rdCost)
	}
}
