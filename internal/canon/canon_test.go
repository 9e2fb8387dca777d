package canon

import (
	"math"
	"math/rand"
	"testing"

	"hierpart/internal/graph"
)

// cycle returns the n-cycle with unit weights and equal demands.
func cycle(n int, demand float64) *graph.Graph {
	g := graph.New(n)
	for v := 0; v < n; v++ {
		g.SetDemand(v, demand)
		g.AddEdge(v, (v+1)%n, 1)
	}
	return g
}

// disjointCycles returns k disjoint m-cycles (unit weights, equal
// demands) — 2-regular like the single (k·m)-cycle, so 1-WL cannot
// tell them apart.
func disjointCycles(k, m int, demand float64) *graph.Graph {
	g := graph.New(k * m)
	for c := 0; c < k; c++ {
		base := c * m
		for v := 0; v < m; v++ {
			g.SetDemand(base+v, demand)
			g.AddEdge(base+v, base+(v+1)%m, 1)
		}
	}
	return g
}

func randPerm(rng *rand.Rand, n int) []int {
	p := rng.Perm(n)
	return p
}

func graphsIdentical(t *testing.T, a, b *graph.Graph) {
	t.Helper()
	if a.N() != b.N() || a.M() != b.M() {
		t.Fatalf("shape mismatch: %d/%d vertices, %d/%d edges", a.N(), b.N(), a.M(), b.M())
	}
	for v := 0; v < a.N(); v++ {
		if math.Float64bits(a.Demand(v)) != math.Float64bits(b.Demand(v)) {
			t.Fatalf("demand mismatch at %d: %v vs %v", v, a.Demand(v), b.Demand(v))
		}
	}
	ea, eb := a.Edges(), b.Edges()
	for i := range ea {
		if ea[i].U != eb[i].U || ea[i].V != eb[i].V ||
			math.Float64bits(ea[i].Weight) != math.Float64bits(eb[i].Weight) {
			t.Fatalf("edge %d mismatch: %+v vs %+v", i, ea[i], eb[i])
		}
	}
}

func TestEmptyAndTrivialGraphs(t *testing.T) {
	f0, ok := Canonicalize(graph.New(0))
	if !ok || f0.Fingerprint == "" {
		t.Fatal("empty graph must canonicalize")
	}
	g1 := graph.New(1)
	g1.SetDemand(0, 2.5)
	f1, ok := Canonicalize(g1)
	if !ok || len(f1.Perm) != 1 || f1.Perm[0] != 0 {
		t.Fatalf("single vertex: ok=%v perm=%v", ok, f1.Perm)
	}
	if f0.Fingerprint == f1.Fingerprint {
		t.Fatal("empty and single-vertex fingerprints must differ")
	}
}

func TestDistinctWeightsRefineDiscrete(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 2)
	g.AddEdge(0, 2, 3)
	f, ok := Canonicalize(g)
	if !ok {
		t.Fatal("triangle with distinct weights must canonicalize")
	}
	if f.Branches != 0 {
		t.Fatalf("refinement alone should be discrete, got %d branches", f.Branches)
	}
}

func TestPathNeedsTieBreakAndIsInvariant(t *testing.T) {
	// P4 with uniform demands: WL stabilizes with classes {ends},
	// {middles} — the exact tie-break must finish the job, and both
	// orientations must agree.
	mk := func(order []int) *graph.Graph {
		g := graph.New(4)
		g.AddEdge(order[0], order[1], 1)
		g.AddEdge(order[1], order[2], 1)
		g.AddEdge(order[2], order[3], 1)
		return g
	}
	a, okA := Canonicalize(mk([]int{0, 1, 2, 3}))
	b, okB := Canonicalize(mk([]int{3, 2, 1, 0}))
	if !okA || !okB {
		t.Fatal("P4 must canonicalize")
	}
	if a.Branches == 0 {
		t.Fatal("P4 with uniform demands should need the tie-break")
	}
	if a.Fingerprint != b.Fingerprint {
		t.Fatal("reversed path must share the fingerprint")
	}
	graphsIdentical(t, a.Graph, b.Graph)
}

// TestWLEquivalentNonIsomorphicPairDistinct pins the tie-break on the
// classic 1-WL-equivalent pair: C6 versus two disjoint C3s. Both are
// 2-regular with identical demands, so refinement stabilizes with one
// colour class of 6 and pure WL hashing would collide; the exact
// backtracking search must separate them (the fingerprint hashes the
// canonical serialization, so non-isomorphic graphs can never share
// it).
func TestWLEquivalentNonIsomorphicPairDistinct(t *testing.T) {
	c6, ok1 := Canonicalize(cycle(6, 1))
	c33, ok2 := Canonicalize(disjointCycles(2, 3, 1))
	if !ok1 || !ok2 {
		t.Fatal("6-vertex 2-regular graphs fit the default budgets and must canonicalize")
	}
	if c6.Branches == 0 || c33.Branches == 0 {
		t.Fatal("2-regular graphs must go through the tie-break")
	}
	if c6.Fingerprint == c33.Fingerprint {
		t.Fatal("non-isomorphic WL-equivalent graphs must not share a fingerprint")
	}
}

// TestLargeAutomorphismClassRefused pins the class cap: refinement on a
// big regular pair (C16 vs two C8s) stabilizes with a single 16-vertex
// colour class, over maxClass — both are refused after one round so
// the caller keys them by their labelled forms.
func TestLargeAutomorphismClassRefused(t *testing.T) {
	for name, g := range map[string]*graph.Graph{"C16": cycle(16, 1), "2xC8": disjointCycles(2, 8, 1)} {
		f, work := canonicalize(g, budget(g))
		if f != nil {
			t.Fatalf("%s should be refused by the class cap", name)
		}
		if want := int64(g.N() + g.M()); work != want {
			t.Fatalf("%s: refusal spent %d work units, want one round (%d)", name, work, want)
		}
	}
}

// TestBranchBudgetRefuses: a budget that runs out inside the tie-break
// search refuses; it never returns the best certificate of a partial
// search.
func TestBranchBudgetRefuses(t *testing.T) {
	g := cycle(8, 1)
	// One round of root refinement plus three more: the search has
	// started (the class of 8 is within the cap) but cannot finish.
	if f, _ := canonicalize(g, 4*int64(g.N()+g.M())); f != nil {
		t.Fatal("an exhausted budget must refuse, not return a partial search's answer")
	}
	if _, ok := Canonicalize(g); !ok {
		t.Fatal("C8 must canonicalize under the default budget")
	}
}

// twoClique is hgpload's synthetic instance: two 4-cliques of weight
// 10 joined by one weak bridge, equal demands. Its stable partition
// has three classes and its tie-break search 126 branches.
func twoClique() *graph.Graph {
	g := graph.New(8)
	for v := 0; v < 8; v++ {
		g.SetDemand(v, 0.5)
	}
	for b := 0; b < 8; b += 4 {
		for i := b; i < b+4; i++ {
			for j := i + 1; j < b+4; j++ {
				g.AddEdge(i, j, 10)
			}
		}
	}
	g.AddEdge(0, 4, 1)
	return g
}

// TestBudgetBoundsWholeSearch counts work, not time: the two-clique's
// full search costs a fixed number of rounds × (n + m). Every smaller
// budget — including ones the root refinement fits in, so the cut falls
// inside the tie-break search — refuses without spending more than it
// was given, and the full amount canonicalizes.
func TestBudgetBoundsWholeSearch(t *testing.T) {
	g := twoClique()
	full, work := canonicalize(g, budget(g))
	if full == nil {
		t.Fatal("the two-clique must canonicalize under the default budget")
	}
	unit := int64(g.N() + g.M())
	if work%unit != 0 || full.Branches != 126 {
		t.Fatalf("work %d over %d branches; want whole rounds of n+m = %d and 126 branches", work, full.Branches, unit)
	}
	if work > budget(g) {
		t.Fatalf("work %d exceeds the budget %d", work, budget(g))
	}
	for b := int64(0); b < work; b += unit / 2 {
		f, spent := canonicalize(g, b)
		if f != nil {
			t.Fatalf("budget %d < %d canonicalized", b, work)
		}
		if spent > b {
			t.Fatalf("budget %d: spent %d", b, spent)
		}
	}
	f, spent := canonicalize(g, work)
	if f == nil || spent != work || f.Fingerprint != full.Fingerprint {
		t.Fatalf("the exact budget %d must canonicalize to the same form (spent %d)", work, spent)
	}
}

// TestBudgetRefusesLongRefinement: a uniform 45×45 grid needs hundreds
// of rounds to stabilize and its search eight branches more; the
// budget cuts it after about budgetRounds rounds, whatever the labels.
func TestBudgetRefusesLongRefinement(t *testing.T) {
	g := graph.New(45 * 45)
	for r := 0; r < 45; r++ {
		for c := 0; c < 45; c++ {
			v := r*45 + c
			g.SetDemand(v, 1)
			if c+1 < 45 {
				g.AddEdge(v, v+1, 1)
			}
			if r+1 < 45 {
				g.AddEdge(v, v+45, 1)
			}
		}
	}
	f, work := canonicalize(g, budget(g))
	if f != nil {
		t.Fatal("a uniform 45x45 grid must be refused")
	}
	if work > budget(g) {
		t.Fatalf("work %d exceeds the budget %d", work, budget(g))
	}
}

func TestPermuteRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.New(10)
	for v := 0; v < 10; v++ {
		g.SetDemand(v, rng.Float64())
	}
	for i := 0; i < 18; i++ {
		u, v := rng.Intn(10), rng.Intn(10)
		if u != v && !g.HasEdge(u, v) {
			g.AddEdge(u, v, 1+rng.Float64())
		}
	}
	perm := randPerm(rng, 10)
	p := Permute(g, perm)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	inv := make([]int, 10)
	for v, c := range perm {
		inv[c] = v
	}
	graphsIdentical(t, g, Permute(p, inv))
}

func TestTranslateAssignment(t *testing.T) {
	f := &Form{Perm: []int{2, 0, 1}}
	got := f.TranslateAssignment([]int{10, 11, 12})
	want := []int{12, 10, 11}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("translate = %v, want %v", got, want)
		}
	}
}
