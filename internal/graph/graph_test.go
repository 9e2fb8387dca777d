package graph

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	g := New(5)
	if g.N() != 5 || g.M() != 0 {
		t.Fatalf("got N=%d M=%d, want 5, 0", g.N(), g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAddEdgeMergesParallel(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 0, 3)
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1 (parallel edges merged)", g.M())
	}
	if w := g.Weight(0, 1); w != 5 {
		t.Fatalf("weight = %v, want 5", w)
	}
	if w := g.Weight(1, 0); w != 5 {
		t.Fatalf("reverse weight = %v, want 5", w)
	}
}

func TestAddEdgePanics(t *testing.T) {
	cases := []struct {
		name    string
		u, v    int
		w       float64
		wantMsg string
	}{
		{"self-loop", 1, 1, 1, "self-loop"},
		{"negative", 0, 1, -1, "invalid edge weight"},
		{"out of range", 0, 9, 1, "out of range"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("expected panic")
				}
				if !strings.Contains(r.(string), c.wantMsg) {
					t.Fatalf("panic %q does not contain %q", r, c.wantMsg)
				}
			}()
			g := New(3)
			g.AddEdge(c.u, c.v, c.w)
		})
	}
}

func TestFromEdgesPanics(t *testing.T) {
	cases := []struct {
		name    string
		e       Edge
		wantMsg string
	}{
		{"self-loop", Edge{1, 1, 1}, "self-loop"},
		{"negative", Edge{0, 1, -1}, "invalid edge weight"},
		{"NaN", Edge{0, 1, math.NaN()}, "invalid edge weight"},
		{"out of range", Edge{0, 9, 1}, "out of range"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("expected panic")
				}
				if !strings.Contains(r.(string), c.wantMsg) {
					t.Fatalf("panic %q does not contain %q", r, c.wantMsg)
				}
			}()
			FromEdges(3, []Edge{{0, 2, 1}, c.e})
		})
	}
}

func TestDemands(t *testing.T) {
	g := New(2)
	g.SetDemand(0, 0.25)
	g.SetDemand(1, 0.5)
	if d := g.Demand(0); d != 0.25 {
		t.Fatalf("demand(0) = %v", d)
	}
	if td := g.TotalDemand(); td != 0.75 {
		t.Fatalf("total demand = %v", td)
	}
	v := g.AddVertex(1.0)
	if v != 2 || g.N() != 3 || g.Demand(2) != 1.0 {
		t.Fatalf("AddVertex: v=%d N=%d d=%v", v, g.N(), g.Demand(2))
	}
}

func TestEdgesSortedAndTotalWeight(t *testing.T) {
	g := New(4)
	g.AddEdge(2, 3, 1)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 3, 4)
	es := g.Edges()
	want := []Edge{{0, 1, 2}, {1, 3, 4}, {2, 3, 1}}
	if len(es) != len(want) {
		t.Fatalf("got %d edges, want %d", len(es), len(want))
	}
	for i := range es {
		if es[i] != want[i] {
			t.Fatalf("edge %d = %+v, want %+v", i, es[i], want[i])
		}
	}
	if tw := g.TotalWeight(); tw != 7 {
		t.Fatalf("total weight = %v, want 7", tw)
	}
}

func TestCutWeight(t *testing.T) {
	// Path 0-1-2-3 with weights 1, 2, 3.
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 2)
	g.AddEdge(2, 3, 3)
	got := g.CutWeightSet(map[int]bool{0: true, 1: true})
	if got != 2 {
		t.Fatalf("cut({0,1}) = %v, want 2", got)
	}
	if got := g.CutWeightSet(map[int]bool{}); got != 0 {
		t.Fatalf("cut(∅) = %v, want 0", got)
	}
	all := map[int]bool{0: true, 1: true, 2: true, 3: true}
	if got := g.CutWeightSet(all); got != 0 {
		t.Fatalf("cut(V) = %v, want 0", got)
	}
}

func TestComponents(t *testing.T) {
	g := New(6)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(4, 5, 1)
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("got %d components, want 3", len(comps))
	}
	wantFirst := []int{0, 1, 2}
	for i, v := range wantFirst {
		if comps[0][i] != v {
			t.Fatalf("component 0 = %v, want %v", comps[0], wantFirst)
		}
	}
	if g.Connected() {
		t.Fatal("graph should be disconnected")
	}
	g.AddEdge(2, 3, 1)
	g.AddEdge(3, 4, 1)
	if !g.Connected() {
		t.Fatal("graph should now be connected")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := New(5)
	g.SetDemand(1, 0.5)
	g.SetDemand(3, 0.75)
	g.AddEdge(1, 3, 2)
	g.AddEdge(1, 2, 7) // 2 excluded: edge must drop
	g.AddEdge(3, 4, 1) // 4 excluded
	sub, orig := g.InducedSubgraph([]int{3, 1})
	if sub.N() != 2 || sub.M() != 1 {
		t.Fatalf("sub N=%d M=%d, want 2, 1", sub.N(), sub.M())
	}
	if orig[0] != 1 || orig[1] != 3 {
		t.Fatalf("orig = %v, want [1 3]", orig)
	}
	if sub.Demand(0) != 0.5 || sub.Demand(1) != 0.75 {
		t.Fatalf("demands not carried: %v %v", sub.Demand(0), sub.Demand(1))
	}
	if sub.Weight(0, 1) != 2 {
		t.Fatalf("weight = %v, want 2", sub.Weight(0, 1))
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	g.SetDemand(2, 0.5)
	c := g.Clone()
	c.AddEdge(1, 2, 5)
	c.SetDemand(2, 0.9)
	if g.M() != 1 || g.Demand(2) != 0.5 {
		t.Fatal("mutating clone affected original")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSortedNeighbors(t *testing.T) {
	g := New(5)
	g.AddEdge(2, 4, 1)
	g.AddEdge(2, 0, 1)
	g.AddEdge(2, 3, 1)
	ns := g.SortedNeighbors(2)
	want := []int{0, 3, 4}
	for i := range want {
		if ns[i] != want[i] {
			t.Fatalf("neighbors = %v, want %v", ns, want)
		}
	}
}

func TestWriteDOT(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 1.5)
	var buf bytes.Buffer
	if err := g.WriteDOT(&buf, "g", func(v int) int { return v % 2 }); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{"graph \"g\"", "0 -- 1", "1.5", "group=1"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("DOT output missing %q:\n%s", frag, out)
		}
	}
}

func randomGraph(rng *rand.Rand, n int, p float64) *Graph {
	g := New(n)
	for v := 0; v < n; v++ {
		g.SetDemand(v, rng.Float64())
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.AddEdge(u, v, 1+rng.Float64()*9)
			}
		}
	}
	return g
}

// Property: for any vertex subset P, cut(P) == cut(V \ P).
func TestCutComplementSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64, mask uint16) bool {
		g := randomGraph(rand.New(rand.NewSource(seed)), 12, 0.3)
		inP := func(v int) bool { return mask&(1<<uint(v)) != 0 }
		notP := func(v int) bool { return !inP(v) }
		a, b := g.CutWeight(inP), g.CutWeight(notP)
		diff := a - b
		return diff < 1e-9 && diff > -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// Property: sum over singleton cuts equals twice the total weight.
func TestSingletonCutSum(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(rand.New(rand.NewSource(seed)), 10, 0.4)
		var s float64
		for v := 0; v < g.N(); v++ {
			vv := v
			s += g.CutWeight(func(u int) bool { return u == vv })
		}
		diff := s - 2*g.TotalWeight()
		return diff < 1e-9 && diff > -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Validate passes for every randomly constructed graph.
func TestValidateRandom(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(rand.New(rand.NewSource(seed)), 15, 0.3)
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedDegree(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 2)
	g.AddEdge(0, 2, 3)
	if wd := g.WeightedDegree(0); wd != 5 {
		t.Fatalf("weighted degree = %v, want 5", wd)
	}
	if d := g.Degree(0); d != 2 {
		t.Fatalf("degree = %d, want 2", d)
	}
}

func TestShortestPaths(t *testing.T) {
	// Path 0-1-2 with weights 2 and 4: inverse lengths 0.5 and 0.25.
	g := New(4)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 2, 4)
	d := g.ShortestPaths(0, InverseWeightLength)
	if d[0] != 0 || d[1] != 0.5 || d[2] != 0.75 {
		t.Fatalf("distances = %v", d)
	}
	if !math.IsInf(d[3], 1) {
		t.Fatalf("unreachable vertex distance = %v", d[3])
	}
	// Heavier edge = shorter: direct light edge loses to a heavy detour.
	g2 := New(3)
	g2.AddEdge(0, 2, 1)  // length 1
	g2.AddEdge(0, 1, 10) // length 0.1
	g2.AddEdge(1, 2, 10) // length 0.1
	d2 := g2.ShortestPaths(0, InverseWeightLength)
	if math.Abs(d2[2]-0.2) > 1e-12 {
		t.Fatalf("detour distance = %v, want 0.2", d2[2])
	}
}

func TestInverseWeightLength(t *testing.T) {
	if InverseWeightLength(4) != 0.25 {
		t.Fatal("1/4 expected")
	}
	if !math.IsInf(InverseWeightLength(0), 1) {
		t.Fatal("zero weight must be infinite length")
	}
}
