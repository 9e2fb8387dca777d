package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// FuzzGraphMatchesReference builds a graph with FromEdges from a list
// with repeated pairs, both orientations and zero weights, then runs a
// random sequence of AddVertex, AddEdge, SetEdgeWeight, RemoveEdge,
// SetDemand and Clone on it. The map-based reference (reference_test.go)
// replays the list with AddEdge and then the same sequence. After every
// step both must answer every query alike, neighbour order and weight
// bits included.
func FuzzGraphMatchesReference(f *testing.F) {
	for i := 0; i < 48; i++ {
		f.Add(int64(i+1), uint8(i), uint8(3*i), uint8(64+i))
	}
	f.Add(int64(7), uint8(1), uint8(0), uint8(200))
	f.Add(int64(8), uint8(0), uint8(255), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, size, listLen, steps uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(size)%16
		weight := func() float64 {
			switch rng.Intn(8) {
			case 0:
				return 0
			case 1:
				return math.Copysign(0, -1)
			case 2:
				return math.Inf(1)
			case 3:
				return float64(1 + rng.Intn(3))
			}
			return rng.Float64() * 10
		}
		pair := func(n int) (int, int) {
			u := rng.Intn(n)
			return u, (u + 1 + rng.Intn(n-1)) % n
		}

		var list []Edge
		if n > 1 {
			for i := 0; i < int(listLen); i++ {
				u, v := pair(n)
				list = append(list, Edge{U: u, V: v, Weight: weight()})
			}
		}
		got, want, viaAdd := FromEdges(n, list), newRefGraph(n), New(n)
		for _, e := range list {
			want.AddEdge(e.U, e.V, e.Weight)
			viaAdd.AddEdge(e.U, e.V, e.Weight)
		}
		sameGraph(t, "FromEdges", rng, got, want)
		sameGraph(t, "AddEdge in list order", rng, viaAdd, want)

		for step := 0; step < int(steps); step++ {
			op := rng.Intn(10)
			if got.N() < 2 && op < 7 {
				op = 7
			}
			switch op {
			case 0, 1, 2:
				u, v := pair(got.N())
				w := weight()
				got.AddEdge(u, v, w)
				want.AddEdge(u, v, w)
			case 3, 4:
				u, v := pair(got.N())
				w := weight()
				if w <= 0 {
					w = 0.5
				}
				got.SetEdgeWeight(u, v, w)
				want.SetEdgeWeight(u, v, w)
			case 5, 6:
				u, v := pair(got.N())
				if a, b := got.RemoveEdge(u, v), want.RemoveEdge(u, v); a != b {
					t.Fatalf("step %d: RemoveEdge(%d, %d) = %v, reference %v", step, u, v, a, b)
				}
			case 7:
				d := rng.Float64()
				if a, b := got.AddVertex(d), want.AddVertex(d); a != b {
					t.Fatalf("step %d: AddVertex = %d, reference %d", step, a, b)
				}
			case 8:
				v, d := rng.Intn(got.N()), rng.Float64()
				got.SetDemand(v, d)
				want.SetDemand(v, d)
			case 9:
				got, want = got.Clone(), want.Clone()
			}
			sameGraph(t, "after a step", rng, got, want)
		}

		var vs []int
		for v := 0; v < got.N(); v++ {
			if rng.Intn(2) == 0 {
				vs = append(vs, v)
			}
		}
		gs, gOrig := got.InducedSubgraph(vs)
		ws, wOrig := want.InducedSubgraph(vs)
		if !slices.Equal(gOrig, wOrig) {
			t.Fatalf("InducedSubgraph mapping %v, reference %v", gOrig, wOrig)
		}
		sameGraph(t, "InducedSubgraph", rng, gs, ws)
	})
}

// sameGraph fails t unless g and ref answer every query alike, float
// results compared bit for bit.
func sameGraph(t *testing.T, where string, rng *rand.Rand, g *Graph, ref *refGraph) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf(where+": "+format, args...)
	}
	if g.N() != ref.N() || g.M() != ref.M() {
		fail("N, M = %d, %d; reference %d, %d", g.N(), g.M(), ref.N(), ref.M())
	}
	type arc struct {
		u    int
		bits uint64
	}
	arcs := func(neighbors func(int, func(int, float64)), v int) []arc {
		var out []arc
		neighbors(v, func(u int, w float64) { out = append(out, arc{u, math.Float64bits(w)}) })
		return out
	}
	for v := 0; v < g.N(); v++ {
		if a, b := arcs(g.Neighbors, v), arcs(ref.Neighbors, v); !slices.Equal(a, b) {
			fail("Neighbors(%d) = %v, reference %v", v, a, b)
		}
		if a, b := g.SortedNeighbors(v), ref.SortedNeighbors(v); !slices.Equal(a, b) {
			fail("SortedNeighbors(%d) = %v, reference %v", v, a, b)
		}
		if a, b := g.WeightedDegree(v), ref.WeightedDegree(v); math.Float64bits(a) != math.Float64bits(b) {
			fail("WeightedDegree(%d) = %v, reference %v", v, a, b)
		}
		if a, b := g.Degree(v), ref.Degree(v); a != b {
			fail("Degree(%d) = %d, reference %d", v, a, b)
		}
		if a, b := g.Demand(v), ref.Demand(v); a != b {
			fail("Demand(%d) = %v, reference %v", v, a, b)
		}
	}
	for i := 0; i < 4; i++ {
		u, v := rng.Intn(g.N()+2)-1, rng.Intn(g.N()+2)-1
		if a, b := g.HasEdge(u, v), ref.HasEdge(u, v); a != b {
			fail("HasEdge(%d, %d) = %v, reference %v", u, v, a, b)
		}
		if a, b := g.Weight(u, v), ref.Weight(u, v); math.Float64bits(a) != math.Float64bits(b) {
			fail("Weight(%d, %d) = %v, reference %v", u, v, a, b)
		}
	}
	sameEdge := func(x, y Edge) bool {
		return x.U == y.U && x.V == y.V && math.Float64bits(x.Weight) == math.Float64bits(y.Weight)
	}
	if a, b := g.Edges(), ref.Edges(); !slices.EqualFunc(a, b, sameEdge) {
		fail("Edges = %v, reference %v", a, b)
	}
	if a, b := g.TotalWeight(), ref.TotalWeight(); math.Float64bits(a) != math.Float64bits(b) {
		fail("TotalWeight = %v, reference %v", a, b)
	}
	mask := rng.Uint64()
	inP := func(v int) bool { return mask&(1<<uint(v%64)) != 0 }
	if a, b := g.CutWeight(inP), ref.CutWeight(inP); math.Float64bits(a) != math.Float64bits(b) {
		fail("CutWeight = %v, reference %v", a, b)
	}
	if a, b := g.Components(), ref.Components(); !slices.EqualFunc(a, b, slices.Equal[[]int]) {
		fail("Components = %v, reference %v", a, b)
	}
	if a, b := g.Validate(), ref.Validate(); (a == nil) != (b == nil) {
		fail("Validate = %v, reference %v", a, b)
	}
}
