package graph

import (
	"fmt"
	"math"
	"sort"
)

// refGraph is the map-based Graph that the single adjacency list
// replaced, kept verbatim (identifiers renamed) as the oracle of
// FuzzGraphMatchesReference: every query must return the same values,
// neighbour order and weight bits included.
type refGraph struct {
	demands []float64
	adj     []map[int]float64 // adj[u][v] = weight
	nbr     [][]int           // neighbors of u in first-insertion order
	m       int               // number of distinct edges
}

// newRefGraph returns a graph with n vertices, no edges, and zero demands.
func newRefGraph(n int) *refGraph {
	g := &refGraph{
		demands: make([]float64, n),
		adj:     make([]map[int]float64, n),
		nbr:     make([][]int, n),
	}
	for i := range g.adj {
		g.adj[i] = make(map[int]float64)
	}
	return g
}

// N returns the number of vertices.
func (g *refGraph) N() int { return len(g.demands) }

// M returns the number of distinct edges.
func (g *refGraph) M() int { return g.m }

// AddVertex appends a vertex with the given demand and returns its ID.
func (g *refGraph) AddVertex(demand float64) int {
	g.demands = append(g.demands, demand)
	g.adj = append(g.adj, make(map[int]float64))
	g.nbr = append(g.nbr, nil)
	return len(g.demands) - 1
}

// SetDemand sets the demand of vertex v.
func (g *refGraph) SetDemand(v int, d float64) {
	g.check(v)
	g.demands[v] = d
}

// Demand returns the demand of vertex v.
func (g *refGraph) Demand(v int) float64 {
	g.check(v)
	return g.demands[v]
}

// TotalDemand returns the sum of all vertex demands.
func (g *refGraph) TotalDemand() float64 {
	var s float64
	for _, d := range g.demands {
		s += d
	}
	return s
}

// AddEdge adds weight w to the edge {u, v}, creating it if absent.
// It panics on self-loops, out-of-range vertices, or negative weight.
func (g *refGraph) AddEdge(u, v int, w float64) {
	g.check(u)
	g.check(v)
	if u == v {
		panic(fmt.Sprintf("graph: self-loop on vertex %d", u))
	}
	if w < 0 || math.IsNaN(w) {
		panic(fmt.Sprintf("graph: invalid edge weight %v", w))
	}
	if _, ok := g.adj[u][v]; !ok {
		g.m++
		g.nbr[u] = append(g.nbr[u], v)
		g.nbr[v] = append(g.nbr[v], u)
	}
	g.adj[u][v] += w
	g.adj[v][u] += w
}

// SetEdgeWeight sets the weight of edge {u, v} to exactly w, creating
// the edge if absent. Unlike AddEdge it replaces rather than
// accumulates. It panics on self-loops, out-of-range vertices, or a
// non-positive or NaN weight (use RemoveEdge to delete an edge).
func (g *refGraph) SetEdgeWeight(u, v int, w float64) {
	g.check(u)
	g.check(v)
	if u == v {
		panic(fmt.Sprintf("graph: self-loop on vertex %d", u))
	}
	if w <= 0 || math.IsNaN(w) {
		panic(fmt.Sprintf("graph: invalid edge weight %v", w))
	}
	if _, ok := g.adj[u][v]; !ok {
		g.m++
		g.nbr[u] = append(g.nbr[u], v)
		g.nbr[v] = append(g.nbr[v], u)
	}
	g.adj[u][v] = w
	g.adj[v][u] = w
}

// RemoveEdge deletes the edge {u, v} and reports whether it existed.
// Neighbor lists keep their remaining insertion order, so downstream
// deterministic float sums stay reproducible for the surviving edges.
func (g *refGraph) RemoveEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	if _, ok := g.adj[u][v]; !ok {
		return false
	}
	delete(g.adj[u], v)
	delete(g.adj[v], u)
	g.nbr[u] = refDropNeighbor(g.nbr[u], v)
	g.nbr[v] = refDropNeighbor(g.nbr[v], u)
	g.m--
	return true
}

// refDropNeighbor removes the first occurrence of x, preserving order.
func refDropNeighbor(ns []int, x int) []int {
	for i, n := range ns {
		if n == x {
			return append(ns[:i], ns[i+1:]...)
		}
	}
	return ns
}

// HasEdge reports whether the edge {u, v} exists.
func (g *refGraph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.N() || v < 0 || v >= g.N() {
		return false
	}
	_, ok := g.adj[u][v]
	return ok
}

// Weight returns the weight of edge {u, v}, or 0 if the edge is absent.
func (g *refGraph) Weight(u, v int) float64 {
	if !g.HasEdge(u, v) {
		return 0
	}
	return g.adj[u][v]
}

// Degree returns the number of neighbors of v.
func (g *refGraph) Degree(v int) int {
	g.check(v)
	return len(g.adj[v])
}

// WeightedDegree returns the total weight of edges incident to v,
// summed in deterministic (insertion) order.
func (g *refGraph) WeightedDegree(v int) float64 {
	g.check(v)
	var s float64
	for _, u := range g.nbr[v] {
		s += g.adj[v][u]
	}
	return s
}

// Neighbors calls fn for every neighbor of v with the edge weight, in
// first-insertion order — a deterministic order, so floating-point sums
// over a vertex's edges are bit-reproducible across runs (map iteration
// would not be).
func (g *refGraph) Neighbors(v int, fn func(u int, w float64)) {
	g.check(v)
	for _, u := range g.nbr[v] {
		fn(u, g.adj[v][u])
	}
}

// SortedNeighbors returns the neighbors of v in ascending vertex order.
func (g *refGraph) SortedNeighbors(v int) []int {
	g.check(v)
	ns := make([]int, 0, len(g.adj[v]))
	for u := range g.adj[v] {
		ns = append(ns, u)
	}
	sort.Ints(ns)
	return ns
}

// Edges returns all edges with U < V, sorted by (U, V).
func (g *refGraph) Edges() []Edge {
	es := make([]Edge, 0, g.m)
	for u := range g.adj {
		for v, w := range g.adj[u] {
			if u < v {
				es = append(es, Edge{U: u, V: v, Weight: w})
			}
		}
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].U != es[j].U {
			return es[i].U < es[j].U
		}
		return es[i].V < es[j].V
	})
	return es
}

// TotalWeight returns the sum of all edge weights, in deterministic
// (per-vertex insertion) order.
func (g *refGraph) TotalWeight() float64 {
	var s float64
	for u := range g.adj {
		for _, v := range g.nbr[u] {
			if u < v {
				s += g.adj[u][v]
			}
		}
	}
	return s
}

// Clone returns a deep copy of g.
func (g *refGraph) Clone() *refGraph {
	c := newRefGraph(g.N())
	copy(c.demands, g.demands)
	for u := range g.adj {
		for v, w := range g.adj[u] {
			c.adj[u][v] = w
		}
		c.nbr[u] = append([]int(nil), g.nbr[u]...)
	}
	c.m = g.m
	return c
}

// CutWeight returns w(CUT(P)): the total weight of edges with exactly one
// endpoint in the vertex set P (given as a membership predicate over IDs).
// Summation order is deterministic (insertion-ordered neighbor lists), so
// repeated calls return bit-identical results — downstream tree edge
// weights and DP costs stay reproducible despite float non-associativity.
func (g *refGraph) CutWeight(inP func(v int) bool) float64 {
	var s float64
	for u := range g.adj {
		if !inP(u) {
			continue
		}
		for _, v := range g.nbr[u] {
			if !inP(v) {
				s += g.adj[u][v]
			}
		}
	}
	return s
}

// CutWeightSet is CutWeight for an explicit vertex set.
func (g *refGraph) CutWeightSet(p map[int]bool) float64 {
	return g.CutWeight(func(v int) bool { return p[v] })
}

// Components returns the connected components as sorted vertex slices,
// ordered by smallest contained vertex.
func (g *refGraph) Components() [][]int {
	seen := make([]bool, g.N())
	var comps [][]int
	for s := 0; s < g.N(); s++ {
		if seen[s] {
			continue
		}
		var comp []int
		stack := []int{s}
		seen[s] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, v)
			for u := range g.adj[v] {
				if !seen[u] {
					seen[u] = true
					stack = append(stack, u)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// Connected reports whether g has at most one connected component.
func (g *refGraph) Connected() bool {
	return g.N() == 0 || len(g.Components()) == 1
}

// InducedSubgraph returns the subgraph induced by the given vertices and
// a mapping from new IDs to original IDs. Vertices keep their demands.
func (g *refGraph) InducedSubgraph(vs []int) (*refGraph, []int) {
	orig := append([]int(nil), vs...)
	sort.Ints(orig)
	idx := make(map[int]int, len(orig))
	for i, v := range orig {
		g.check(v)
		idx[v] = i
	}
	sub := newRefGraph(len(orig))
	for i, v := range orig {
		sub.demands[i] = g.demands[v]
	}
	for i, v := range orig {
		// Insertion-ordered iteration keeps the subgraph's own neighbor
		// order (and thus downstream float sums) deterministic.
		for _, u := range g.nbr[v] {
			if j, ok := idx[u]; ok && i < j {
				sub.AddEdge(i, j, g.adj[v][u])
			}
		}
	}
	return sub, orig
}

// Validate checks internal invariants, returning a descriptive error if
// any is broken. It is intended for tests and debugging.
func (g *refGraph) Validate() error {
	if len(g.adj) != len(g.demands) {
		return fmt.Errorf("graph: adj/demand length mismatch %d != %d", len(g.adj), len(g.demands))
	}
	count := 0
	for u := range g.adj {
		for v, w := range g.adj[u] {
			if v < 0 || v >= g.N() {
				return fmt.Errorf("graph: edge %d-%d out of range", u, v)
			}
			if v == u {
				return fmt.Errorf("graph: self-loop at %d", u)
			}
			back, ok := g.adj[v][u]
			if !ok {
				return fmt.Errorf("graph: edge %d-%d missing reverse entry", u, v)
			}
			if back != w {
				return fmt.Errorf("graph: asymmetric weight on %d-%d: %v vs %v", u, v, w, back)
			}
			if w < 0 || math.IsNaN(w) {
				return fmt.Errorf("graph: invalid weight %v on %d-%d", w, u, v)
			}
			if u < v {
				count++
			}
		}
	}
	if count != g.m {
		return fmt.Errorf("graph: edge count mismatch: counted %d, recorded %d", count, g.m)
	}
	for v, d := range g.demands {
		if d < 0 || math.IsNaN(d) {
			return fmt.Errorf("graph: invalid demand %v at vertex %d", d, v)
		}
	}
	for u := range g.nbr {
		if len(g.nbr[u]) != len(g.adj[u]) {
			return fmt.Errorf("graph: neighbor list of %d has %d entries, adjacency %d", u, len(g.nbr[u]), len(g.adj[u]))
		}
		for _, v := range g.nbr[u] {
			if _, ok := g.adj[u][v]; !ok {
				return fmt.Errorf("graph: neighbor list of %d contains %d not in adjacency", u, v)
			}
		}
	}
	return nil
}

func (g *refGraph) check(v int) {
	if v < 0 || v >= g.N() {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", v, g.N()))
	}
}
