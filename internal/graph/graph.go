package graph

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Edge is an undirected weighted edge between vertices U and V.
type Edge struct {
	U, V   int
	Weight float64
}

// Graph is a weighted undirected graph with per-vertex demands.
// The zero value is an empty graph; use New to pre-size.
type Graph struct {
	demands []float64
	adj     [][]neighbor // adj[u]: u's neighbours in first-insertion order
	m       int          // number of distinct edges
}

// neighbor is one entry of a vertex's adjacency list: the other
// endpoint and the edge weight.
type neighbor struct {
	v int
	w float64
}

// New returns a graph with n vertices, no edges, and zero demands.
func New(n int) *Graph {
	return &Graph{demands: make([]float64, n), adj: make([][]neighbor, n)}
}

// FromEdges returns the graph that New(n) followed by AddEdge on each
// edge in list order builds: parallel edges merge with their weights
// summed in list order, and every neighbour list keeps first-insertion
// order. It takes O(n + m) time, where AddEdge scans a neighbour list
// per call. It panics on the edges AddEdge rejects.
func FromEdges(n int, edges []Edge) *Graph {
	g := New(n)
	// Lay out every copy of every edge at both endpoints, in list
	// order, in one backing array.
	off := make([]int, n+1)
	for _, e := range edges {
		g.checkEdge(e.U, e.V, e.Weight)
		off[e.U+1]++
		off[e.V+1]++
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	back := make([]neighbor, off[n])
	for v := range g.adj {
		g.adj[v] = back[off[v]:off[v]:off[v+1]]
	}
	for _, e := range edges {
		g.adj[e.U] = append(g.adj[e.U], neighbor{e.V, e.Weight})
		g.adj[e.V] = append(g.adj[e.V], neighbor{e.U, e.Weight})
	}
	// Merge each list in place: a neighbour keeps its first position
	// and adds up its copies' weights from zero in list order.
	at := make([]int, n) // at[x]-1: x's position in the list being merged
	for u, copies := range g.adj {
		merged := copies[:0]
		for _, a := range copies {
			i := at[a.v] - 1
			if i < 0 || i >= len(merged) || merged[i].v != a.v {
				i = len(merged)
				at[a.v] = i + 1
				merged = append(merged, neighbor{v: a.v})
			}
			merged[i].w += a.w
		}
		g.adj[u] = merged
		g.m += len(merged)
	}
	g.m /= 2
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.demands) }

// M returns the number of distinct edges.
func (g *Graph) M() int { return g.m }

// AddVertex appends a vertex with the given demand and returns its ID.
func (g *Graph) AddVertex(demand float64) int {
	g.demands = append(g.demands, demand)
	g.adj = append(g.adj, nil)
	return len(g.demands) - 1
}

// SetDemand sets the demand of vertex v.
func (g *Graph) SetDemand(v int, d float64) {
	g.check(v)
	g.demands[v] = d
}

// Demand returns the demand of vertex v.
func (g *Graph) Demand(v int) float64 {
	g.check(v)
	return g.demands[v]
}

// TotalDemand returns the sum of all vertex demands.
func (g *Graph) TotalDemand() float64 {
	var s float64
	for _, d := range g.demands {
		s += d
	}
	return s
}

// AddEdge adds weight w to the edge {u, v}, creating it if absent.
// It panics on self-loops, out-of-range vertices, or negative weight.
func (g *Graph) AddEdge(u, v int, w float64) {
	g.checkEdge(u, v, w)
	i, j := g.slot(u, v)
	g.adj[u][i].w += w
	g.adj[v][j].w += w
}

// SetEdgeWeight sets the weight of edge {u, v} to exactly w, creating
// the edge if absent. Unlike AddEdge it replaces rather than
// accumulates. It panics on self-loops, out-of-range vertices, or a
// non-positive or NaN weight (use RemoveEdge to delete an edge).
func (g *Graph) SetEdgeWeight(u, v int, w float64) {
	g.checkEdge(u, v, w)
	if w == 0 {
		panic(fmt.Sprintf("graph: invalid edge weight %v", w))
	}
	i, j := g.slot(u, v)
	g.adj[u][i].w = w
	g.adj[v][j].w = w
}

// slot returns the positions of v in u's list and of u in v's list,
// appending a zero-weight edge {u, v} to both if it is absent.
func (g *Graph) slot(u, v int) (i, j int) {
	if i = g.find(u, v); i >= 0 {
		return i, g.find(v, u)
	}
	g.m++
	g.adj[u] = append(g.adj[u], neighbor{v: v})
	g.adj[v] = append(g.adj[v], neighbor{v: u})
	return len(g.adj[u]) - 1, len(g.adj[v]) - 1
}

// find returns the position of v in u's neighbour list, or -1 when
// the edge is absent or either vertex is out of range.
func (g *Graph) find(u, v int) int {
	if u < 0 || u >= g.N() || v < 0 || v >= g.N() {
		return -1
	}
	for i, a := range g.adj[u] {
		if a.v == v {
			return i
		}
	}
	return -1
}

// RemoveEdge deletes the edge {u, v} and reports whether it existed.
// Neighbor lists keep their remaining insertion order, so downstream
// deterministic float sums stay reproducible for the surviving edges.
func (g *Graph) RemoveEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	i := g.find(u, v)
	if i < 0 {
		return false
	}
	g.adj[u] = slices.Delete(g.adj[u], i, i+1)
	j := g.find(v, u)
	g.adj[v] = slices.Delete(g.adj[v], j, j+1)
	g.m--
	return true
}

// HasEdge reports whether the edge {u, v} exists.
func (g *Graph) HasEdge(u, v int) bool { return g.find(u, v) >= 0 }

// Weight returns the weight of edge {u, v}, or 0 if the edge is absent.
func (g *Graph) Weight(u, v int) float64 {
	if i := g.find(u, v); i >= 0 {
		return g.adj[u][i].w
	}
	return 0
}

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v int) int {
	g.check(v)
	return len(g.adj[v])
}

// WeightedDegree returns the total weight of edges incident to v,
// summed in deterministic (insertion) order.
func (g *Graph) WeightedDegree(v int) float64 {
	g.check(v)
	var s float64
	for _, a := range g.adj[v] {
		s += a.w
	}
	return s
}

// Neighbors calls fn for every neighbor of v with the edge weight, in
// first-insertion order — a deterministic order, so floating-point sums
// over a vertex's edges are bit-reproducible across runs.
func (g *Graph) Neighbors(v int, fn func(u int, w float64)) {
	g.check(v)
	for _, a := range g.adj[v] {
		fn(a.v, a.w)
	}
}

// SortedNeighbors returns the neighbors of v in ascending vertex order.
func (g *Graph) SortedNeighbors(v int) []int {
	g.check(v)
	ns := make([]int, len(g.adj[v]))
	for i, a := range g.adj[v] {
		ns[i] = a.v
	}
	sort.Ints(ns)
	return ns
}

// Edges returns all edges with U < V, sorted by (U, V).
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.m)
	for u, as := range g.adj {
		row := len(es)
		for _, a := range as {
			if u < a.v {
				es = append(es, Edge{U: u, V: a.v, Weight: a.w})
			}
		}
		slices.SortFunc(es[row:], func(x, y Edge) int { return x.V - y.V })
	}
	return es
}

// TotalWeight returns the sum of all edge weights, in deterministic
// (per-vertex insertion) order.
func (g *Graph) TotalWeight() float64 {
	var s float64
	for u, as := range g.adj {
		for _, a := range as {
			if u < a.v {
				s += a.w
			}
		}
	}
	return s
}

// Clone returns a deep copy of g. Its lists share one backing array,
// each capped at its own end so an append reallocates it instead of
// overwriting the next.
func (g *Graph) Clone() *Graph {
	c := &Graph{demands: slices.Clone(g.demands), adj: make([][]neighbor, g.N()), m: g.m}
	back := make([]neighbor, 0, 2*g.m)
	for u, as := range g.adj {
		back = append(back, as...)
		c.adj[u] = back[len(back)-len(as) : len(back) : len(back)]
	}
	return c
}

// CutWeight returns w(CUT(P)): the total weight of edges with exactly one
// endpoint in the vertex set P (given as a membership predicate over IDs).
// Summation order is deterministic (insertion-ordered neighbor lists), so
// repeated calls return bit-identical results — downstream tree edge
// weights and DP costs stay reproducible despite float non-associativity.
func (g *Graph) CutWeight(inP func(v int) bool) float64 {
	var s float64
	for u, as := range g.adj {
		if !inP(u) {
			continue
		}
		for _, a := range as {
			if !inP(a.v) {
				s += a.w
			}
		}
	}
	return s
}

// CutWeightSet is CutWeight for an explicit vertex set.
func (g *Graph) CutWeightSet(p map[int]bool) float64 {
	return g.CutWeight(func(v int) bool { return p[v] })
}

// Components returns the connected components as sorted vertex slices,
// ordered by smallest contained vertex.
func (g *Graph) Components() [][]int {
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
			for _, a := range g.adj[v] {
				if !seen[a.v] {
					seen[a.v] = true
					stack = append(stack, a.v)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// Connected reports whether g has at most one connected component.
func (g *Graph) Connected() bool {
	return g.N() == 0 || len(g.Components()) == 1
}

// InducedSubgraph returns the subgraph induced by the given vertices and
// a mapping from new IDs to original IDs. Vertices keep their demands.
func (g *Graph) InducedSubgraph(vs []int) (*Graph, []int) {
	orig := append([]int(nil), vs...)
	sort.Ints(orig)
	idx := make(map[int]int, len(orig))
	for i, v := range orig {
		g.check(v)
		idx[v] = i
	}
	sub := New(len(orig))
	for i, v := range orig {
		sub.demands[i] = g.demands[v]
	}
	for i, v := range orig {
		// Walking v's list in order keeps the subgraph's own neighbour
		// order (and thus downstream float sums) deterministic. Each
		// pair comes up once, so nothing merges and no list is scanned.
		for _, a := range g.adj[v] {
			if j, ok := idx[a.v]; ok && i < j {
				sub.adj[i] = append(sub.adj[i], neighbor{j, a.w})
				sub.adj[j] = append(sub.adj[j], neighbor{i, a.w})
				sub.m++
			}
		}
	}
	return sub, orig
}

// Validate checks internal invariants, returning a descriptive error if
// any is broken. It is intended for tests and debugging.
func (g *Graph) Validate() error {
	if len(g.adj) != len(g.demands) {
		return fmt.Errorf("graph: adj/demand length mismatch %d != %d", len(g.adj), len(g.demands))
	}
	count := 0
	listed := make([]int, g.N()) // listed[v] == u+1: v already seen in u's list
	for u, as := range g.adj {
		for _, a := range as {
			v, w := a.v, a.w
			if v < 0 || v >= g.N() {
				return fmt.Errorf("graph: edge %d-%d out of range", u, v)
			}
			if v == u {
				return fmt.Errorf("graph: self-loop at %d", u)
			}
			if listed[v] == u+1 {
				return fmt.Errorf("graph: neighbour %d listed twice for %d", v, u)
			}
			listed[v] = u + 1
			j := g.find(v, u)
			if j < 0 {
				return fmt.Errorf("graph: edge %d-%d missing reverse entry", u, v)
			}
			if back := g.adj[v][j].w; back != w {
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
	return nil
}

func (g *Graph) check(v int) {
	if v < 0 || v >= g.N() {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", v, g.N()))
	}
}

// checkEdge panics on what AddEdge rejects: out-of-range endpoints,
// self-loops, and negative or NaN weights.
func (g *Graph) checkEdge(u, v int, w float64) {
	g.check(u)
	g.check(v)
	if u == v {
		panic(fmt.Sprintf("graph: self-loop on vertex %d", u))
	}
	if w < 0 || math.IsNaN(w) {
		panic(fmt.Sprintf("graph: invalid edge weight %v", w))
	}
}
