package tree

import (
	"fmt"
	"math"
	"slices"
)

// Tree is a rooted tree. Node 0 is always the root. Nodes are appended
// with AddChild and never removed. The zero value is not usable; call New.
type Tree struct {
	parent   []int     // parent[0] == -1
	wParent  []float64 // weight of the edge to the parent; wParent[0] unused
	children [][]int
	demand   []float64 // leaf demand (0 for internal nodes)
	label    []int     // external label (e.g. graph vertex ID), -1 if none
}

// New returns a tree consisting of only the root (node 0).
func New() *Tree {
	return &Tree{
		parent:   []int{-1},
		wParent:  []float64{math.NaN()},
		children: [][]int{nil},
		demand:   []float64{0},
		label:    []int{-1},
	}
}

// Grow ensures the tree has room for n more nodes without
// reallocating, in the style of slices.Grow. Builders that know their
// final size call it once: a bisection tree over k vertices has exactly
// 2k−1 nodes, so its node arrays need not carry append's spare
// capacity for as long as the tree lives.
func (t *Tree) Grow(n int) {
	t.parent = slices.Grow(t.parent, n)
	t.wParent = slices.Grow(t.wParent, n)
	t.children = slices.Grow(t.children, n)
	t.demand = slices.Grow(t.demand, n)
	t.label = slices.Grow(t.label, n)
}

// AddChild appends a new node under parent with the given edge weight
// (use math.Inf(1) for dummy edges) and returns its ID.
func (t *Tree) AddChild(parent int, w float64) int {
	t.check(parent)
	if w < 0 || math.IsNaN(w) {
		panic(fmt.Sprintf("tree: invalid edge weight %v", w))
	}
	id := len(t.parent)
	t.parent = append(t.parent, parent)
	t.wParent = append(t.wParent, w)
	t.children = append(t.children, nil)
	t.demand = append(t.demand, 0)
	t.label = append(t.label, -1)
	t.children[parent] = append(t.children[parent], id)
	return id
}

// N returns the number of nodes.
func (t *Tree) N() int { return len(t.parent) }

// Root returns the root node ID (always 0).
func (t *Tree) Root() int { return 0 }

// Parent returns the parent of v (-1 for the root).
func (t *Tree) Parent(v int) int { t.check(v); return t.parent[v] }

// EdgeWeight returns the weight of the edge from v to its parent.
// It panics for the root.
func (t *Tree) EdgeWeight(v int) float64 {
	t.check(v)
	if v == 0 {
		panic("tree: root has no parent edge")
	}
	return t.wParent[v]
}

// Children returns the children of v (do not mutate).
func (t *Tree) Children(v int) []int { t.check(v); return t.children[v] }

// IsLeaf reports whether v has no children. Note that a root with no
// children counts as a leaf of a single-node tree.
func (t *Tree) IsLeaf(v int) bool { t.check(v); return len(t.children[v]) == 0 }

// SetDemand sets the demand of a leaf. It panics for internal nodes.
func (t *Tree) SetDemand(v int, d float64) {
	t.check(v)
	if !t.IsLeaf(v) {
		panic(fmt.Sprintf("tree: node %d is internal, cannot carry demand", v))
	}
	if d < 0 || math.IsNaN(d) {
		panic(fmt.Sprintf("tree: invalid demand %v", d))
	}
	t.demand[v] = d
}

// Demand returns the demand of v (0 for internal nodes).
func (t *Tree) Demand(v int) float64 { t.check(v); return t.demand[v] }

// SetLabel attaches an external integer label (such as the graph vertex
// a decomposition-tree node maps to) to v.
func (t *Tree) SetLabel(v, l int) { t.check(v); t.label[v] = l }

// Label returns the external label of v, or -1 if unset.
func (t *Tree) Label(v int) int { t.check(v); return t.label[v] }

// Leaves returns the leaf IDs in increasing order.
func (t *Tree) Leaves() []int {
	var ls []int
	for v := 0; v < t.N(); v++ {
		if t.IsLeaf(v) {
			ls = append(ls, v)
		}
	}
	return ls
}

// TotalDemand returns the sum of all leaf demands.
func (t *Tree) TotalDemand() float64 {
	var s float64
	for _, d := range t.demand {
		s += d
	}
	return s
}

// PostOrder returns all node IDs in post-order (children before parents),
// ending with the root.
func (t *Tree) PostOrder() []int {
	order := make([]int, 0, t.N())
	var rec func(v int)
	rec = func(v int) {
		for _, c := range t.children[v] {
			rec(c)
		}
		order = append(order, v)
	}
	rec(0)
	return order
}

// MaxChildren returns the maximum number of children over all nodes.
func (t *Tree) MaxChildren() int {
	m := 0
	for _, cs := range t.children {
		if len(cs) > m {
			m = len(cs)
		}
	}
	return m
}

// Validate checks structural invariants.
func (t *Tree) Validate() error {
	n := t.N()
	if n == 0 || t.parent[0] != -1 {
		return fmt.Errorf("tree: bad root")
	}
	for v := 1; v < n; v++ {
		p := t.parent[v]
		if p < 0 || p >= v {
			return fmt.Errorf("tree: node %d has parent %d (must precede it)", v, p)
		}
		found := false
		for _, c := range t.children[p] {
			if c == v {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("tree: node %d missing from children of %d", v, p)
		}
		if t.wParent[v] < 0 || math.IsNaN(t.wParent[v]) {
			return fmt.Errorf("tree: node %d has invalid parent-edge weight %v", v, t.wParent[v])
		}
	}
	for v := 0; v < n; v++ {
		if !t.IsLeaf(v) && t.demand[v] != 0 {
			return fmt.Errorf("tree: internal node %d has demand %v", v, t.demand[v])
		}
	}
	return nil
}

func (t *Tree) check(v int) {
	if v < 0 || v >= len(t.parent) {
		panic(fmt.Sprintf("tree: node %d out of range [0,%d)", v, len(t.parent)))
	}
}

// Binarize returns a tree in which every node has at most two children,
// obtained by inserting binary spines of dummy nodes connected with
// +Inf-weight edges (§3 of the paper: infinite edges are never cut, so
// solutions are preserved exactly). The second return value maps each
// node of the new tree back to the original node it represents (dummy
// nodes map to the original parent they expand).
func (t *Tree) Binarize() (*Tree, []int) {
	bt := New()
	origOf := []int{0}
	bt.label[0] = t.label[0]

	// attach[v] = node of bt under which the next child of original node v
	// should be attached.
	var rec func(origNode, btNode int)
	rec = func(origNode, btNode int) {
		cs := t.children[origNode]
		attach := btNode
		for i, c := range cs {
			// If more than one child remains and attach already has a
			// child, extend the spine with a dummy node.
			if i >= 1 && len(cs)-i >= 2 {
				d := bt.AddChild(attach, math.Inf(1))
				origOf = append(origOf, origNode)
				attach = d
			}
			nc := bt.AddChild(attach, t.wParent[c])
			origOf = append(origOf, c)
			bt.label[nc] = t.label[c]
			if t.IsLeaf(c) {
				bt.SetDemand(nc, t.demand[c])
			}
			rec(c, nc)
		}
	}
	rec(0, 0)
	return bt, origOf
}
