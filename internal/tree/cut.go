package tree

import (
	"fmt"
	"math"
)

// CutResult describes CUT_T(S) for a leaf subset S (Definition 5 of the
// paper): the minimum-weight edge set separating the leaves of S from
// all other leaves, tie-broken by the smallest mirror set N(S) and then
// canonically (lower-numbered nodes are preferentially excluded).
type CutResult struct {
	// Weight is w(CUT_T(S)); +Inf if S can only be separated by cutting
	// an infinite (dummy) edge.
	Weight float64
	// InMirror[v] reports whether node v belongs to the mirror set N(S):
	// the union of components of T∖CUT_T(S) containing a node of S.
	InMirror []bool
	// CutEdges lists the child endpoints of the cut edges (each edge is
	// identified by its lower endpoint), sorted ascending.
	CutEdges []int
	// MirrorSize is the number of nodes in N(S).
	MirrorSize int
}

// CutLeafSet computes CUT_T(S) by a two-label tree DP: each node is on
// the S side (label 1) or the complement side (label 0); leaves are
// forced by membership in S and each edge whose endpoints disagree is
// cut. Costs are compared lexicographically by (weight, |N(S)|), which
// realizes Definition 5's tie-breaking; remaining ties prefer label 0,
// giving a canonical result.
func (t *Tree) CutLeafSet(inS func(leaf int) bool) CutResult {
	n := t.N()
	const nlabels = 2
	cost := make([][nlabels]float64, n)
	size := make([][nlabels]int, n) // number of label-1 nodes in subtree
	choice := make([][nlabels][]byte, n)

	order := t.PostOrder()
	for _, v := range order {
		if t.IsLeaf(v) {
			if inS(v) {
				cost[v][0] = math.Inf(1)
				cost[v][1] = 0
				size[v][1] = 1
			} else {
				cost[v][0] = 0
				cost[v][1] = math.Inf(1)
				size[v][1] = 1
			}
			continue
		}
		for s := 0; s < nlabels; s++ {
			var c float64
			var sz int
			if s == 1 {
				sz = 1
			}
			picks := make([]byte, len(t.children[v]))
			for i, ch := range t.children[v] {
				// Child label 0 vs 1: cut edge iff labels differ.
				c0 := cost[ch][0]
				c1 := cost[ch][1]
				w := t.wParent[ch]
				if s == 0 {
					c1 = addInf(c1, w)
				} else {
					c0 = addInf(c0, w)
				}
				if c1 < c0 || (c1 == c0 && size[ch][1] < size[ch][0]) {
					picks[i] = 1
					c = addInf(c, c1)
					sz += size[ch][1]
				} else {
					picks[i] = 0
					c = addInf(c, c0)
					sz += size[ch][0]
				}
			}
			cost[v][s] = c
			size[v][s] = sz
			choice[v][s] = picks
		}
	}

	root := t.Root()
	rootLabel := 0
	if cost[root][1] < cost[root][0] ||
		(cost[root][1] == cost[root][0] && size[root][1] < size[root][0]) {
		rootLabel = 1
	}

	res := CutResult{
		Weight:   cost[root][rootLabel],
		InMirror: make([]bool, n),
	}
	// Reconstruct labels top-down.
	labels := make([]byte, n)
	labels[root] = byte(rootLabel)
	var rec func(v int)
	rec = func(v int) {
		if t.IsLeaf(v) {
			return
		}
		picks := choice[v][labels[v]]
		for i, ch := range t.children[v] {
			labels[ch] = picks[i]
			rec(ch)
		}
	}
	rec(root)
	for v := 0; v < n; v++ {
		if labels[v] == 1 {
			res.InMirror[v] = true
			res.MirrorSize++
		}
		if v != root && labels[v] != labels[t.parent[v]] {
			res.CutEdges = append(res.CutEdges, v)
		}
	}
	return res
}

// CutLeafSetOf is CutLeafSet for an explicit leaf set. It panics if the
// set contains a non-leaf node.
func (t *Tree) CutLeafSetOf(s map[int]bool) CutResult {
	for v := range s {
		if !t.IsLeaf(v) {
			panic(fmt.Sprintf("tree: CutLeafSetOf: node %d is not a leaf", v))
		}
	}
	return t.CutLeafSet(func(leaf int) bool { return s[leaf] })
}

// addInf is a + b with the convention Inf + Inf = Inf (avoids NaN from
// Inf - Inf elsewhere; plain float64 addition already satisfies this,
// the helper just documents intent).
func addInf(a, b float64) float64 { return a + b }

// CutWeight evaluates w(CUT_T(S)), CutLeafSet's Weight, for many leaf
// sets of one tree. It runs CutLeafSet's two-label recurrence without
// the reconstruction (labels, mirror, cut edges) and without the mirror
// sizes that only break ties between equal weights, over one post-order
// and per-node buffers reused across calls. Each node adds its
// children's cheaper label in the same child order as CutLeafSet, so
// the weight is bit-identical. The tree must not change while a
// CutWeight is in use, and a CutWeight is not safe for concurrent use.
type CutWeight struct {
	t     *Tree
	order []int
	cost  [][2]float64 // per node: cost with the node off (0) or on (1) the S side
	in    []bool
}

// NewCutWeight returns a CutWeight over t.
func NewCutWeight(t *Tree) *CutWeight {
	return &CutWeight{
		t:     t,
		order: t.PostOrder(),
		cost:  make([][2]float64, t.N()),
		in:    make([]bool, t.N()),
	}
}

// Of returns w(CUT_T(S)) for S = leaves; +Inf if S can only be
// separated by cutting an infinite edge. It panics if leaves holds a
// non-leaf node.
func (c *CutWeight) Of(leaves []int) float64 {
	t := c.t
	for _, l := range leaves {
		if !t.IsLeaf(l) {
			panic(fmt.Sprintf("tree: CutWeight.Of: node %d is not a leaf", l))
		}
		c.in[l] = true
	}
	inf := math.Inf(1)
	for _, v := range c.order {
		kids := t.children[v]
		if len(kids) == 0 {
			if c.in[v] {
				c.cost[v] = [2]float64{inf, 0}
			} else {
				c.cost[v] = [2]float64{0, inf}
			}
			continue
		}
		var c0, c1 float64
		for _, ch := range kids {
			a, w := c.cost[ch], t.wParent[ch]
			c0 += cheaper(a[0], a[1]+w)
			c1 += cheaper(a[0]+w, a[1])
		}
		c.cost[v] = [2]float64{c0, c1}
	}
	for _, l := range leaves {
		c.in[l] = false
	}
	root := c.cost[t.Root()]
	return cheaper(root[0], root[1])
}

// cheaper returns the label cost CutLeafSet picks: label 1's when it is
// strictly lower, else label 0's (equal costs are the same value, so
// the mirror-size tie-break never changes the weight).
func cheaper(c0, c1 float64) float64 {
	if c1 < c0 {
		return c1
	}
	return c0
}
