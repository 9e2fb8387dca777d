package exact

import (
	"fmt"
	"math"

	"hierpart/internal/graph"
	"hierpart/internal/hgpt"
	"hierpart/internal/hierarchy"
	"hierpart/internal/metrics"
	"hierpart/internal/tree"
)

// tol absorbs floating-point noise in capacity comparisons.
const tol = 1e-9

// HGPBrute finds an optimal placement of graph vertices onto hierarchy
// leaves under strict unit leaf capacities, minimizing the Equation (1)
// objective. It returns +Inf cost and a nil assignment when no feasible
// placement exists. Exponential: use only for g.N() ≤ ~8.
func HGPBrute(g *graph.Graph, H *hierarchy.Hierarchy) (float64, metrics.Assignment) {
	n := g.N()
	k := H.Leaves()
	assign := make(metrics.Assignment, n)
	loads := make([]float64, k)
	best := math.Inf(1)
	var bestAssign metrics.Assignment

	var rec func(v int)
	rec = func(v int) {
		if v == n {
			c := metrics.CostLCA(g, H, assign)
			if c < best {
				best = c
				bestAssign = assign.Clone()
			}
			return
		}
		d := g.Demand(v)
		for l := 0; l < k; l++ {
			if loads[l]+d > 1+tol {
				continue
			}
			assign[v] = l
			loads[l] += d
			rec(v + 1)
			loads[l] -= d
		}
	}
	rec(0)
	return best, bestAssign
}

// HGPTBrute finds an optimal HGPT solution for the leaves of t under
// strict capacities: an assignment of tree leaves to hierarchy leaves
// whose mirror-family cost (Equation (3), via Lemma 3) is minimum.
// Exponential: use only for ≤ ~7 leaves.
func HGPTBrute(t *tree.Tree, H *hierarchy.Hierarchy) (float64, map[int]int) {
	leaves := t.Leaves()
	k := H.Leaves()
	assign := map[int]int{}
	loads := make([]float64, k)
	best := math.Inf(1)
	var bestAssign map[int]int

	var rec func(i int)
	rec = func(i int) {
		if i == len(leaves) {
			c := hgpt.AssignmentCost(t, H, assign)
			if c < best {
				best = c
				bestAssign = map[int]int{}
				for l, hl := range assign {
					bestAssign[l] = hl
				}
			}
			return
		}
		leaf := leaves[i]
		d := t.Demand(leaf)
		for l := 0; l < k; l++ {
			if loads[l]+d > 1+tol {
				continue
			}
			assign[leaf] = l
			loads[l] += d
			rec(i + 1)
			loads[l] -= d
			delete(assign, leaf)
		}
	}
	rec(0)
	return best, bestAssign
}

// RHGPTBrute computes the optimal relaxed HGPT cost (Definition 4): a
// chain of leaf partitions, one per level, each refining the previous,
// with every Level-(j) block of demand at most CP(j) but no bound on
// refinement width. Because blocks refine independently, it recurses
// block-by-block with memoization on (block, level). Exponential in the
// block size: use only for ≤ ~7 leaves.
func RHGPTBrute(t *tree.Tree, H *hierarchy.Hierarchy) float64 {
	leaves := t.Leaves()
	h := H.Height()
	memo := map[string]float64{}

	demand := func(block []int) float64 {
		var s float64
		for _, l := range block {
			s += t.Demand(l)
		}
		return s
	}
	cutW := tree.NewCutWeight(t).Of
	delta := func(j int) float64 { return (H.CM(j-1) - H.CM(j)) / 2 }

	// cost(block, j): block is a Level-(j) set already paid for; choose
	// its refinement into Level-(j+1) blocks (each ≤ CP(j+1)), paying
	// each sub-block's cut at level j+1 plus its recursive cost.
	var cost func(block []int, j int) float64
	cost = func(block []int, j int) float64 {
		if j == h {
			return 0
		}
		key := fmt.Sprint(j, block)
		if v, ok := memo[key]; ok {
			return v
		}
		best := math.Inf(1)
		var partition func(rest []int, blocks [][]int)
		partition = func(rest []int, blocks [][]int) {
			if len(rest) == 0 {
				var c float64
				for _, b := range blocks {
					c += cutW(b)*delta(j+1) + cost(b, j+1)
				}
				if c < best {
					best = c
				}
				return
			}
			x, rest2 := rest[0], rest[1:]
			for i := range blocks {
				if demand(blocks[i])+t.Demand(x) > H.Cap(j+1)+tol {
					continue
				}
				blocks[i] = append(blocks[i], x)
				partition(rest2, blocks)
				blocks[i] = blocks[i][:len(blocks[i])-1]
			}
			partition(rest2, append(blocks, []int{x}))
		}
		partition(block, nil)
		memo[key] = best
		return best
	}

	// Level 0 is deliberately not capacity-checked, matching the DP: the
	// single Level-(0) set carries no cost and its capacity only encodes
	// whether the instance fits the machine at all — overload surfaces
	// as Theorem 5 capacity violation instead of infeasibility.
	for _, l := range leaves {
		if t.Demand(l) > H.Cap(h)+tol {
			return math.Inf(1)
		}
	}
	return cost(leaves, 0)
}
