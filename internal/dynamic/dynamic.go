package dynamic

import (
	"fmt"

	"hierpart/internal/graph"
	"hierpart/internal/hgp"
	"hierpart/internal/hierarchy"
	"hierpart/internal/hungarian"
	"hierpart/internal/metrics"
)

// refinePasses bounds the migration-aware refinement sweeps.
const refinePasses = 2

// Options configures Replace.
type Options struct {
	// Solver runs the fresh solve of the drifted instance.
	Solver hgp.Solver
	// MigrationWeight is the refinement exchange rate: moving a task of
	// demand d away from its old leaf is charged MigrationWeight·d
	// against any communication-cost gain. Zero disables the refinement
	// pass (matching still runs).
	MigrationWeight float64
	// MaxLoad is the per-leaf load budget during refinement.
	// Zero means 1.2.
	MaxLoad float64
	// MaxMoves, when positive, caps the number of tasks allowed to
	// change leaves relative to old. After relabeling and refinement,
	// moves are greedily reverted cheapest-communication-penalty-first
	// (deterministic: ties break toward the lower vertex index) until
	// the placement is within the cap, skipping reverts that would push
	// the old leaf past MaxLoad. Best-effort: when every remaining
	// revert is load-blocked the result may still exceed the cap —
	// callers that need a hard guarantee check Result.MovedTasks.
	// Zero means unlimited.
	MaxMoves int
}

// Result reports the re-placement.
type Result struct {
	// Assignment is the new placement.
	Assignment metrics.Assignment
	// Cost is its Equation (1) communication cost.
	Cost float64
	// MovedDemand is the total demand of tasks whose leaf changed
	// relative to the old placement; MovedTasks counts them.
	MovedDemand float64
	MovedTasks  int
	// ScratchCost is the fresh solve's cost before any migration-aware
	// adjustment (identical to Cost when MigrationWeight is 0, since
	// relabeling preserves cost).
	ScratchCost float64
}

// Replace computes a placement for g (the drifted workload) that is
// communication-efficient yet close to old. old must be a valid
// placement for g on H (same vertex count).
func Replace(g *graph.Graph, H *hierarchy.Hierarchy, old metrics.Assignment, opt Options) (*Result, error) {
	fresh, err := opt.Solver.Solve(g, H)
	if err != nil {
		return nil, err
	}
	return Diff(g, H, old, fresh.Assignment, opt)
}

// Diff is the migration-aware half of Replace with the solve factored
// out: it takes a placement computed elsewhere (a fresh portfolio solve,
// or an incremental re-solve over a repaired decomposition — the hgpd
// session path) and reconciles it with old. Relabeling permutes sibling
// subtrees to maximize stay-put demand at zero cost change; the optional
// migration-weighted refinement then trades communication cost against
// further moves; MaxMoves finally caps churn by greedy revert. opt.Solver
// is ignored.
func Diff(g *graph.Graph, H *hierarchy.Hierarchy, old, fresh metrics.Assignment, opt Options) (*Result, error) {
	if err := old.Validate(g, H); err != nil {
		return nil, fmt.Errorf("dynamic: old placement invalid: %w", err)
	}
	if err := fresh.Validate(g, H); err != nil {
		return nil, fmt.Errorf("dynamic: fresh placement invalid: %w", err)
	}
	maxLoad := opt.MaxLoad
	if maxLoad == 0 {
		maxLoad = 1.2
	}
	assign := Relabel(g, H, fresh, old)
	scratch := metrics.CostLCA(g, H, assign)

	if opt.MigrationWeight > 0 {
		assign = refineMigration(g, H, assign, old, opt.MigrationWeight, maxLoad)
	}
	if opt.MaxMoves > 0 {
		assign = capMoves(g, H, assign, old, opt.MaxMoves, maxLoad)
	}

	res := &Result{
		Assignment:  assign,
		Cost:        metrics.CostLCA(g, H, assign),
		ScratchCost: scratch,
	}
	for v, l := range assign {
		if l != old[v] {
			res.MovedDemand += g.Demand(v)
			res.MovedTasks++
		}
	}
	return res, nil
}

// capMoves greedily reverts moved tasks to their old leaves, cheapest
// communication penalty first, until at most maxMoves remain. Each
// round recomputes penalties against the current placement (reverting a
// vertex changes its neighbors' marginal costs) and picks the feasible
// revert with the smallest penalty, breaking ties toward the lower
// vertex index — deterministic. A revert is feasible when the old leaf
// stays within maxLoad. Stops early when every remaining move is
// load-blocked.
func capMoves(g *graph.Graph, H *hierarchy.Hierarchy, assign, old metrics.Assignment, maxMoves int, maxLoad float64) metrics.Assignment {
	out := assign.Clone()
	k := H.Leaves()
	loads := make([]float64, k)
	moved := 0
	for v, l := range out {
		loads[l] += g.Demand(v)
		if l != old[v] {
			moved++
		}
	}
	commAt := func(v, leaf int) float64 {
		var c float64
		g.Neighbors(v, func(u int, ew float64) {
			c += ew * H.CM(H.LCALevel(leaf, out[u]))
		})
		return c
	}
	for moved > maxMoves {
		best, bestPenalty := -1, 0.0
		for v := 0; v < g.N(); v++ {
			if out[v] == old[v] || loads[old[v]]+g.Demand(v) > maxLoad+1e-9 {
				continue
			}
			if p := commAt(v, old[v]) - commAt(v, out[v]); best == -1 || p < bestPenalty-1e-12 {
				best, bestPenalty = v, p
			}
		}
		if best == -1 {
			break
		}
		loads[out[best]] -= g.Demand(best)
		loads[old[best]] += g.Demand(best)
		out[best] = old[best]
		moved--
	}
	return out
}

// Relabel permutes sibling subtrees of the hierarchy in the placement
// `fresh` to maximize the total demand that stays on its leaf from
// `old`. The returned placement has exactly the Equation (1) cost of
// fresh (subtree permutations are hierarchy automorphisms).
func Relabel(g *graph.Graph, H *hierarchy.Hierarchy, fresh, old metrics.Assignment) metrics.Assignment {
	h := H.Height()
	// overlap[c][s] at the leaf level: demand assigned by fresh to leaf
	// c that old kept on leaf s.
	k := H.Leaves()
	leafOverlap := make([][]float64, k)
	for c := range leafOverlap {
		leafOverlap[c] = make([]float64, k)
	}
	for v := 0; v < g.N(); v++ {
		leafOverlap[fresh[v]][old[v]] += g.Demand(v)
	}

	// value[j] holds, for each (newNode, slot) pair at level j, the best
	// achievable overlap and the child permutation realizing it.
	type cell struct {
		val  float64
		perm []int
	}
	values := make([]map[[2]int]cell, h+1)
	values[h] = map[[2]int]cell{}
	for c := 0; c < k; c++ {
		for s := 0; s < k; s++ {
			values[h][[2]int{c, s}] = cell{val: leafOverlap[c][s]}
		}
	}
	for j := h - 1; j >= 0; j-- {
		values[j] = map[[2]int]cell{}
		deg := H.Deg(j)
		for c := 0; c < H.NumNodes(j); c++ {
			for s := 0; s < H.NumNodes(j); s++ {
				m := make([][]float64, deg)
				for a := 0; a < deg; a++ {
					m[a] = make([]float64, deg)
					for b := 0; b < deg; b++ {
						m[a][b] = values[j+1][[2]int{c*deg + a, s*deg + b}].val
					}
				}
				perm, val := hungarian.Maximize(m)
				values[j][[2]int{c, s}] = cell{val: val, perm: perm}
			}
		}
	}

	// Reconstruct the leaf relabeling top-down: root maps to root.
	leafSlot := make([]int, k)
	var walk func(j, c, s int)
	walk = func(j, c, s int) {
		if j == h {
			leafSlot[c] = s
			return
		}
		perm := values[j][[2]int{c, s}].perm
		deg := H.Deg(j)
		for a := 0; a < deg; a++ {
			walk(j+1, c*deg+a, s*deg+perm[a])
		}
	}
	walk(0, 0, 0)

	out := metrics.NewAssignment(len(fresh))
	for v, l := range fresh {
		out[v] = leafSlot[l]
	}
	return out
}

// refineMigration is a move-based local search on the combined objective
// cost + w·migration: a task may return toward its old leaf when the
// communication penalty is smaller than the migration charge, or move
// further when communication gains dominate. It runs at most
// refinePasses sweeps.
func refineMigration(g *graph.Graph, H *hierarchy.Hierarchy, assign, old metrics.Assignment, w, maxLoad float64) metrics.Assignment {
	out := assign.Clone()
	k := H.Leaves()
	loads := make([]float64, k)
	for v, l := range out {
		loads[l] += g.Demand(v)
	}
	commAt := func(v, leaf int) float64 {
		var c float64
		g.Neighbors(v, func(u int, ew float64) {
			c += ew * H.CM(H.LCALevel(leaf, out[u]))
		})
		return c
	}
	migAt := func(v, leaf int) float64 {
		if leaf != old[v] {
			return w * g.Demand(v)
		}
		return 0
	}
	for pass := 0; pass < refinePasses; pass++ {
		improved := false
		for v := 0; v < g.N(); v++ {
			cur := out[v]
			bestLeaf := cur
			bestObj := commAt(v, cur) + migAt(v, cur)
			for l := 0; l < k; l++ {
				if l == cur || loads[l]+g.Demand(v) > maxLoad+1e-9 {
					continue
				}
				if obj := commAt(v, l) + migAt(v, l); obj < bestObj-1e-12 {
					bestLeaf, bestObj = l, obj
				}
			}
			if bestLeaf != cur {
				loads[cur] -= g.Demand(v)
				loads[bestLeaf] += g.Demand(v)
				out[v] = bestLeaf
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return out
}
