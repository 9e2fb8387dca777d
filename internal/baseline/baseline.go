package baseline

import (
	"context"
	"math/rand"
	"sort"

	"hierpart/internal/fm"
	"hierpart/internal/graph"
	"hierpart/internal/hierarchy"
	"hierpart/internal/metrics"
)

// Random places each vertex on a uniformly random leaf with enough
// spare capacity, falling back to the least-loaded leaf when none fits —
// the "parallelized OS with no locality" strawman of §1.
func Random(rng *rand.Rand, g *graph.Graph, H *hierarchy.Hierarchy) metrics.Assignment {
	k := H.Leaves()
	loads := make([]float64, k)
	assign := metrics.NewAssignment(g.N())
	for v := 0; v < g.N(); v++ {
		d := g.Demand(v)
		placed := false
		for attempt := 0; attempt < 2*k; attempt++ {
			l := rng.Intn(k)
			if loads[l]+d <= 1+1e-9 {
				assign[v] = l
				loads[l] += d
				placed = true
				break
			}
		}
		if !placed {
			best := 0
			for l := 1; l < k; l++ {
				if loads[l] < loads[best] {
					best = l
				}
			}
			assign[v] = best
			loads[best] += d
		}
	}
	return assign
}

// GreedyBFS walks the graph in BFS order from vertex 0 and fills
// hierarchy leaves left to right, moving on when a leaf is full. It is
// locality-aware only by accident of visit order — a simple admission
// controller a practitioner might write first.
func GreedyBFS(g *graph.Graph, H *hierarchy.Hierarchy) metrics.Assignment {
	k := H.Leaves()
	assign := metrics.NewAssignment(g.N())
	loads := make([]float64, k)
	cur := 0
	place := func(v int) {
		d := g.Demand(v)
		for cur < k-1 && loads[cur]+d > 1+1e-9 {
			cur++
		}
		assign[v] = cur
		loads[cur] += d
	}
	seen := make([]bool, g.N())
	for s := 0; s < g.N(); s++ {
		if seen[s] {
			continue
		}
		queue := []int{s}
		seen[s] = true
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			place(v)
			for _, u := range g.SortedNeighbors(v) {
				if !seen[u] {
					seen[u] = true
					queue = append(queue, u)
				}
			}
		}
	}
	return assign
}

// KBGPOblivious partitions G into k balanced parts by recursive
// bisection — a classical k-BGP heuristic that minimizes total cut
// weight — and then maps the parts onto the hierarchy leaves in a random
// order, ignoring the hierarchy entirely. The gap between this and the
// hierarchy-aware algorithms is what HGP is about.
func KBGPOblivious(rng *rand.Rand, g *graph.Graph, H *hierarchy.Hierarchy) metrics.Assignment {
	k := H.Leaves()
	all := make([]int, g.N())
	for v := range all {
		all[v] = v
	}
	parts := splitK(g, rng, all, k)
	perm := rng.Perm(k)
	assign := metrics.NewAssignment(g.N())
	for pi, part := range parts {
		for _, v := range part {
			assign[v] = perm[pi]
		}
	}
	return assign
}

// DualRecursive is SCOTCH-style dual recursive bipartitioning: the task
// graph and the hierarchy are split in lockstep — at level j a cluster
// assigned to a Level-(j) node is divided into DEG(j) demand-balanced,
// cut-minimizing parts, one per child — so expensive levels of the
// hierarchy are cut first and as lightly as possible.
func DualRecursive(rng *rand.Rand, g *graph.Graph, H *hierarchy.Hierarchy) metrics.Assignment {
	assign := metrics.NewAssignment(g.N())
	all := make([]int, g.N())
	for v := range all {
		all[v] = v
	}
	var rec func(cluster []int, level, node int)
	rec = func(cluster []int, level, node int) {
		if len(cluster) == 0 {
			return
		}
		if level == H.Height() {
			for _, v := range cluster {
				assign[v] = node
			}
			return
		}
		parts := splitK(g, rng, cluster, H.Deg(level))
		for i, part := range parts {
			rec(part, level+1, node*H.Deg(level)+i)
		}
	}
	rec(all, 0, 0)
	return assign
}

// Multilevel is a METIS-style scheme: coarsen G by heavy-edge matching
// until it is small, run DualRecursive on the coarse graph, project the
// placement back through the matching hierarchy, and polish with
// hierarchy-aware local refinement at each expansion.
func Multilevel(rng *rand.Rand, g *graph.Graph, H *hierarchy.Hierarchy) metrics.Assignment {
	type levelInfo struct {
		g      *graph.Graph
		coarse []int // vertex -> coarse vertex of the next level
	}
	var levels []levelInfo
	cur := g
	minSize := 2 * H.Leaves()
	if minSize < 16 {
		minSize = 16
	}
	for cur.N() > minSize {
		cg, mapTo := coarsen(cur, rng)
		if cg.N() == cur.N() {
			break
		}
		levels = append(levels, levelInfo{g: cur, coarse: mapTo})
		cur = cg
	}
	assign := DualRecursive(rng, cur, H)
	for i := len(levels) - 1; i >= 0; i-- {
		li := levels[i]
		fine := metrics.NewAssignment(li.g.N())
		for v := 0; v < li.g.N(); v++ {
			fine[v] = assign[li.coarse[v]]
		}
		fine = RefineLocal(context.Background(), li.g, H, fine, 1.05, 2)
		assign = fine
	}
	return assign
}

// coarsen contracts a heavy-edge matching: each vertex pairs with its
// heaviest unmatched neighbor. Coarse demands are sums; parallel edges
// merge. Returns the coarse graph and the fine→coarse map.
func coarsen(g *graph.Graph, rng *rand.Rand) (*graph.Graph, []int) {
	n := g.N()
	order := rng.Perm(n)
	mate := make([]int, n)
	for i := range mate {
		mate[i] = -1
	}
	for _, v := range order {
		if mate[v] != -1 {
			continue
		}
		best, bestW := -1, 0.0
		g.Neighbors(v, func(u int, w float64) {
			if mate[u] == -1 && u != v && w > bestW {
				best, bestW = u, w
			}
		})
		if best != -1 {
			mate[v] = best
			mate[best] = v
		} else {
			mate[v] = v
		}
	}
	coarseOf := make([]int, n)
	next := 0
	for v := 0; v < n; v++ {
		if mate[v] == v || mate[v] > v {
			coarseOf[v] = next
			if mate[v] != v {
				coarseOf[mate[v]] = next
			}
			next++
		}
	}
	var es []graph.Edge
	for _, e := range g.Edges() {
		if cu, cv := coarseOf[e.U], coarseOf[e.V]; cu != cv {
			es = append(es, graph.Edge{U: cu, V: cv, Weight: e.Weight})
		}
	}
	cg := graph.FromEdges(next, es)
	for v := 0; v < n; v++ {
		cg.SetDemand(coarseOf[v], cg.Demand(coarseOf[v])+g.Demand(v))
	}
	return cg, coarseOf
}

// RefineLocal greedily improves an assignment under the Equation (1)
// cost with two move types per sweep: relocating a single vertex to the
// leaf that most reduces cost (subject to every leaf load staying at or
// below maxLoad), and swapping the leaves of a vertex pair when that
// reduces cost without pushing either leaf further over budget. It never
// worsens the cost and works on any starting assignment — including the
// output of the paper's algorithm (experiment E5 reports both). The
// swap sweep is O(n²·deg), so the sweeps stop once ctx is done; every
// move already made is kept, since each one leaves a complete
// assignment no worse than before it.
func RefineLocal(ctx context.Context, g *graph.Graph, H *hierarchy.Hierarchy, assign metrics.Assignment, maxLoad float64, passes int) metrics.Assignment {
	out := assign.Clone()
	k := H.Leaves()
	n := g.N()
	loads := make([]float64, k)
	for v, l := range out {
		loads[l] += g.Demand(v)
	}
	// costAt is the cost of v's incident edges if v sat on leaf,
	// excluding any edge to the vertex in `ignore` (used for swaps).
	costAt := func(v, leaf, ignore int) float64 {
		var c float64
		g.Neighbors(v, func(u int, w float64) {
			if u == ignore {
				return
			}
			c += w * H.CM(H.LCALevel(leaf, out[u]))
		})
		return c
	}
	for pass := 0; pass < passes && ctx.Err() == nil; pass++ {
		improved := false
		for v := 0; v < n && ctx.Err() == nil; v++ {
			cur := out[v]
			bestLeaf, bestCost := cur, costAt(v, cur, -1)
			for l := 0; l < k; l++ {
				if l == cur {
					continue
				}
				if loads[l]+g.Demand(v) > maxLoad+1e-9 {
					continue
				}
				if c := costAt(v, l, -1); c < bestCost-1e-12 {
					bestLeaf, bestCost = l, c
				}
			}
			if bestLeaf != cur {
				loads[cur] -= g.Demand(v)
				loads[bestLeaf] += g.Demand(v)
				out[v] = bestLeaf
				improved = true
			}
		}
		// Swap pass: exchange the leaves of u and v when profitable and
		// the destination loads do not get worse past the budget.
		for v := 0; v < n && ctx.Err() == nil; v++ {
			for u := v + 1; u < n; u++ {
				lv, lu := out[v], out[u]
				if lv == lu {
					continue
				}
				dv, du := g.Demand(v), g.Demand(u)
				newLv := loads[lv] - dv + du
				newLu := loads[lu] - du + dv
				if (newLv > maxLoad+1e-9 && newLv > loads[lv]+1e-9) ||
					(newLu > maxLoad+1e-9 && newLu > loads[lu]+1e-9) {
					continue
				}
				vuEdge := g.Weight(v, u) * H.CM(H.LCALevel(lv, lu)) // unchanged by swap
				before := costAt(v, lv, u) + costAt(u, lu, v) + vuEdge
				after := costAt(v, lu, u) + costAt(u, lv, v) + vuEdge
				if after < before-1e-12 {
					out[v], out[u] = lu, lv
					loads[lv], loads[lu] = newLv, newLu
					improved = true
				}
			}
		}
		if !improved {
			break
		}
	}
	return out
}

// splitK divides a vertex set into k demand-balanced, cut-minimizing
// parts by recursive proportional bisection. Parts may be empty when the
// set has fewer than k vertices.
func splitK(g *graph.Graph, rng *rand.Rand, cluster []int, k int) [][]int {
	if k == 1 {
		return [][]int{cluster}
	}
	k1 := k / 2
	frac := float64(k1) / float64(k)
	left, right := proportionalBisect(g, rng, cluster, frac)
	parts := splitK(g, rng, left, k1)
	return append(parts, splitK(g, rng, right, k-k1)...)
}

// proportionalBisect splits cluster so the left side holds about frac of
// the total demand, minimizing the internal cut via BFS growth plus
// gain-driven refinement (Fiduccia–Mattheyses style single moves).
func proportionalBisect(g *graph.Graph, rng *rand.Rand, cluster []int, frac float64) (left, right []int) {
	if len(cluster) == 0 {
		return nil, nil
	}
	if len(cluster) == 1 {
		if frac >= 0.5 {
			return cluster, nil
		}
		return nil, cluster
	}
	inCluster := make(map[int]bool, len(cluster))
	var total float64
	for _, v := range cluster {
		inCluster[v] = true
		total += g.Demand(v)
	}
	wgt := func(v int) float64 {
		if total == 0 {
			return 1
		}
		return g.Demand(v)
	}
	totalW := total
	if totalW == 0 {
		totalW = float64(len(cluster))
	}
	target := totalW * frac
	tol := totalW * 0.1
	if t2 := totalW / float64(2*len(cluster)); t2 > tol {
		tol = t2
	}

	side := make(map[int]bool, len(cluster))
	var leftW float64
	seed := cluster[rng.Intn(len(cluster))]
	queue := []int{seed}
	visited := map[int]bool{seed: true}
	for len(queue) > 0 && leftW < target {
		v := queue[0]
		queue = queue[1:]
		side[v] = true
		leftW += wgt(v)
		for _, u := range g.SortedNeighbors(v) {
			if inCluster[u] && !visited[u] {
				visited[u] = true
				queue = append(queue, u)
			}
		}
		if len(queue) == 0 {
			for _, u := range cluster {
				if !visited[u] {
					visited[u] = true
					queue = append(queue, u)
					break
				}
			}
		}
	}

	// Fiduccia–Mattheyses refinement around the proportional target.
	minFrac := (target - tol) / totalW
	maxFrac := (target + tol) / totalW
	if minFrac < 0 {
		minFrac = 0
	}
	if maxFrac > 1 {
		maxFrac = 1
	}
	fm.Refine(g, cluster, side, wgt, fm.Config{MinFrac: minFrac, MaxFrac: maxFrac, Passes: 4})

	for _, v := range cluster {
		if side[v] {
			left = append(left, v)
		} else {
			right = append(right, v)
		}
	}
	// Guard degenerate outcomes: both parts must be inhabited when the
	// fraction calls for it.
	if len(left) == 0 && frac > 0 {
		left = append(left, right[len(right)-1])
		right = right[:len(right)-1]
	}
	if len(right) == 0 && frac < 1 {
		right = append(right, left[len(left)-1])
		left = left[:len(left)-1]
	}
	sort.Ints(left)
	sort.Ints(right)
	return left, right
}
