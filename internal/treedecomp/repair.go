package treedecomp

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"time"

	"hierpart/internal/faultinject"
	"hierpart/internal/graph"
	"hierpart/internal/telemetry"
	"hierpart/internal/tree"
)

// DeltaOp enumerates the graph mutations the incremental path accepts.
type DeltaOp int

const (
	// DeltaAddEdge inserts a new edge {U, V} with weight Weight. The
	// edge must not already exist (reweight an existing edge instead).
	DeltaAddEdge DeltaOp = iota
	// DeltaRemoveEdge deletes the existing edge {U, V}; Weight is ignored.
	DeltaRemoveEdge
	// DeltaReweightEdge replaces the weight of the existing edge {U, V}
	// with Weight (> 0). Reweights never change which cuts exist, so the
	// repair keeps every tree's structure verbatim and refreshes only the
	// boundary weights on the two leaf-to-LCA paths — the only clusters
	// whose cut the edge crosses.
	DeltaReweightEdge
	// DeltaReweightVertex sets the demand of vertex U to Weight (≥ 0);
	// V is ignored. Demands do not participate in cut structure, so this
	// delta dirties no decomposition subtree — only the DP tables along
	// the vertex's leaf-to-root chains.
	DeltaReweightVertex
)

// String names the op for logs and error messages.
func (op DeltaOp) String() string {
	switch op {
	case DeltaAddEdge:
		return "add_edge"
	case DeltaRemoveEdge:
		return "remove_edge"
	case DeltaReweightEdge:
		return "reweight_edge"
	case DeltaReweightVertex:
		return "reweight_vertex"
	}
	return fmt.Sprintf("DeltaOp(%d)", int(op))
}

// Delta is one graph mutation. Edge ops read U, V, and (except removal)
// Weight; DeltaReweightVertex reads U and Weight.
type Delta struct {
	Op     DeltaOp
	U, V   int
	Weight float64
}

// structural reports whether the delta can change which cuts exist
// (edge insertion/removal). Reweights — edge or vertex — never do: a
// reweighted edge crosses exactly the cuts it crossed before, only the
// crossing weight moves.
func (d Delta) structural() bool {
	return d.Op == DeltaAddEdge || d.Op == DeltaRemoveEdge
}

// Apply mutates g with the deltas in order, validating each against the
// evolving graph. On error the graph may be partially mutated — apply
// deltas to a scratch clone and swap on success (the hgpd session store
// does exactly this).
func Apply(g *graph.Graph, deltas []Delta) error {
	for i, d := range deltas {
		if err := applyOne(g, d); err != nil {
			return fmt.Errorf("delta #%d (%s): %w", i, d.Op, err)
		}
	}
	return nil
}

func applyOne(g *graph.Graph, d Delta) error {
	n := g.N()
	if d.U < 0 || d.U >= n {
		return fmt.Errorf("vertex %d out of range [0,%d)", d.U, n)
	}
	switch d.Op {
	case DeltaReweightVertex:
		if d.Weight < 0 || d.Weight != d.Weight {
			return fmt.Errorf("invalid demand %v", d.Weight)
		}
		g.SetDemand(d.U, d.Weight)
		return nil
	case DeltaAddEdge, DeltaRemoveEdge, DeltaReweightEdge:
		if d.V < 0 || d.V >= n {
			return fmt.Errorf("vertex %d out of range [0,%d)", d.V, n)
		}
		if d.U == d.V {
			return fmt.Errorf("self-loop on vertex %d", d.U)
		}
	}
	switch d.Op {
	case DeltaAddEdge:
		if g.HasEdge(d.U, d.V) {
			return fmt.Errorf("edge %d-%d already exists", d.U, d.V)
		}
		if d.Weight <= 0 || d.Weight != d.Weight {
			return fmt.Errorf("invalid edge weight %v", d.Weight)
		}
		g.AddEdge(d.U, d.V, d.Weight)
	case DeltaRemoveEdge:
		if !g.RemoveEdge(d.U, d.V) {
			return fmt.Errorf("edge %d-%d does not exist", d.U, d.V)
		}
	case DeltaReweightEdge:
		if !g.HasEdge(d.U, d.V) {
			return fmt.Errorf("edge %d-%d does not exist", d.U, d.V)
		}
		if d.Weight <= 0 || d.Weight != d.Weight {
			return fmt.Errorf("invalid edge weight %v", d.Weight)
		}
		g.SetEdgeWeight(d.U, d.V, d.Weight)
	default:
		return fmt.Errorf("unknown op %d", int(d.Op))
	}
	return nil
}

// RepairStats reports how much of the old decomposition a Repair reused.
type RepairStats struct {
	// Trees is the number of decomposition trees processed.
	Trees int
	// DirtySubtrees counts the minimal subtrees that were rebuilt.
	DirtySubtrees int
	// NodesReused and NodesRebuilt partition the nodes of the repaired
	// trees by whether they were copied verbatim from the old tree or
	// produced by a fresh split recursion.
	NodesReused  int
	NodesRebuilt int
	// NodesReweighted counts reused nodes whose boundary weight was
	// recomputed from the new graph because a reweighted edge crosses
	// their cut (a subset of NodesReused; structure still copied).
	NodesReweighted int
	// TreeReweightUp[i] is the total boundary-weight increase over tree
	// i's reweighted nodes: Σ max(0, new − old). TreeStructural[i]
	// reports whether any subtree of tree i was rebuilt (a structural
	// delta, or the FRT whole-tree rebuild). DemandsChanged reports
	// whether any delta touched a vertex demand. Together these certify
	// a warm-solve cost ceiling: when TreeStructural[i] and
	// DemandsChanged are both false, the previous solve's optimal
	// relaxed family is still feasible on repaired tree i (structure and
	// demands unchanged), and a tree edge of weight w is charged at most
	// twice per hierarchy level — Σ_k 2·Δ(k) = CM(0) − CM(h) — so the
	// new tree optimum is at most
	// prevDPCost_i + TreeReweightUp[i]·(CM(0) − CM(h)).
	// See hgp.WarmBoundsAfterRepair.
	TreeReweightUp []float64
	TreeStructural []bool
	DemandsChanged bool
}

// ReusedFrac returns the fraction of output tree nodes copied verbatim.
func (s *RepairStats) ReusedFrac() float64 {
	total := s.NodesReused + s.NodesRebuilt
	if total == 0 {
		return 0
	}
	return float64(s.NodesReused) / float64(total)
}

// Repair produces a decomposition of g — the graph *after* the deltas
// were applied — by surgically rebuilding only the subtrees of dec whose
// cut structure a delta could have touched, and copying every other
// subtree verbatim (leaf demands refreshed from g).
//
// The minimal dirty subtree for an edge insertion/removal on {u, v} is
// the one rooted at LCA_T(leaf(u), leaf(v)): every tree node outside it
// has either both endpoints or neither inside its cluster, so its
// boundary weight — the tree edge weight Proposition 1 relies on — is
// unchanged. Ancestor splits were optimized under the old weights; that
// staleness is a quality (not correctness) effect, quantified by
// experiment E26.
//
// Edge reweights are cheaper still: they cannot change which cuts
// exist, so no subtree is rebuilt at all. The tree structure is copied
// verbatim and only the nodes on the two leaf-to-LCA paths — the
// clusters whose cut the edge crosses — get their boundary weight
// recomputed exactly from the new graph. Demand-only deltas dirty
// nothing structurally.
//
// Dirty subtrees are rebuilt with the same split recursion as Build
// under a fresh deterministic RNG derived from (opt.Seed, tree index,
// epoch) — the same per-tree sub-seed derivation as Build folded with
// the caller's epoch (the session graph version), so a repair is
// reproducible without replaying Build's RNG stream (RNGStreamVersion
// is untouched). A repaired decomposition is therefore a valid sample,
// not bit-identical to a cold Build of g.
//
// The FRT strategy's cut structure depends on global shortest-path
// distances, so any structural delta rebuilds FRT trees whole — correct
// but with no reuse; the serving path uses BalancedBisection.
//
// dec must describe a graph with the same vertex count as g (vertex
// additions/removals need a cold Build). dec is not mutated.
func Repair(ctx context.Context, g *graph.Graph, dec *Decomposition, deltas []Delta, opt Options, epoch int64) (*Decomposition, *RepairStats, error) {
	if g.N() == 0 {
		return nil, nil, errors.New("empty graph")
	}
	if dec == nil || len(dec.Trees) == 0 {
		return nil, nil, errors.New("treedecomp: repair of empty decomposition")
	}
	start := time.Now()
	var dirtyEdges, reweightEdges [][2]int
	demandsChanged := false
	for i, d := range deltas {
		if d.Op == DeltaReweightVertex {
			if d.U < 0 || d.U >= g.N() {
				return nil, nil, fmt.Errorf("treedecomp: delta #%d: vertex %d out of range", i, d.U)
			}
			demandsChanged = true
			continue
		}
		if d.U < 0 || d.U >= g.N() || d.V < 0 || d.V >= g.N() || d.U == d.V {
			return nil, nil, fmt.Errorf("treedecomp: delta #%d: bad edge %d-%d", i, d.U, d.V)
		}
		if d.structural() {
			dirtyEdges = append(dirtyEdges, [2]int{d.U, d.V})
		} else {
			reweightEdges = append(reweightEdges, [2]int{d.U, d.V})
		}
	}

	nTrees := len(dec.Trees)
	passes := opt.FMPasses
	if passes == 0 {
		passes = 4
	}
	// Reproduce Build's up-front per-tree sub-seeds, then fold the epoch
	// in so successive repairs of the same session draw fresh streams.
	seedRNG := rand.New(rand.NewSource(opt.Seed))
	seeds := make([]int64, nTrees)
	for i := range seeds {
		seeds[i] = mixSeed(seedRNG.Int63(), epoch)
	}

	out := &Decomposition{Trees: make([]*DecompTree, nTrees)}
	stats := &RepairStats{
		Trees:          nTrees,
		TreeReweightUp: make([]float64, nTrees),
		TreeStructural: make([]bool, nTrees),
		DemandsChanged: demandsChanged,
	}
	for i, old := range dec.Trees {
		if len(old.LeafOf) != g.N() {
			return nil, nil, fmt.Errorf("treedecomp: tree %d describes %d vertices, graph has %d (vertex deltas need a cold build)", i, len(old.LeafOf), g.N())
		}
		nt, err := repairOne(ctx, g, old, i, dirtyEdges, reweightEdges, rand.New(rand.NewSource(seeds[i])), passes, opt, stats)
		if err != nil {
			return nil, nil, fmt.Errorf("treedecomp: tree %d: %w", i, err)
		}
		out.Trees[i] = nt
	}
	telemetry.ObserveDuration("phase_repair_seconds", time.Since(start))
	return out, stats, nil
}

// mixSeed folds an epoch into a tree sub-seed deterministically.
func mixSeed(seed, epoch int64) int64 {
	h := fnv.New64a()
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(seed))
	binary.LittleEndian.PutUint64(b[8:], uint64(epoch))
	h.Write(b[:])
	return int64(h.Sum64() >> 1)
}

func repairOne(ctx context.Context, g *graph.Graph, old *DecompTree, ti int, dirtyEdges, reweightEdges [][2]int, rng *rand.Rand, passes int, opt Options, stats *RepairStats) (*DecompTree, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// FRT cut structure is a function of global distances: a single edge
	// delta — reweights included — perturbs shortest paths arbitrarily
	// far away, so localized repair would be unsound. Rebuild whole
	// (demand-only deltas still copy: FRT structure ignores demands).
	if opt.Strategy == FRT && len(dirtyEdges)+len(reweightEdges) > 0 {
		if err := faultinject.Fire(ctx, faultinject.DecompRepair); err != nil {
			return nil, err
		}
		stats.DirtySubtrees++
		stats.TreeStructural[ti] = true
		dt := buildFRT(g, rng)
		stats.NodesRebuilt += dt.T.N()
		return dt, nil
	}

	dirty := dirtyRoots(old, dirtyEdges)
	wdirty := reweightPathNodes(old, reweightEdges)
	if len(wdirty) > 0 {
		if err := faultinject.Fire(ctx, faultinject.DecompRepair); err != nil {
			return nil, err
		}
	}
	nt := &DecompTree{T: tree.New(), LeafOf: make([]int, g.N())}
	// Deltas never change the vertex count, so the repaired bisection
	// tree has exactly as many nodes as the old one.
	nt.T.Grow(old.T.N() - 1)
	b := &builder{ctx: ctx, g: g, rng: rng, passes: passes, flowRef: opt.FlowRefine, strat: opt.Strategy, dt: nt}

	var walk func(oldNode, newNode int) error
	walk = func(oldNode, newNode int) error {
		if dirty[oldNode] {
			if err := faultinject.Fire(ctx, faultinject.DecompRepair); err != nil {
				return err
			}
			stats.DirtySubtrees++
			stats.TreeStructural[ti] = true
			before := nt.T.N()
			if err := b.attach(newNode, subtreeVertices(old, oldNode)); err != nil {
				return err
			}
			stats.NodesRebuilt += nt.T.N() - before + 1 // +1: the dirty root itself
			return nil
		}
		stats.NodesReused++
		if old.T.IsLeaf(oldNode) {
			v := old.T.Label(oldNode)
			nt.T.SetLabel(newNode, v)
			nt.T.SetDemand(newNode, g.Demand(v)) // refresh: demand deltas land here
			nt.LeafOf[v] = newNode
			return nil
		}
		for _, c := range old.T.Children(oldNode) {
			// Boundary weights of clean nodes are unchanged by construction
			// (both delta endpoints sit on one side of every clean cut), so
			// the old edge weight is exact for the new graph. Nodes whose
			// cut a reweighted edge crosses get their boundary recomputed
			// exactly from the new graph instead.
			w := old.T.EdgeWeight(c)
			if wdirty[c] {
				w = b.boundary(subtreeVertices(old, c))
				stats.NodesReweighted++
				if up := w - old.T.EdgeWeight(c); up > 0 {
					stats.TreeReweightUp[ti] += up
				}
			}
			nc := nt.T.AddChild(newNode, w)
			if err := walk(c, nc); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(old.T.Root(), nt.T.Root()); err != nil {
		return nil, err
	}
	return nt, nil
}

// reweightPathNodes marks every old-tree node whose cluster contains
// exactly one endpoint of a reweighted edge — the nodes on the two
// leaf-to-LCA paths, LCA excluded (it contains both endpoints, so its
// boundary is untouched). These are precisely the clusters whose cut
// the edge crosses, hence the only boundary weights a reweight moves.
func reweightPathNodes(old *DecompTree, reweightEdges [][2]int) map[int]bool {
	if len(reweightEdges) == 0 {
		return nil
	}
	t := old.T
	depth := make([]int, t.N())
	for v := 1; v < t.N(); v++ {
		depth[v] = depth[t.Parent(v)] + 1
	}
	marked := map[int]bool{}
	for _, e := range reweightEdges {
		a, b := old.LeafOf[e[0]], old.LeafOf[e[1]]
		for depth[a] > depth[b] {
			marked[a] = true
			a = t.Parent(a)
		}
		for depth[b] > depth[a] {
			marked[b] = true
			b = t.Parent(b)
		}
		for a != b {
			marked[a], marked[b] = true, true
			a, b = t.Parent(a), t.Parent(b)
		}
	}
	return marked
}

// dirtyRoots marks the minimal antichain of old-tree nodes whose
// subtrees a structural delta dirties: per edge the LCA of its two
// endpoint leaves, with nested roots collapsed into their outermost
// ancestor.
func dirtyRoots(old *DecompTree, dirtyEdges [][2]int) map[int]bool {
	if len(dirtyEdges) == 0 {
		return nil
	}
	t := old.T
	depth := make([]int, t.N())
	for v := 1; v < t.N(); v++ {
		depth[v] = depth[t.Parent(v)] + 1
	}
	lca := func(a, b int) int {
		for depth[a] > depth[b] {
			a = t.Parent(a)
		}
		for depth[b] > depth[a] {
			b = t.Parent(b)
		}
		for a != b {
			a, b = t.Parent(a), t.Parent(b)
		}
		return a
	}
	roots := map[int]bool{}
	for _, e := range dirtyEdges {
		roots[lca(old.LeafOf[e[0]], old.LeafOf[e[1]])] = true
	}
	// Antichain reduction: drop roots nested under other roots.
	for r := range roots {
		for p := t.Parent(r); p >= 0; p = t.Parent(p) {
			if roots[p] {
				delete(roots, r)
				break
			}
		}
	}
	return roots
}

// subtreeVertices returns the sorted graph vertices under a tree node.
func subtreeVertices(dt *DecompTree, node int) []int {
	var vs []int
	stack := []int{node}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if dt.T.IsLeaf(v) {
			vs = append(vs, dt.T.Label(v))
			continue
		}
		stack = append(stack, dt.T.Children(v)...)
	}
	sort.Ints(vs)
	return vs
}
