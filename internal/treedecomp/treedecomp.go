package treedecomp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"hierpart/internal/faultinject"
	"hierpart/internal/fm"
	"hierpart/internal/graph"
	"hierpart/internal/mincut"
	"hierpart/internal/telemetry"
	"hierpart/internal/tree"
)

// RNGStreamVersion identifies the per-seed randomness stream of Build:
// two builds with equal Options produce bit-identical decompositions
// only when they ran under the same stream version. Bump it whenever
// the mapping from (Seed, Options) to the emitted tree distribution
// changes (the per-tree sub-seed derivation, the bisection RNG
// consumption order, …). Persistent caches of decompositions key their
// snapshots on this so a binary with a different stream never serves
// another version's trees as its own (internal/cache/diskstore).
//
// Version history: 1 = seed-chained tree RNGs (PR 0); 2 = per-tree
// sub-seeded streams + sorted BarabasiAlbert attachment iteration
// (PR 1).
const RNGStreamVersion = 2

// Strategy selects how clusters are split during tree construction.
type Strategy int

const (
	// BalancedBisection (default) grows a BFS region to half the demand
	// and refines it with Fiduccia–Mattheyses — balanced, shallow trees.
	BalancedBisection Strategy = iota
	// MinCutSplit divides every cluster along its global minimum cut
	// (Stoer–Wagner), ignoring balance: cut-faithful but potentially
	// deep, unbalanced trees. Experiment E17 compares the strategies.
	MinCutSplit
	// FRT builds the Fakcharoenphol–Rao–Talwar random hierarchical
	// decomposition over the inverse-weight shortest-path metric —
	// the classic O(log n)-distortion tree-metric construction.
	FRT
)

// Options configures Build.
type Options struct {
	// Trees is the number of decomposition trees in the distribution
	// (each gets multiplier 1/Trees). Zero means 1.
	Trees int
	// Seed makes the randomized bisections reproducible.
	Seed int64
	// FMPasses is the number of refinement sweeps per bisection.
	// Zero means 4.
	FMPasses int
	// FlowRefine additionally polishes each bisection with a corridor
	// max-flow cut (see flowRefine) — slower, usually lower tree-edge
	// weights (ablation E16 quantifies the trade).
	FlowRefine bool
	// Strategy selects the cluster-splitting rule.
	Strategy Strategy
	// Workers bounds the number of trees built concurrently. Zero means
	// GOMAXPROCS; 1 forces sequential construction. Tree i's randomness
	// comes from a sub-seed derived up front from Seed, so the emitted
	// distribution is identical at every worker count.
	Workers int
}

// DecompTree is one decomposition tree of G.
type DecompTree struct {
	// T is the tree: leaves carry the demand of their graph vertex and
	// their Label is the graph vertex ID (the paper's m_V bijection).
	T *tree.Tree
	// LeafOf maps each graph vertex to its leaf node in T (the paper's
	// m'_V, the inverse of m_V on leaves).
	LeafOf []int
}

// Decomposition is a uniform distribution over decomposition trees.
type Decomposition struct {
	Trees []*DecompTree
}

// Build constructs opt.Trees randomized decomposition trees of g on a
// worker pool (see Options.Workers). Every tree draws from its own
// sub-seeded RNG, derived from opt.Seed before any construction starts:
// tree i's randomness no longer depends on trees 0..i−1, which is what
// makes the build order — and therefore the worker count — irrelevant
// to the result. It panics if g has no vertices. Cancellable callers
// (servers with per-request deadlines) should use BuildContext instead.
func Build(g *graph.Graph, opt Options) *Decomposition {
	d, err := BuildContext(context.Background(), g, opt)
	if err != nil {
		// Background contexts never cancel, so the only error is the
		// empty-graph precondition — keep Build's historical contract.
		panic("treedecomp: " + err.Error())
	}
	return d
}

// BuildContext is Build with cancellation: construction stops at the
// next cluster split once ctx is done and the context's error is
// returned, so a caller whose deadline expired (or whose client hung
// up) stops burning CPU mid-decomposition. An empty graph is an error
// rather than a panic. On success the build duration is recorded in
// telemetry.Default under phase_decompose_seconds.
func BuildContext(ctx context.Context, g *graph.Graph, opt Options) (*Decomposition, error) {
	if g.N() == 0 {
		return nil, errors.New("empty graph")
	}
	start := time.Now()
	nTrees := opt.Trees
	if nTrees == 0 {
		nTrees = 1
	}
	passes := opt.FMPasses
	if passes == 0 {
		passes = 4
	}
	seedRNG := rand.New(rand.NewSource(opt.Seed))
	seeds := make([]int64, nTrees)
	for i := range seeds {
		seeds[i] = seedRNG.Int63()
	}

	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nTrees {
		workers = nTrees
	}
	d := &Decomposition{Trees: make([]*DecompTree, nTrees)}
	errs := make([]error, nTrees)
	build := func(i int) {
		// A panic while building one tree (a construction bug, or an
		// injected fault) must not kill the process when trees build on
		// worker goroutines — it surfaces as that tree's error instead.
		defer func() {
			if r := recover(); r != nil {
				errs[i] = fmt.Errorf("treedecomp: tree %d: panic: %v", i, r)
			}
		}()
		d.Trees[i], errs[i] = buildOne(ctx, g, rand.New(rand.NewSource(seeds[i])), passes, opt.FlowRefine, opt.Strategy)
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				build(i)
			}
		}()
	}
	for i := 0; i < nTrees; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	telemetry.ObserveDuration("phase_decompose_seconds", time.Since(start))
	return d, nil
}

func buildOne(ctx context.Context, g *graph.Graph, rng *rand.Rand, passes int, flowRef bool, strat Strategy) (*DecompTree, error) {
	if strat == FRT {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := faultinject.Fire(ctx, faultinject.TreedecompSplit); err != nil {
			return nil, err
		}
		return buildFRT(g, rng), nil
	}
	dt := &DecompTree{
		T:      tree.New(),
		LeafOf: make([]int, g.N()),
	}
	dt.T.Grow(2*g.N() - 2) // a bisection tree has 2n−1 nodes, the root included
	all := make([]int, g.N())
	for v := range all {
		all[v] = v
	}
	b := &builder{ctx: ctx, g: g, rng: rng, passes: passes, flowRef: flowRef, strat: strat, dt: dt}
	if err := b.attach(dt.T.Root(), all); err != nil {
		return nil, err
	}
	return dt, nil
}

type builder struct {
	ctx     context.Context
	g       *graph.Graph
	rng     *rand.Rand
	passes  int
	flowRef bool
	strat   Strategy
	dt      *DecompTree
	inPart  []bool // boundary's membership mark, all false between calls
}

// attach populates the subtree rooted at the (already created) tree node
// for the given cluster. For singleton clusters the node *is* the leaf;
// callers create child nodes with the correct boundary edge weight.
// Cancellation is polled once per cluster, the unit of bisection work.
func (b *builder) attach(node int, cluster []int) error {
	if err := b.ctx.Err(); err != nil {
		return err
	}
	if err := faultinject.Fire(b.ctx, faultinject.TreedecompSplit); err != nil {
		return err
	}
	if len(cluster) == 1 {
		v := cluster[0]
		b.dt.T.SetLabel(node, v)
		b.dt.T.SetDemand(node, b.g.Demand(v))
		b.dt.LeafOf[v] = node
		return nil
	}
	left, right := b.bisect(cluster)
	for _, part := range [][]int{left, right} {
		w := b.boundary(part)
		child := b.dt.T.AddChild(node, w)
		if err := b.attach(child, part); err != nil {
			return err
		}
	}
	return nil
}

// boundary returns the total graph weight leaving the vertex set, in
// O(volume of part) rather than CutWeight's scan of every vertex. Parts
// are sorted ascending, so the sum adds the same terms in the same
// order as g.CutWeight over the part and is bit-identical to it.
func (b *builder) boundary(part []int) float64 {
	if b.inPart == nil {
		b.inPart = make([]bool, b.g.N())
	}
	for _, v := range part {
		b.inPart[v] = true
	}
	var s float64
	for _, v := range part {
		b.g.Neighbors(v, func(u int, w float64) {
			if !b.inPart[u] {
				s += w
			}
		})
	}
	for _, v := range part {
		b.inPart[v] = false
	}
	return s
}

// bisect splits a cluster into two non-empty parts of roughly equal
// demand with small internal cut: a BFS region grown from a random seed
// to half the demand, refined by gain-driven single-vertex moves.
func (b *builder) bisect(cluster []int) (left, right []int) {
	if len(cluster) == 2 {
		return cluster[:1], cluster[1:]
	}
	if b.strat == MinCutSplit {
		return b.minCutSplit(cluster)
	}
	inCluster := make(map[int]bool, len(cluster))
	var totalDemand float64
	for _, v := range cluster {
		inCluster[v] = true
		totalDemand += b.g.Demand(v)
	}
	// Weight per vertex for balancing: demand, or 1 if demands are zero.
	wgt := func(v int) float64 {
		if totalDemand == 0 {
			return 1
		}
		return b.g.Demand(v)
	}
	totalW := totalDemand
	if totalW == 0 {
		totalW = float64(len(cluster))
	}

	// BFS growth from a random seed.
	side := make(map[int]bool, len(cluster)) // true = left
	seed := cluster[b.rng.Intn(len(cluster))]
	var leftW float64
	queue := []int{seed}
	visited := map[int]bool{seed: true}
	for len(queue) > 0 && leftW < totalW/2 {
		v := queue[0]
		queue = queue[1:]
		if leftW+wgt(v) > totalW*0.75 {
			continue
		}
		side[v] = true
		leftW += wgt(v)
		for _, u := range b.g.SortedNeighbors(v) {
			if inCluster[u] && !visited[u] {
				visited[u] = true
				queue = append(queue, u)
			}
		}
		if len(queue) == 0 {
			// Disconnected cluster: restart BFS from an unvisited vertex.
			for _, u := range cluster {
				if !visited[u] && leftW < totalW/2 {
					visited[u] = true
					queue = append(queue, u)
					break
				}
			}
		}
	}
	b.ensureNonEmpty(cluster, side)

	// Fiduccia–Mattheyses refinement: best-gain moves with tentative
	// negative-gain exploration and best-prefix rollback (internal/fm).
	fm.Refine(b.g, cluster, side, wgt, fm.Config{
		MinFrac: 0.25, MaxFrac: 0.75, Passes: b.passes,
	})
	b.ensureNonEmpty(cluster, side)

	if b.flowRef {
		// Corridor max-flow polish; repeat while it keeps improving
		// (bounded — each round strictly lowers the cut weight).
		for round := 0; round < 4; round++ {
			if !flowRefine(b.g, cluster, side, wgt, totalW, 0.25, 0.75) {
				break
			}
		}
		b.ensureNonEmpty(cluster, side)
	}

	for _, v := range cluster {
		if side[v] {
			left = append(left, v)
		} else {
			right = append(right, v)
		}
	}
	sort.Ints(left)
	sort.Ints(right)
	return left, right
}

// ensureNonEmpty guarantees both sides of a bisection are inhabited.
func (b *builder) ensureNonEmpty(cluster []int, side map[int]bool) {
	nLeft := 0
	for _, v := range cluster {
		if side[v] {
			nLeft++
		}
	}
	if nLeft == 0 {
		side[cluster[b.rng.Intn(len(cluster))]] = true
	} else if nLeft == len(cluster) {
		side[cluster[b.rng.Intn(len(cluster))]] = false
	}
}

// CutDistortion measures, for the leaf set corresponding to the vertex
// set S, the ratio between the tree's minimum separating cut and the
// graph boundary of S. Proposition 1 guarantees the result is ≥ 1
// (up to floating-point noise); its distribution over random S is the
// subject of experiment E7.
func (d *DecompTree) CutDistortion(g *graph.Graph, s map[int]bool) float64 {
	if len(s) == 0 {
		return 1
	}
	leafSet := map[int]bool{}
	for v := range s {
		leafSet[d.LeafOf[v]] = true
	}
	tw := d.T.CutLeafSetOf(leafSet).Weight
	gw := g.CutWeightSet(s)
	if gw == 0 {
		if tw == 0 {
			return 1
		}
		return math.Inf(1) // S free in G but not in T (disconnected graph)
	}
	return tw / gw
}

// minCutSplit divides a cluster along the global minimum cut of its
// induced subgraph (MinCutSplit strategy), falling back to a singleton
// split when the cut is degenerate.
func (b *builder) minCutSplit(cluster []int) (left, right []int) {
	sub, orig := b.g.InducedSubgraph(cluster)
	res := mincut.Global(sub)
	if len(res.Side) == 0 || len(res.Side) == len(cluster) {
		return cluster[:1], cluster[1:]
	}
	inLeft := map[int]bool{}
	for _, v := range res.Side {
		inLeft[orig[v]] = true
	}
	for _, v := range cluster {
		if inLeft[v] {
			left = append(left, v)
		} else {
			right = append(right, v)
		}
	}
	sort.Ints(left)
	sort.Ints(right)
	return left, right
}
