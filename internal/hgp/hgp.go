package hgp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hierpart/internal/graph"
	"hierpart/internal/hgpt"
	"hierpart/internal/hierarchy"
	"hierpart/internal/metrics"
	"hierpart/internal/treedecomp"
)

// Solver configures the pipeline.
type Solver struct {
	// Eps is the demand-rounding parameter of the tree DP (§3).
	// Zero means 0.5.
	Eps float64
	// Trees is the number of decomposition trees sampled. Zero means 4.
	Trees int
	// Seed drives the randomized embeddings.
	Seed int64
	// FMPasses is the refinement effort per bisection of the embedding.
	FMPasses int
	// FlowRefine enables corridor max-flow polish of every embedding
	// bisection (see treedecomp.Options.FlowRefine).
	FlowRefine bool
	// Workers is the single concurrency budget for the whole pipeline.
	// It caps the decomposition build (treedecomp.Options.Workers) and
	// is then split between tree-level parallelism (independent per-tree
	// DPs) and node-level parallelism inside each DP
	// (hgpt.Solver.Workers), so tree × node workers never exceed the
	// budget and cannot oversubscribe the machine. Zero means GOMAXPROCS;
	// 1 forces fully sequential execution. Results are bit-identical at
	// every worker count.
	Workers int
	// MaxStates is passed through to each tree DP (see
	// hgpt.Solver.MaxStates). Zero means unlimited.
	MaxStates int
	// AllowPartial changes what a cancelled SolveDecomposition returns:
	// instead of only the context's error, a run that has at least one
	// fully solved tree surrenders its current incumbent — the best
	// mapped placement among completed trees — marked Partial with
	// TreesDone recording how many trees finished. Which trees complete
	// before cancellation depends on timing, so partial results are not
	// deterministic per seed; the flag exists for anytime callers
	// (internal/anytime) that prefer a valid placement over an error.
	// Completed (uncancelled) runs are unaffected and stay bit-identical.
	AllowPartial bool
	// Prune enables the incumbent-bounded portfolio (portfolio.go):
	// trees are ordered by a cheap preview cost and run under a cost
	// bound derived from the best mapped cost completed so far, so a
	// tree that provably cannot beat the incumbent in DP space aborts
	// early instead of finishing its DP. Pruned trees record +Inf in
	// PerTreeCosts and are counted by TreesPruned; the returned
	// placement, cost, and TreeIndex are identical to the unpruned solve
	// (pinned by the on/off identity battery). Multi-tree solves only —
	// with one tree there is nothing to prune.
	//
	// The worker budget picks the mode: with Workers == 1 the trees run
	// one at a time, and with more they race CONCURRENTLY under a shared
	// live bound while a deterministic post-hoc reduction restores the
	// one-at-a-time outcome, so completed results remain bit-identical
	// at every worker count. One scoping note: the bit-identity contract
	// assumes MaxStates is either zero or generous enough that no tree
	// trips it mid-portfolio — state counts are schedule-dependent under
	// an active bound, so WHICH tree exhausts a tight budget can differ
	// between modes.
	Prune bool
	// TreeCaches, when non-nil, must hold one hgpt.TableCache per
	// decomposition tree (len == len(dec.Trees)); each tree's DP then
	// reuses the tables its cache recorded on the previous solve with
	// the same cache — after a treedecomp.Repair, only the dirty
	// subtrees recompute (see hgpt.TableCache). A warm solve is
	// bit-identical to a cold solve over the same decomposition.
	// Ignored when Prune is set: the portfolio's live incumbent bound
	// filters tables schedule-dependently, and such tables must never
	// repopulate a cache (hgpt.Solver.Reuse). Static certified bounds
	// (WarmBounds) DO compose with caches — lookups are served, only
	// repopulation is skipped. Each cache is owned by one solve
	// at a time — callers serialize solves per cache set (the hgpd
	// session store holds the session lock across the whole solve).
	TreeCaches []*hgpt.TableCache
	// WarmBounds, when non-empty, must hold one certified cost ceiling
	// per decomposition tree (len == len(dec.Trees)): tree i's DP runs
	// under a static hgpt.CostBound primed at WarmBounds[i], so table
	// entries that provably cannot reach a solution within the ceiling
	// are dropped at insertion. With a ceiling that is a true upper
	// bound on the tree's DP optimum — e.g. WarmBoundsAfterRepair's
	// certificate from the previous solve of the same tree — the solve
	// completes bit-identical to its unbounded run (hgpt's bounded-run
	// invariant) but visits a fraction of the states: the warm
	// incremental fast path. A +Inf or NaN entry means "no certificate,
	// solve tree i unbounded". Should a ceiling turn out too tight
	// (the tree aborts with hgpt.ErrBoundExceeded), the solve falls
	// back to an unbounded run of that tree automatically, so a bad
	// bound costs time, never correctness. Ignored when Prune is set
	// (the portfolio manages its own incumbent bound) or when the
	// length does not match the decomposition.
	WarmBounds []float64
}

// Result is the output of Solve.
type Result struct {
	// Assignment places every graph vertex on a hierarchy leaf.
	Assignment metrics.Assignment
	// Cost is the true HGP objective on G (Equation (1)).
	Cost float64
	// TreeCost is the winning tree solution's Equation (3) cost — an
	// upper bound on Cost when cm is normalized (Proposition 1).
	TreeCost float64
	// TreeIndex identifies the winning decomposition tree.
	TreeIndex int
	// PerTreeCosts records the mapped graph cost of every tree's
	// solution, indexed by tree, for distribution-quality experiments.
	// Two sentinels, never a zero (which would read as a perfect
	// placement): a tree whose solve FAILED records math.NaN() at its
	// index — no cost statement can be made — while a tree PRUNED by the
	// portfolio's incumbent bound (Solver.Prune) records math.Inf(1) —
	// its DP optimum provably exceeded the incumbent. Use math.IsNaN /
	// math.IsInf to skip sentinels when aggregating.
	PerTreeCosts []float64
	// Violation is the per-level relative capacity violation of the
	// returned placement (see metrics.Violation).
	Violation []float64
	// States is the total DP state count across completed trees. It is
	// the one field that is NOT schedule-independent under an active
	// prune bound (Solver.Prune): bound-affected tables filter under
	// ceilings that depend on scheduling, so the count of surviving
	// states varies with worker count — and under the concurrent
	// portfolio (shared live bound) it varies RUN TO RUN even at a
	// fixed worker count, since how far the shared bound has tightened
	// when a table is built depends on cross-tree timing. Treat it as
	// an order-of-magnitude work measure, never a determinism anchor.
	// Placement, Cost, PerTreeCosts, and the pruned set do not vary
	// (pinned by TestStatesOutsideDeterminismContract and the identity
	// batteries).
	States int
	// Partial marks an incumbent surrendered by a cancelled solve (see
	// Solver.AllowPartial): only TreesDone of the requested trees
	// completed, and PerTreeCosts records NaN for the rest.
	Partial bool
	// TreesDone counts the trees whose DP finished (equals the tree
	// count on a complete run with pruning off; pruned trees are not
	// "done" — they aborted early).
	TreesDone int
	// TreesPruned counts the trees skipped by the portfolio's incumbent
	// bound (Solver.Prune); each records +Inf in PerTreeCosts. Always
	// zero with pruning off.
	TreesPruned int
	// ParallelTrees is the number of tree-level workers the solve ran
	// with (1 = trees executed sequentially). Observability only —
	// excluded from the determinism contract.
	ParallelTrees int
	// TreeStats records per-tree execution detail, indexed by tree like
	// PerTreeCosts. Outcomes are deterministic under the reduction;
	// wall times (and, for re-solved trees, the work they include) vary
	// run to run — excluded from the determinism contract.
	TreeStats []TreeStat
	// TablesReused / TablesComputed sum the per-tree DP table reuse
	// counters (see hgpt.Solution) across completed trees. Both zero
	// unless Solver.TreeCaches was supplied and used.
	TablesReused   int
	TablesComputed int
	// PerTreeDPCosts records every tree's relaxed DP optimum (scaled
	// capacity space, hgpt.Solution.DPCost), indexed like PerTreeCosts
	// with the same sentinels (NaN failed, +Inf pruned). Incremental
	// callers feed these into WarmBoundsAfterRepair to certify the next
	// warm solve's cost ceilings.
	PerTreeDPCosts []float64
	// BoundFallbacks counts trees whose warm-bound run aborted with
	// hgpt.ErrBoundExceeded and were re-solved unbounded (always zero
	// unless Solver.WarmBounds was supplied; a certified bound never
	// trips it, so a nonzero count indicates a caller-computed bound
	// below the true optimum).
	BoundFallbacks int
}

// TreeStat is one tree's execution record (Result.TreeStats): what
// became of it and how much wall clock it cost. Meant for bench JSON
// (hgpbench/2) and observability, not for determinism-sensitive
// consumers.
type TreeStat struct {
	// Outcome is "done" (completed, cost in PerTreeCosts), "pruned"
	// (+Inf sentinel), or "failed" (NaN sentinel).
	Outcome string
	// WallMS is the wall-clock milliseconds spent solving this tree —
	// including, under the concurrent portfolio, any raced attempt a
	// reduction re-solve replaced.
	WallMS float64
	// AbortFrac is the fraction of the tree's DP tables completed when
	// its outcome was decided: a bound abort records TablesDone/Total
	// (small = the bound bit early, near the leaves), a completed tree
	// records 1, a tree demoted to pruned by the post-hoc reduction
	// records 1 (its full DP ran before demotion), a failed tree 0.
	AbortFrac float64
}

// Solve runs the full pipeline on g and H. Cancellable callers should
// use SolveContext.
func (s Solver) Solve(g *graph.Graph, H *hierarchy.Hierarchy) (*Result, error) {
	return s.SolveContext(context.Background(), g, H)
}

// DecompOptions returns the treedecomp build options the solver would
// use, with the effective (defaulted) tree count and worker budget.
// Callers that cache decompositions across solves key the cache on
// exactly the fields of this value that shape the output distribution
// (Trees, Seed, FMPasses, FlowRefine, Strategy — Workers never changes
// the trees built).
func (s Solver) DecompOptions() treedecomp.Options {
	nTrees := s.Trees
	if nTrees == 0 {
		nTrees = 4
	}
	budget := s.Workers
	if budget <= 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	return treedecomp.Options{
		Trees: nTrees, Seed: s.Seed, FMPasses: s.FMPasses, FlowRefine: s.FlowRefine,
		Workers: budget,
	}
}

// SolveContext runs the full pipeline on g and H with cancellation:
// once ctx is done, decomposition building and the per-tree DPs stop at
// their next poll point and the context's error is returned.
func (s Solver) SolveContext(ctx context.Context, g *graph.Graph, H *hierarchy.Hierarchy) (*Result, error) {
	if g.N() == 0 {
		return nil, errors.New("hgp: empty graph")
	}
	dec, err := treedecomp.BuildContext(ctx, g, s.DecompOptions())
	if err != nil {
		return nil, fmt.Errorf("hgp: %w", err)
	}
	return s.SolveDecomposition(ctx, g, H, dec)
}

// SolveDecomposition runs the DP-and-map-back half of the pipeline on a
// prebuilt decomposition of g — the entry point for callers that reuse
// decompositions across solves (the hgpd server's LRU cache): building
// the tree distribution is a fixed share of every cold solve (about
// 12 ms of build against 66 ms of DP per op on perfbench's traced
// cold-ladder workload, 2-vCPU host), and it depends only on (graph,
// Trees, Seed, FMPasses, FlowRefine), not on the hierarchy or the DP
// parameters, so one decomposition serves every (Eps, hierarchy)
// variation of the same graph. dec must have been built from g (same
// vertex set); Solver fields used at build time (Trees, Seed,
// FMPasses, FlowRefine) are ignored here.
func (s Solver) SolveDecomposition(ctx context.Context, g *graph.Graph, H *hierarchy.Hierarchy, dec *treedecomp.Decomposition) (*Result, error) {
	if g.N() == 0 {
		return nil, errors.New("hgp: empty graph")
	}
	if len(dec.Trees) == 0 {
		return nil, errors.New("hgp: decomposition has no trees")
	}
	for _, dt := range dec.Trees {
		if len(dt.LeafOf) != g.N() {
			return nil, fmt.Errorf("hgp: decomposition built for %d vertices, graph has %d", len(dt.LeafOf), g.N())
		}
	}
	budget := s.Workers
	if budget <= 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	// The budget splits between the tree level and the node level inside
	// each DP: treeWorkers × nodeWorkers ≤ budget, so the two layers of
	// parallelism cannot oversubscribe.
	treeWorkers := min(budget, len(dec.Trees))
	outs := make([]treeOut, len(dec.Trees))
	if s.Prune && len(dec.Trees) > 1 {
		// Portfolio path (portfolio.go): best-preview-first trees under
		// an incumbent bound, raced when the budget allows more than one
		// tree worker; either way the result is bit-identical to the
		// one-at-a-time pruned run.
		s.solvePortfolio(ctx, g, H, dec, outs, treeWorkers, budget)
	} else {
		// Independent per-tree DPs; selection below is by fixed tree
		// index, so results are deterministic regardless of completion
		// order.
		nodeWorkers := budget / treeWorkers
		order := make([]int, len(dec.Trees))
		for ti := range order {
			order[ti] = ti
		}
		runTrees(ctx, outs, order, treeWorkers, func(ti int) treeOut {
			cache := s.treeCache(ti, len(dec.Trees))
			bound := s.warmBound(ti, len(dec.Trees))
			o := s.solveTree(ctx, g, H, dec.Trees[ti], ti, nodeWorkers, bound, cache)
			if bound != nil && errors.Is(o.err, hgpt.ErrBoundExceeded) {
				// The caller's ceiling was below the tree's true optimum (a
				// certified bound never is): fall back to the unbounded warm
				// run — correctness is never bound-dependent.
				o = s.solveTree(ctx, g, H, dec.Trees[ti], ti, nodeWorkers, nil, cache)
				o.boundFellBack = true
			}
			return o
		})
	}

	res, err := s.gather(g, H, outs)
	if cerr := ctx.Err(); cerr != nil {
		// A cancelled run may have finished some trees. By default a
		// partial minimum would make the result depend on timing, so
		// cancellation surfaces as the context's error — unless the
		// caller opted into anytime semantics, in which case the best
		// completed tree (when one exists) is surrendered instead.
		if !s.AllowPartial || res == nil {
			return nil, fmt.Errorf("hgp: %w", cerr)
		}
		res.Partial = true
	} else if res == nil {
		return nil, err
	}
	res.ParallelTrees = treeWorkers
	return res, nil
}

// afterTree, when non-nil, is called by runTrees with each tree's
// outcome as soon as the tree is solved. It is nil outside package
// tests, which set it to act at a deterministic point of a solve.
var afterTree func(o *treeOut)

// runTrees is the one tree dispatcher of the package: workers
// goroutines take the trees in order and store solve(ti) in outs[ti].
// A tree taken after ctx is done is never started; it records ctx's
// error instead. With one worker the trees run one at a time, in order.
func runTrees(ctx context.Context, outs []treeOut, order []int, workers int, solve func(ti int) treeOut) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(order)); i = next.Add(1) - 1 {
				ti := order[i]
				if err := ctx.Err(); err != nil {
					outs[ti].err = err
					continue
				}
				outs[ti] = solve(ti)
				if afterTree != nil {
					afterTree(&outs[ti])
				}
			}
		}()
	}
	wg.Wait()
}

type treeOut struct {
	assign         metrics.Assignment
	cost           float64
	treeCost       float64
	dpCost         float64 // relaxed DP optimum (≥ treeCost ≥ cost)
	states         int
	tablesReused   int     // warm-cache hits (Solver.TreeCaches)
	tablesComputed int     // tables built fresh on a warm solve
	pruned         bool    // aborted by the portfolio's incumbent bound
	boundFellBack  bool    // warm bound aborted; re-solved unbounded
	wallMS         float64 // wall clock spent on this tree (see TreeStat.WallMS)
	abortFrac      float64 // DP progress at decision (see TreeStat.AbortFrac)
	err            error
}

// treeCache returns tree ti's warm table cache, or nil when reuse is
// off for this run: no TreeCaches supplied, a length that doesn't match
// the decomposition (a defensive mismatch guard — a cache built for a
// different tree set would simply miss, but the length contract catches
// caller bugs early), or Prune on (bounded tables are not reusable).
func (s Solver) treeCache(ti, nTrees int) *hgpt.TableCache {
	if s.Prune || len(s.TreeCaches) != nTrees {
		return nil
	}
	return s.TreeCaches[ti]
}

// warmBound returns tree ti's certified cost ceiling as a static bound
// source, or nil when warm bounds are off for this run (no WarmBounds,
// length mismatch, Prune on, or a +Inf/NaN "no certificate" entry).
func (s Solver) warmBound(ti, nTrees int) *hgpt.CostBound {
	if s.Prune || len(s.WarmBounds) != nTrees {
		return nil
	}
	u := s.WarmBounds[ti]
	if math.IsNaN(u) || math.IsInf(u, 0) {
		return nil
	}
	b := hgpt.NewCostBound()
	b.Tighten(u)
	return b
}

// WarmBoundsAfterRepair derives certified per-tree cost ceilings for a
// warm re-solve after a reweight-only treedecomp.Repair, from the
// previous solve's PerTreeDPCosts over the SAME decomposition the
// repair started from. The certificate: a pure edge reweight keeps
// every tree's structure and all demands intact, so the previous
// optimal relaxed family is still feasible on the repaired tree, and
// its cost moved by at most the boundary-weight increase times
// CM(0) − CM(h) (each tree edge is charged at most twice per hierarchy
// level: 2·Σ_k Δ(k) = CM(0) − CM(h)). Trees with no valid certificate
// — a structural rebuild, changed demands, or a sentinel previous cost
// — get +Inf ("solve unbounded"); a nil return means no tree has one.
// The ceiling carries a hair of relative slack so float
// association-order drift between the DP's accumulation and this
// closed form cannot push a true optimum over the bound.
func WarmBoundsAfterRepair(prevDP []float64, H *hierarchy.Hierarchy, st *treedecomp.RepairStats) []float64 {
	if st == nil || st.DemandsChanged ||
		len(prevDP) == 0 || len(prevDP) != len(st.TreeReweightUp) || len(prevDP) != len(st.TreeStructural) {
		return nil
	}
	span := H.CM(0) - H.CM(H.Height())
	out := make([]float64, len(prevDP))
	any := false
	for i, p := range prevDP {
		if st.TreeStructural[i] || math.IsNaN(p) || math.IsInf(p, 0) {
			out[i] = math.Inf(1)
			continue
		}
		out[i] = (p + st.TreeReweightUp[i]*span) * (1 + 1e-9)
		any = true
	}
	if !any {
		return nil
	}
	return out
}

// solveTree runs one tree's DP and maps its solution back onto the
// graph, converting a panic anywhere below (a solver bug, or an
// injected fault) into that tree's error so one bad tree cannot take
// down the caller — the remaining trees still produce a usable result.
// bound, when non-nil, is either the portfolio's incumbent cost bound
// (see portfolio.go, never combined with a cache) or a caller-certified
// warm-solve ceiling (Solver.WarmBounds, combined with this tree's
// cache); nil means unbounded. cache, when non-nil, is this tree's warm
// table cache (Solver.TreeCaches).
func (s Solver) solveTree(ctx context.Context, g *graph.Graph, H *hierarchy.Hierarchy, dt *treedecomp.DecompTree, ti, nodeWorkers int, bound *hgpt.CostBound, cache *hgpt.TableCache) (out treeOut) {
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			out = treeOut{err: fmt.Errorf("hgp: tree %d: panic: %v", ti, r)}
		}
		out.wallMS = float64(time.Since(start)) / float64(time.Millisecond)
		if out.err == nil {
			out.abortFrac = 1
		}
	}()
	sol, err := hgpt.Solver{Eps: s.Eps, MaxStates: s.MaxStates, Workers: nodeWorkers, Bound: bound, Reuse: cache}.SolveContext(ctx, dt.T, H)
	if err != nil {
		return treeOut{err: fmt.Errorf("hgp: tree %d: %w", ti, err)}
	}
	assign := metrics.NewAssignment(g.N())
	for leaf, hl := range sol.Assignment {
		assign[dt.T.Label(leaf)] = hl
	}
	if !assign.Complete() {
		return treeOut{err: fmt.Errorf("hgp: tree %d solution left vertices unassigned", ti)}
	}
	return treeOut{
		assign:         assign,
		cost:           metrics.CostLCA(g, H, assign),
		treeCost:       sol.Cost,
		dpCost:         sol.DPCost,
		states:         sol.States,
		tablesReused:   sol.TablesReused,
		tablesComputed: sol.TablesComputed,
	}
}

// gather folds the per-tree outcomes into the final Result: the
// minimum-cost completed tree wins (fixed index order, so complete runs
// are deterministic), errored or unfinished trees record NaN in
// PerTreeCosts, trees pruned by the portfolio bound record +Inf and
// tick TreesPruned. It returns nil and the first tree error when no
// tree completed.
func (s Solver) gather(g *graph.Graph, H *hierarchy.Hierarchy, outs []treeOut) (*Result, error) {
	res := &Result{
		TreeIndex:      -1,
		PerTreeCosts:   make([]float64, 0, len(outs)),
		PerTreeDPCosts: make([]float64, 0, len(outs)),
		TreeStats:      make([]TreeStat, 0, len(outs)),
	}
	var firstErr error
	for ti := range outs {
		o := &outs[ti]
		if o.boundFellBack {
			res.BoundFallbacks++
		}
		if o.pruned {
			res.PerTreeCosts = append(res.PerTreeCosts, math.Inf(1))
			res.PerTreeDPCosts = append(res.PerTreeDPCosts, math.Inf(1))
			res.TreeStats = append(res.TreeStats, TreeStat{Outcome: "pruned", WallMS: o.wallMS, AbortFrac: o.abortFrac})
			res.TreesPruned++
			continue
		}
		if o.err != nil || o.assign == nil {
			if o.err != nil && firstErr == nil {
				firstErr = o.err
			}
			res.PerTreeCosts = append(res.PerTreeCosts, math.NaN())
			res.PerTreeDPCosts = append(res.PerTreeDPCosts, math.NaN())
			res.TreeStats = append(res.TreeStats, TreeStat{Outcome: "failed", WallMS: o.wallMS})
			continue
		}
		res.States += o.states
		res.TablesReused += o.tablesReused
		res.TablesComputed += o.tablesComputed
		res.TreesDone++
		res.PerTreeCosts = append(res.PerTreeCosts, o.cost)
		res.PerTreeDPCosts = append(res.PerTreeDPCosts, o.dpCost)
		res.TreeStats = append(res.TreeStats, TreeStat{Outcome: "done", WallMS: o.wallMS, AbortFrac: o.abortFrac})
		if res.TreeIndex == -1 || o.cost < res.Cost {
			res.Assignment = o.assign
			res.Cost = o.cost
			res.TreeCost = o.treeCost
			res.TreeIndex = ti
		}
	}
	if res.TreeIndex == -1 {
		return nil, firstErr
	}
	res.Violation = metrics.Violation(g, H, res.Assignment)
	return res, nil
}
