package hgp

import (
	"context"
	"errors"
	"math"
	"sort"
	"sync"

	"hierpart/internal/graph"
	"hierpart/internal/hgpt"
	"hierpart/internal/hierarchy"
	"hierpart/internal/metrics"
	"hierpart/internal/treedecomp"
)

// Portfolio pruning (Solver.Prune). Most sampled decomposition trees
// cannot beat the best one — the distribution's trees vary widely in
// quality (Andersen–Feige) — yet the plain solver runs the full
// signature DP on every tree and only compares at the end. The
// portfolio path instead:
//
//  1. computes a cheap preview cost per tree — the mapped Equation (1)
//     cost of a greedy first-fit placement of the tree's DFS leaf order
//     onto the hierarchy leaves — and orders trees best-preview-first,
//     so the tree most likely to win runs first;
//  2. runs the trees in that order under an incumbent hgpt.CostBound
//     derived from the best mapped cost completed so far
//     (distortion-scaled — see portfolioStats.bound): a tree whose
//     every DP partial already exceeds the bound aborts early
//     (hgpt.ErrBoundExceeded) and records a +Inf sentinel in
//     PerTreeCosts instead of a finished cost.
//
// The worker budget picks the execution mode. With one tree worker
// (Workers == 1) the SEQUENTIAL mode runs trees one at a time; each
// tree's bound is then a pure function of the completed prefix. With
// more, the CONCURRENT mode races trees under the tree×node worker
// split with ONE shared live CostBound: each completion tightens it,
// and in-flight DPs re-read it per table, so cross-tree parallelism
// compounds the node-level scheduler without losing pruning power.
// Because which trees abort then depends on timing, a deterministic
// post-hoc reduction (reducePortfolio) replays the preview order
// against the pure-function sequential bound and re-validates every
// outcome, so the returned placement, cost, PerTreeCosts, and
// TreesPruned are bit-identical to the sequential pruned run.
//
// Determinism: the preview order is a pure function of (trees, H, g);
// the first tree always runs unbounded, so a result always exists; and
// each tree's EFFECTIVE bound (after reduction, in concurrent mode) is
// a pure function of the completed prefix — never of scheduler timing.
// The DP's bound filter drops only entries strictly above the bound,
// so a bounded tree that completes is bit-identical to its unbounded
// solve, and the identity battery (TestPruneIdentityBattery and the
// concurrent-vs-sequential battery) pins that the returned placement,
// cost, and TreeIndex match the unpruned run across every generator
// and worker count.
//
// The pruning test compares DP-space partial costs against a
// graph-space incumbent, which is heuristically (not provably)
// admissible: mapped cost ≤ tree cost ≤ DP cost (Proposition 1 with
// normalized cm), so the DP optimum of a pruned tree provably exceeds
// the bound, while its mapped cost could in principle have come out
// lower — exactly when its DP→mapped distortion exceeds that of every
// completed tree (see the solvePortfolio bound). The identity battery
// verifies empirically that it does not on this distribution; the
// -prune A/B toggle in hgpbench exists to re-check on new workloads.

// previewAssignment places dt's leaves on hierarchy leaves greedily:
// walk the tree's leaves in DFS order (so tree-adjacent leaves stay
// together), packing each onto the current hierarchy leaf while its
// demand fits, advancing when full, and falling back to the
// least-loaded leaf (lowest index on ties) once all are full. The
// result is a valid complete placement whose mapped cost serves as the
// tree's portfolio preview.
func previewAssignment(g *graph.Graph, H *hierarchy.Hierarchy, dt *treedecomp.DecompTree) metrics.Assignment {
	k := H.Leaves()
	capLeaf := H.Cap(H.Height())
	load := make([]float64, k)
	assign := metrics.NewAssignment(g.N())
	cur := 0
	for _, v := range dt.T.PostOrder() {
		if !dt.T.IsLeaf(v) {
			continue
		}
		d := dt.T.Demand(v)
		for cur < k-1 && load[cur]+d > capLeaf {
			cur++
		}
		target := cur
		if load[target]+d > capLeaf {
			// Everything from cur on is full: spill to the least-loaded
			// leaf (lowest index wins ties) so overload spreads evenly.
			for l := 0; l < k; l++ {
				if load[l] < load[target] {
					target = l
				}
			}
		}
		load[target] += d
		assign[dt.T.Label(v)] = target
	}
	return assign
}

// portfolioOrder returns tree indices sorted by preview cost ascending
// (ties broken by index), the best-bound-first schedule of the pruned
// portfolio.
func portfolioOrder(g *graph.Graph, H *hierarchy.Hierarchy, dec *treedecomp.Decomposition) []int {
	type ranked struct {
		ti      int
		preview float64
	}
	ranks := make([]ranked, len(dec.Trees))
	for ti, dt := range dec.Trees {
		ranks[ti] = ranked{ti, metrics.CostLCA(g, H, previewAssignment(g, H, dt))}
	}
	sort.Slice(ranks, func(a, b int) bool {
		if ranks[a].preview != ranks[b].preview {
			return ranks[a].preview < ranks[b].preview
		}
		return ranks[a].ti < ranks[b].ti
	})
	order := make([]int, len(ranks))
	for i, r := range ranks {
		order[i] = r.ti
	}
	return order
}

// pruneMinN disables the incumbent bound below 64 graph vertices. The
// bound compares DP-space partials against mapped-space incumbents, and
// its safety rests on the tree distribution's distortion concentrating:
// measured across generators, per-instance distortion spread is ≤1.05
// at n≥128 but ranges to 1.4+ at n≤20, where every identity violation
// found during development occurred. Below the floor the DP costs
// microseconds anyway; the portfolio still runs (ordering, sequential
// incumbents) but every tree solves unbounded.
const (
	boundSlack = 1.05
	distGate   = 1.1
	pruneMinN  = 64
)

// portfolioStats is the completed-prefix statistics the incumbent
// bound is computed from: bestMapped is the incumbent mapped cost,
// maxDist the largest observed DPCost/mapped distortion, and minDPCost
// the cheapest completed DP optimum. One struct serves three call
// sites — the sequential step, the concurrent race's publisher, and
// the post-hoc reduction — so all three compute the bound with the
// same pure function.
type portfolioStats struct {
	bestMapped float64 // best mapped cost over completed trees; -1 = none yet
	maxDist    float64 // max DPCost/mapped over completed trees; starts at 1
	minDPCost  float64 // min DP optimum over completed trees; -1 = none yet
}

func newPortfolioStats() portfolioStats {
	return portfolioStats{bestMapped: -1, maxDist: 1, minDPCost: -1}
}

// update folds one completed tree into the prefix statistics.
func (p *portfolioStats) update(o *treeOut) {
	if p.bestMapped < 0 || o.cost < p.bestMapped {
		p.bestMapped = o.cost
	}
	if p.minDPCost < 0 || o.dpCost < p.minDPCost {
		p.minDPCost = o.dpCost
	}
	if o.cost > 0 {
		if d := o.dpCost / o.cost; d > p.maxDist {
			p.maxDist = d
		}
	}
}

// bound returns the incumbent bound value derived from the prefix
// statistics and whether bounding applies at all — a pure function of
// the stats (and the bounding flag), never of timing.
//
// The value is max(bestMapped × maxDist, minDPCost) × boundSlack. The
// two rails cover the two ways a winner could hide behind a large DP
// cost (both caught by the identity battery during development):
//
//   - bestMapped×maxDist: a pruned tree i has DPCost_i above it, so
//     unless its distortion exceeds every distortion seen so far,
//     mapped_i = DPCost_i/dist_i > bestMapped — it could not have won.
//     (bestMapped alone pruned a grid winner whose DP cost sat above a
//     worse tree's mapped cost.)
//   - minDPCost: trees of near-equal DP optimum can differ widely in
//     mapped cost (community instances map the SAME DP cost down to
//     257…314), so no tree at or near the best DP cost seen may be
//     pruned, whatever the mapped incumbent says.
//
// boundSlack absorbs tree-to-tree distortion drift past the prefix's
// maximum. A zero-cost incumbent cannot be beaten, so it bounds at
// exactly 0 (zero-cost ties still complete — the DP filter keeps
// ties) and overrides the distortion gate.
//
// distGate switches pruning off entirely the moment any completed tree
// shows DPCost/mapped distortion above it. High distortion means the
// DP objective does not track the mapped objective on this instance,
// so no DP-space bound can safely predict the mapped winner — small
// dense instances show per-tree distortions of 1.2–1.6 varying 40%
// tree to tree, and every identity violation found during development
// was of that shape. At serving scale (n≥128) distortions cluster
// within ~1% of 1.01, far under the gate, so pruning stays active
// exactly in the regime where it is both safe and worth having.
//
// Note the value can LOOSEN as the prefix grows (maxDist rises, or the
// gate trips): the sequential step therefore hands each tree a fresh
// CostBound, while the concurrent race shares one monotone bound and
// lets the reduction repair any over-tight abort (see reducePortfolio).
func (p *portfolioStats) bound(bounding bool) (float64, bool) {
	if !bounding || p.bestMapped < 0 {
		return 0, false
	}
	if p.bestMapped == 0 {
		return 0, true
	}
	if p.maxDist > distGate {
		return 0, false
	}
	v := p.bestMapped * p.maxDist
	if p.minDPCost > v {
		v = p.minDPCost
	}
	return v * boundSlack, true
}

// prunedOut converts a bound-aborted tree outcome into the pruned
// sentinel, preserving wall time and extracting the abort depth from
// the typed BoundError.
func prunedOut(o *treeOut) treeOut {
	out := treeOut{pruned: true, wallMS: o.wallMS}
	var be *hgpt.BoundError
	if errors.As(o.err, &be) && be.TablesTotal > 0 {
		out.abortFrac = float64(be.TablesDone) / float64(be.TablesTotal)
	}
	return out
}

// minAppliedOf extracts the tightest bound value an aborted run
// filtered under; -Inf when the abort carried no detail (forces a
// re-solve in the reduction — never assume).
func minAppliedOf(err error) float64 {
	var be *hgpt.BoundError
	if errors.As(err, &be) {
		return be.MinApplied
	}
	return math.Inf(-1)
}

// solvePortfolio is the Prune=true body of SolveDecomposition. It
// fills outs per tree, marking pruned trees rather than erroring them:
// one tree worker runs the sequential mode, more race the trees and
// reduce the race (see the mode note above).
//
// The race shares ONE live CostBound: every completion folds into the
// race statistics and publishes a (monotone) tightening, which
// in-flight DPs pick up at their next table. The race's outcomes are
// timing-dependent — which trees abort, and how deep — so the
// deterministic reduction replays them afterwards. The shared bound can
// be OVER-TIGHT relative to the sequential bound (the formula can
// loosen as maxDist rises or the gate trips, but a published tightening
// cannot be retracted); that only costs wasted aborts, which the
// reduction repairs by re-solving. It is never under-sound: every value
// published satisfies the same two-rail formula over SOME completed
// set, and the reduction re-validates against the sequential prefix
// anyway.
func (s Solver) solvePortfolio(ctx context.Context, g *graph.Graph, H *hierarchy.Hierarchy, dec *treedecomp.Decomposition, outs []treeOut, treeWorkers, budget int) {
	order := portfolioOrder(g, H, dec)
	bounding := g.N() >= pruneMinN
	// step is the sequential mode's unit of work, shared with the
	// reduction's re-solves: tree ti runs under a FRESH static bound
	// computed from the completed prefix st (the bound formula can
	// loosen; a shared monotone bound could not) with the whole budget
	// on node-level DP parallelism, and a completion folds into st while
	// a bound abort becomes the pruned sentinel.
	step := func(ti int, st *portfolioStats) treeOut {
		var bound *hgpt.CostBound
		if v, ok := st.bound(bounding); ok {
			bound = hgpt.NewCostBound()
			bound.Tighten(v)
		}
		o := s.solveTree(ctx, g, H, dec.Trees[ti], ti, budget, bound, nil)
		switch {
		case o.err == nil:
			st.update(&o)
		case errors.Is(o.err, hgpt.ErrBoundExceeded):
			o = prunedOut(&o)
		}
		return o
	}
	if treeWorkers == 1 {
		st := newPortfolioStats()
		runTrees(ctx, outs, order, 1, func(ti int) treeOut { return step(ti, &st) })
		return
	}

	var live *hgpt.CostBound // stays nil (unbounded) below pruneMinN
	if bounding {
		live = hgpt.NewCostBound()
	}
	var raceMu sync.Mutex
	race := newPortfolioStats()
	runTrees(ctx, outs, order, treeWorkers, func(ti int) treeOut {
		o := s.solveTree(ctx, g, H, dec.Trees[ti], ti, budget/treeWorkers, live, nil)
		if o.err == nil {
			raceMu.Lock()
			race.update(&o)
			v, ok := race.bound(bounding)
			raceMu.Unlock()
			if ok {
				live.Tighten(v)
			}
		}
		return o
	})
	reducePortfolio(outs, order, bounding, step)
}

// reducePortfolio is the deterministic post-hoc reduction: replay the
// preview order sequentially, maintaining the same prefix statistics
// the sequential mode would have, and re-validate each race outcome
// against the pure-function sequential bound B. Soundness rests on two
// facts proven in hgpt (scheduler.go invariant note):
//
//   - a run that COMPLETED under the live bound is bit-identical to
//     its unbounded solve, so its dpCost is exact: it is sequentially
//     pruned iff B applies and dpCost > B (a static bound B completes
//     a tree iff its unbounded DP optimum is ≤ B);
//   - a run that ABORTED proves only dpCost > minApplied (the
//     tightest value it filtered under): when B ≤ minApplied the
//     sequential run would have pruned it too, and otherwise the abort
//     is inconclusive — the tree is re-solved under exactly B (static,
//     full budget — the race is over) and the static-bound iff decides.
//
// Trees the reduction completes update the prefix statistics exactly
// as the sequential loop would, so every later tree's B matches the
// sequential run's bound value bit for bit; by induction the kept set,
// the pruned set, and every completed cost equal the sequential run's.
// Real (non-bound) errors record NaN and never update the statistics,
// in both modes alike. Wasted work is bounded: each tree is re-solved
// at most once, and only when the race's shared bound over-tightened
// past the sequential value.
func reducePortfolio(outs []treeOut, order []int, bounding bool, step func(ti int, st *portfolioStats) treeOut) {
	st := newPortfolioStats()
	for _, ti := range order {
		o := &outs[ti]
		b, useBound := st.bound(bounding)
		switch {
		case o.err == nil:
			if useBound && o.dpCost > b {
				// Completed in the race, but the sequential bound would
				// have pruned it: demote. Its full DP ran, so the abort
				// depth is 1 by convention.
				outs[ti] = treeOut{pruned: true, wallMS: o.wallMS, abortFrac: 1}
				continue
			}
			st.update(o)
		case errors.Is(o.err, hgpt.ErrBoundExceeded):
			if useBound && b <= minAppliedOf(o.err) {
				outs[ti] = prunedOut(o)
				continue
			}
			// Inconclusive abort (shared bound was tighter than the
			// sequential bound, or no bound applies sequentially):
			// re-solve under exactly the sequential conditions.
			raced := o.wallMS
			outs[ti] = step(ti, &st)
			outs[ti].wallMS += raced // total spent on this tree
		}
		// Real errors (and cancellations) fall through untouched: NaN in
		// PerTreeCosts, no statistics update — same as the sequential mode.
	}
}
