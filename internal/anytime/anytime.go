package anytime

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"hierpart/internal/baseline"
	"hierpart/internal/graph"
	"hierpart/internal/hgp"
	"hierpart/internal/hierarchy"
	"hierpart/internal/metrics"
)

// Tier identifies one rung of the degradation ladder, ordered from
// highest quality (and cost) to cheapest.
type Tier int

const (
	// TierFullDP is the paper's full pipeline: the requested number of
	// decomposition trees, each solved by the mirror-function DP under
	// the requested state budget.
	TierFullDP Tier = iota
	// TierBaseline is the k-BGP-style heuristic fallback: SCOTCH-style
	// dual recursive bipartitioning mapped directly onto the hierarchy
	// (internal/baseline.DualRecursive), polished with one local
	// refinement pass on small instances. No decomposition, no DP.
	TierBaseline
	numTiers
)

// String returns the tier's wire name (used in the hgpd response and
// the degraded_total{tier=...} counters).
func (t Tier) String() string {
	switch t {
	case TierFullDP:
		return "full_dp"
	case TierBaseline:
		return "baseline"
	default:
		return fmt.Sprintf("tier_%d", int(t))
	}
}

// ParseTier maps a wire name back to its Tier.
func ParseTier(s string) (Tier, error) {
	for t := TierFullDP; t < numTiers; t++ {
		if t.String() == s {
			return t, nil
		}
	}
	return 0, fmt.Errorf("anytime: unknown tier %q", s)
}

// DPFunc executes the full tier. The default runs
// hgp.Solver.SolveContext directly; the hgpd server injects a
// cache-backed (and singleflight-coalesced) implementation instead.
type DPFunc func(ctx context.Context, g *graph.Graph, H *hierarchy.Hierarchy, sv hgp.Solver) (*hgp.Result, error)

// Options configures the ladder.
type Options struct {
	// Solver is the full tier's configuration. The full tier keeps its
	// whole Workers budget: the only other rung is the baseline, a
	// single goroutine.
	Solver hgp.Solver
	// SolveDP overrides how the full tier executes; nil means a direct
	// hgp.SolveContext. The solver passed in always has AllowPartial
	// set, so implementations must propagate it unchanged.
	SolveDP DPFunc
	// Only restricts the ladder to a single tier (for experiments and
	// the hgpbench -tier flag). Nil means run the whole ladder.
	Only *Tier
}

// TierState classifies how a tier's attempt ended.
type TierState string

const (
	// StateWon marks the tier whose result the ladder returned.
	StateWon TierState = "won"
	// StateCompleted marks a tier that produced a full-quality result
	// which lost the selection (a cheaper tier was not needed, or an
	// equal-cost lower tier won the tie).
	StateCompleted TierState = "completed"
	// StatePartial marks a tier cancelled mid-solve that surrendered a
	// best-so-far incumbent.
	StatePartial TierState = "partial"
	// StateFailed marks a tier that returned an error (including
	// cancellation before any incumbent existed).
	StateFailed TierState = "failed"
	// StateSkipped marks a tier the ladder never launched (restricted
	// by Options.Only).
	StateSkipped TierState = "skipped"
	// StateSuperseded marks a tier stopped by the race itself: the full
	// tier completed while this one was still running, so its context
	// was cancelled even though the caller's deadline never expired.
	StateSuperseded TierState = "superseded"
)

// TierReport is the post-mortem of one tier's attempt.
type TierReport struct {
	Tier      Tier      `json:"tier"`
	Name      string    `json:"name"`
	State     TierState `json:"state"`
	Cost      float64   `json:"cost,omitempty"`
	ElapsedMS float64   `json:"elapsed_ms,omitempty"`
	Error     string    `json:"error,omitempty"`
}

// Outcome is what the ladder returns: the best feasible partition found
// before the deadline, which tier produced it, and a report per tier.
type Outcome struct {
	// Result is the winning placement. For TierBaseline results,
	// TreeCost/TreeIndex/PerTreeCosts/States are zero values — there is
	// no tree distribution behind them.
	Result *hgp.Result
	// Tier produced Result.
	Tier Tier
	// Degraded reports whether the caller got anything less than the
	// full pipeline's complete answer (a lower tier won, or the full
	// tier surrendered a partial incumbent).
	Degraded bool
	// Reports holds one entry per tier, indexed by Tier.
	Reports [numTiers]TierReport
}

// Solve runs the degradation ladder: the enabled tiers race under ctx,
// the baseline's result stands in until the full tier completes, and
// the best feasible partition available when the full tier finishes (or
// the deadline expires) is returned. The error is non-nil only when no
// tier produced any valid placement — with the baseline tier enabled
// that cannot happen short of a solver bug, because the baseline rung
// runs to completion even under an expired deadline.
//
// Cancellation latency is bounded by the solver's poll granularity
// (cluster splits, DP tables): the full tier threads ctx all the way
// down, and a cancelled DP surrenders its best-so-far incumbent via
// hgp.Solver.AllowPartial rather than discarding completed trees.
func Solve(ctx context.Context, g *graph.Graph, H *hierarchy.Hierarchy, opts Options) (*Outcome, error) {
	if g == nil || g.N() == 0 {
		return nil, errors.New("anytime: empty graph")
	}
	out := &Outcome{}
	for t := TierFullDP; t < numTiers; t++ {
		out.Reports[t] = TierReport{Tier: t, Name: t.String(), State: StateSkipped}
	}

	// raceCtx stops a still-running baseline once the full tier has
	// delivered a complete result.
	raceCtx, stopRace := context.WithCancel(ctx)
	defer stopRace()

	ch := make(chan attempt, int(numTiers))
	launched := 0
	launch := func(t Tier, run func(context.Context) (*hgp.Result, error)) {
		if opts.Only != nil && *opts.Only != t {
			return
		}
		launched++
		tierCtx := context.WithValue(raceCtx, tierCtxKey{}, t)
		go func() {
			start := time.Now()
			res, err := runContained(tierCtx, run)
			ch <- attempt{tier: t, res: res, err: err, elapsed: time.Since(start)}
		}()
	}

	solveDP := opts.SolveDP
	if solveDP == nil {
		solveDP = func(ctx context.Context, g *graph.Graph, H *hierarchy.Hierarchy, sv hgp.Solver) (*hgp.Result, error) {
			return sv.SolveContext(ctx, g, H)
		}
	}

	fullSv := opts.Solver
	fullSv.AllowPartial = true
	// The full tier runs under a deadline, so it adopts portfolio pruning:
	// the returned placement is bit-identical (pinned by the hgp identity
	// battery) but multi-tree solves finish sooner, which is exactly what
	// a race against the clock wants.
	fullSv.Prune = true

	launch(TierFullDP, func(ctx context.Context) (*hgp.Result, error) {
		return solveDP(ctx, g, H, fullSv)
	})
	launch(TierBaseline, func(ctx context.Context) (*hgp.Result, error) {
		return solveBaseline(ctx, g, H, opts.Solver.Seed)
	})
	if launched == 0 {
		return nil, errors.New("anytime: no tier enabled")
	}

	// The selection's feasibility line: the full tier guarantees capacity
	// violation ≤ 1+eps, the baseline does not, and a rung that cheats
	// on capacity must never outrank one inside the guarantee on cost
	// alone.
	eps := opts.Solver.Eps
	if eps == 0 {
		eps = 0.5
	}
	feasLimit := 1 + eps + 1e-9

	// Collect every launched tier. There is no abandon-and-leak escape
	// hatch: tiers return promptly after cancellation because ctx is
	// polled at every cluster split and inside every DP merge, and
	// stopRace is fired the moment the full tier completes so losers
	// stop burning CPU.
	var best *attempt
	for i := 0; i < launched; i++ {
		a := <-ch
		rep := &out.Reports[a.tier]
		rep.ElapsedMS = float64(a.elapsed.Microseconds()) / 1000
		switch {
		case a.err != nil && ctx.Err() == nil &&
			(errors.Is(a.err, context.Canceled) || errors.Is(a.err, context.DeadlineExceeded)):
			rep.State = StateSuperseded
		case a.err != nil:
			rep.State = StateFailed
			rep.Error = a.err.Error()
		case a.res.Partial:
			rep.State = StatePartial
			rep.Cost = a.res.Cost
		default:
			rep.State = StateCompleted
			rep.Cost = a.res.Cost
		}
		if a.err == nil {
			a := a
			if best == nil || better(&a, best, feasLimit) {
				best = &a
			}
			if a.tier == TierFullDP && !a.res.Partial {
				stopRace()
			}
		}
	}

	if best == nil {
		// Every tier failed. Prefer a real solver error over the bare
		// context error so callers see the root cause.
		var firstErr error
		for t := TierFullDP; t < numTiers; t++ {
			if e := out.Reports[t].Error; e != "" && firstErr == nil {
				firstErr = errors.New(e)
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("anytime: no tier finished before deadline: %w", err)
		}
		if firstErr == nil {
			firstErr = errors.New("anytime: all tiers failed")
		}
		return nil, firstErr
	}

	out.Result = best.res
	out.Tier = best.tier
	out.Reports[best.tier].State = StateWon
	out.Degraded = best.tier != TierFullDP || best.res.Partial
	return out, nil
}

type tierCtxKey struct{}

// TierFromContext reports which ladder tier the context belongs to. The
// context handed to each tier's execution (and therefore to
// Options.SolveDP) carries its Tier, so instrumented backends — a
// tracer naming its spans, say — can tell the racing attempts apart
// without threading extra state.
func TierFromContext(ctx context.Context) (Tier, bool) {
	t, ok := ctx.Value(tierCtxKey{}).(Tier)
	return t, ok
}

// better reports whether a beats b in the selection order: inside the
// solver's (1+eps) capacity guarantee before outside it, then lower
// cost, then complete over partial, then the higher-quality (lower)
// tier. The feasibility rank comes first because the baseline rung has
// no bicriteria guarantee — it can undercut the full tier on cost by
// overloading capacity, and that trade must never win.
func better(a, b *attempt, feasLimit float64) bool {
	if af, bf := maxViol(a.res) <= feasLimit, maxViol(b.res) <= feasLimit; af != bf {
		return af
	}
	if a.res.Cost != b.res.Cost {
		return a.res.Cost < b.res.Cost
	}
	if a.res.Partial != b.res.Partial {
		return !a.res.Partial
	}
	return a.tier < b.tier
}

func maxViol(r *hgp.Result) float64 {
	worst := 0.0
	for _, v := range r.Violation {
		if v > worst {
			worst = v
		}
	}
	return worst
}

// attempt is one tier's outcome inside the race.
type attempt struct {
	tier    Tier
	res     *hgp.Result
	err     error
	elapsed time.Duration
}

// runContained executes one tier with panic containment: a panicking
// tier (solver bug, injected fault) reports an error instead of
// unwinding its goroutine and killing the process.
func runContained(ctx context.Context, run func(context.Context) (*hgp.Result, error)) (res *hgp.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("anytime: tier panicked: %v", r)
		}
	}()
	res, err = run(ctx)
	if err == nil && (res == nil || !res.Assignment.Complete()) {
		return nil, errors.New("anytime: tier returned an incomplete placement")
	}
	return res, err
}

// solveBaseline is the cheapest rung: hierarchy-aware dual recursive
// bipartitioning, polished with one bounded local-refinement pass on
// small instances. It is deterministic per seed and — unlike the full
// tier — runs to completion even when ctx has already expired: this
// rung is the ladder's floor, the reason "some valid placement" can be
// promised at all. DualRecursive is not cheap at the top of the
// admitted range (0.10 s at n = 2048, 12 s at n = 32768 on sparse
// community graphs); only the optional polish pass yields to ctx.
func solveBaseline(ctx context.Context, g *graph.Graph, H *hierarchy.Hierarchy, seed int64) (*hgp.Result, error) {
	rng := rand.New(rand.NewSource(seed))
	assign := baseline.DualRecursive(rng, g, H)
	// The polish's swap sweep is O(n²·deg): one pass took 0.17 s at
	// n = 512 and 2.65 s at n = 2048 on sparse community graphs. It
	// stops when ctx is done (the deadline, or a completed full tier)
	// and keeps the moves made so far. Above the gate one pass would
	// outlast most deadlines.
	if g.N() <= 2048 {
		assign = baseline.RefineLocal(ctx, g, H, assign, 1.0, 1)
	}
	if err := assign.Validate(g, H); err != nil {
		return nil, fmt.Errorf("anytime: baseline produced invalid placement: %w", err)
	}
	return &hgp.Result{
		Assignment: assign,
		Cost:       metrics.CostLCA(g, H, assign),
		TreeIndex:  -1,
		Violation:  metrics.Violation(g, H, assign),
	}, nil
}
