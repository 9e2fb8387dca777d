package experiments

import (
	"context"
	"math/rand"
	"time"

	"hierpart/internal/anytime"
	"hierpart/internal/gen"
	"hierpart/internal/hgp"
	"hierpart/internal/hierarchy"
)

// E22AnytimeLadder measures the degradation ladder: the same instance
// solved under shrinking wall-clock budgets, recording which tier wins,
// its cost relative to the unconstrained full pipeline, and how fast
// the answer came back. The expectation is a graceful quality/latency
// trade: the full pipeline under no budget, its partial incumbent when
// some trees finish in time, and the heuristic floor — at a bounded
// cost penalty — when the budget is far below the DP's needs.
//
// Config.Budget, when non-zero, replaces the default budget sweep with
// that single deadline (the hgpbench -budget flag); Config.Tier
// restricts the ladder to one rung (-tier).
func E22AnytimeLadder(cfg Config) *Table {
	t := &Table{
		ID:    "E22",
		Title: "Anytime degradation ladder under shrinking budgets",
		Columns: []string{"budget", "tier", "degraded", "partial",
			"trees done", "cost", "vs full", "viol", "elapsed_ms"},
		Notes: "expected: full_dp at generous budgets (ratio 1, viol ≤ 1+eps), baseline floor at starvation budgets with a modest cost penalty — and never an error",
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 22))
	h := hierarchy.NUMASockets(4, 4)
	scale := cfg.pick(1, 3)
	g := gen.Community(rng, 4, 16*scale, 0.5, 0.02, 10, 1)
	gen.EqualDemands(g, 0.6*float64(h.Leaves())/float64(g.N()))

	sv := hgp.Solver{Eps: 0.25, Trees: 4, Seed: cfg.Seed + 22, Workers: cfg.Workers, Prune: cfg.Prune}
	opts := anytime.Options{Solver: sv}
	if cfg.Tier != "" {
		tier, err := anytime.ParseTier(cfg.Tier)
		if err != nil {
			t.Notes = err.Error()
			return t
		}
		opts.Only = &tier
	}

	// Reference: the unconstrained full pipeline.
	full, err := sv.Solve(g, h)
	if err != nil {
		t.Notes = "full pipeline failed: " + err.Error()
		return t
	}

	budgets := []time.Duration{0, 500 * time.Millisecond, 50 * time.Millisecond, time.Millisecond}
	if cfg.Budget > 0 {
		budgets = []time.Duration{cfg.Budget}
	}
	for _, budget := range budgets {
		ctx := context.Background()
		label := "none"
		if budget > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, budget)
			label = budget.String()
			defer cancel()
		}
		start := time.Now()
		out, err := anytime.Solve(ctx, g, h, opts)
		elapsed := time.Since(start)
		if err != nil {
			t.AddRow(label, "error: "+err.Error(), "", "", "", "", "", "", float64(elapsed.Microseconds())/1000)
			continue
		}
		viol := 0.0
		for _, v := range out.Result.Violation {
			if v > viol {
				viol = v
			}
		}
		t.AddRow(label, out.Tier.String(), out.Degraded, out.Result.Partial,
			out.Result.TreesDone, out.Result.Cost, out.Result.Cost/full.Cost,
			viol, float64(elapsed.Microseconds())/1000)
	}
	return t
}
