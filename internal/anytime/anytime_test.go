package anytime

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"hierpart/internal/baseline"
	"hierpart/internal/faultinject"
	"hierpart/internal/gen"
	"hierpart/internal/graph"
	"hierpart/internal/hgp"
	"hierpart/internal/hierarchy"
	"hierpart/internal/metrics"
)

// testInstance is sized so every tier is feasible with slack: total
// demand is half the leaf capacity, so a valid placement always has
// violation ≤ 1.
func testInstance(seed int64, n int) (*graph.Graph, *hierarchy.Hierarchy) {
	rng := rand.New(rand.NewSource(seed))
	g := gen.Community(rng, 4, n/4, 0.4, 0.02, 8, 1)
	for v := 0; v < g.N(); v++ {
		g.SetDemand(v, 0.1)
	}
	return g, hierarchy.NUMASockets(4, n/8)
}

func assertValid(t *testing.T, g *graph.Graph, H *hierarchy.Hierarchy, out *Outcome) {
	t.Helper()
	if out == nil || out.Result == nil {
		t.Fatal("nil outcome")
	}
	if !out.Result.Assignment.Complete() {
		t.Fatalf("tier %s returned incomplete placement", out.Tier)
	}
	if err := out.Result.Assignment.Validate(g, H); err != nil {
		t.Fatalf("tier %s returned invalid placement: %v", out.Tier, err)
	}
	if out.Result.Cost != metrics.CostLCA(g, H, out.Result.Assignment) {
		t.Fatalf("tier %s cost %v inconsistent with assignment", out.Tier, out.Result.Cost)
	}
}

func TestFullTierWinsWithAmpleBudget(t *testing.T) {
	g, H := testInstance(1, 32)
	out, err := Solve(context.Background(), g, H, Options{Solver: hgp.Solver{Trees: 2, Seed: 1, Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	assertValid(t, g, H, out)
	if out.Tier != TierFullDP || out.Degraded {
		t.Fatalf("tier = %s degraded=%v, want undegraded full_dp (reports %+v)", out.Tier, out.Degraded, out.Reports)
	}
	if out.Reports[TierFullDP].State != StateWon {
		t.Fatalf("full tier report = %+v, want won", out.Reports[TierFullDP])
	}
	// Full pipeline results must match a direct solve bit-for-bit: the
	// ladder must not perturb the paper pipeline's determinism.
	direct, err := hgp.Solver{Trees: 2, Seed: 1, Workers: 1}.Solve(g, H)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Cost != out.Result.Cost {
		t.Fatalf("ladder full result %v != direct solve %v", out.Result.Cost, direct.Cost)
	}
}

func TestExpiredDeadlineStillReturnsBaseline(t *testing.T) {
	g, H := testInstance(2, 32)
	// A deadline that has effectively already passed: the DP tier cannot
	// finish, the heuristic rung must still hand back a placement.
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	out, err := Solve(ctx, g, H, Options{Solver: hgp.Solver{Trees: 4, Seed: 1, Workers: 1}})
	if err != nil {
		// The baseline rung ignores the (already expired) deadline by
		// design — it is the ladder's floor — so failure here means the
		// floor gave way.
		t.Fatalf("ladder returned %v under expired deadline, want baseline result", err)
	}
	assertValid(t, g, H, out)
	if !out.Degraded {
		t.Fatal("expired deadline cannot yield an undegraded result")
	}
}

func TestDPFailureFallsBackToBaseline(t *testing.T) {
	boom := errors.New("decomposition exploded")
	in := faultinject.New(3).On(faultinject.TreedecompSplit, faultinject.Fault{Prob: 1, Err: boom})
	t.Cleanup(faultinject.Activate(in))

	g, H := testInstance(3, 32)
	out, err := Solve(context.Background(), g, H, Options{Solver: hgp.Solver{Trees: 2, Seed: 1, Workers: 1}})
	if err != nil {
		t.Fatalf("ladder = %v, want baseline fallback", err)
	}
	assertValid(t, g, H, out)
	if out.Tier != TierBaseline || !out.Degraded {
		t.Fatalf("tier = %s, want baseline (reports %+v)", out.Tier, out.Reports)
	}
	if out.Reports[TierFullDP].State != StateFailed {
		t.Fatalf("full tier state = %s, want failed", out.Reports[TierFullDP].State)
	}
}

func TestOnlyRestrictsLadder(t *testing.T) {
	g, H := testInstance(4, 32)
	only := TierBaseline
	out, err := Solve(context.Background(), g, H, Options{Solver: hgp.Solver{Trees: 2, Seed: 1}, Only: &only})
	if err != nil {
		t.Fatal(err)
	}
	assertValid(t, g, H, out)
	if out.Tier != TierBaseline {
		t.Fatalf("tier = %s, want baseline", out.Tier)
	}
	if st := out.Reports[TierFullDP].State; st != StateSkipped {
		t.Fatalf("full tier state = %s, want skipped", st)
	}

	only = TierFullDP
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	if _, err := Solve(ctx, g, H, Options{Solver: hgp.Solver{Trees: 2, Seed: 1}, Only: &only}); err == nil {
		t.Fatal("full-only ladder with expired deadline must fail (no fallback rung)")
	}
}

// The floor's polish pass is O(n²·deg) — seconds at n = 2048 — so it
// must stop at the deadline: only DualRecursive itself may run past it.
func TestFloorPolishHonoursDeadline(t *testing.T) {
	const n = 2048
	g := gen.Community(rand.New(rand.NewSource(1)), n/32, 32, 0.2, 0.0003, 8, 1)
	gen.EqualDemands(g, 8.0/n)
	H := hierarchy.NUMASockets(4, 4)

	start := time.Now()
	baseline.DualRecursive(rand.New(rand.NewSource(1)), g, H)
	dualRecursive := time.Since(start)

	const deadline = 200 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	only := TierBaseline
	start = time.Now()
	out, err := Solve(ctx, g, H, Options{Solver: hgp.Solver{Seed: 1}, Only: &only})
	late := time.Since(start) - deadline
	if err != nil {
		t.Fatal(err)
	}
	assertValid(t, g, H, out)
	if margin := 100 * time.Millisecond; late > dualRecursive+margin {
		t.Fatalf("baseline-only ladder answered %v past a %v deadline; DualRecursive alone takes %v", late, deadline, dualRecursive)
	}
}

// The full tier is the only DP rung: the ladder calls SolveDP exactly
// once per request, with the caller's whole worker budget.
func TestFullTierKeepsWorkerBudget(t *testing.T) {
	g, H := testInstance(6, 32)
	var calls atomic.Int32
	var workers atomic.Int64
	opts := Options{
		Solver: hgp.Solver{Trees: 4, Seed: 1, Workers: 3},
		SolveDP: func(ctx context.Context, g *graph.Graph, H *hierarchy.Hierarchy, sv hgp.Solver) (*hgp.Result, error) {
			calls.Add(1)
			workers.Store(int64(sv.Workers))
			return sv.SolveContext(ctx, g, H)
		},
	}
	out, err := Solve(context.Background(), g, H, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertValid(t, g, H, out)
	if n := calls.Load(); n != 1 {
		t.Fatalf("SolveDP called %d times, want 1", n)
	}
	if w := workers.Load(); w != 3 {
		t.Fatalf("full tier ran with %d workers, want the whole budget of 3", w)
	}
	if len(out.Reports) != 2 || out.Reports[0].Name != "full_dp" || out.Reports[1].Name != "baseline" {
		t.Fatalf("reports = %+v, want full_dp then baseline", out.Reports)
	}
}

func TestTierNamesRoundTrip(t *testing.T) {
	for tr := TierFullDP; tr < numTiers; tr++ {
		back, err := ParseTier(tr.String())
		if err != nil || back != tr {
			t.Fatalf("ParseTier(%q) = %v, %v", tr.String(), back, err)
		}
	}
	if _, err := ParseTier("bogus"); err == nil {
		t.Fatal("ParseTier must reject unknown names")
	}
}

// A panicking injected DPFunc must not kill the ladder.
func TestTierPanicContained(t *testing.T) {
	g, H := testInstance(5, 32)
	opts := Options{
		Solver: hgp.Solver{Trees: 2, Seed: 1},
		SolveDP: func(ctx context.Context, g *graph.Graph, H *hierarchy.Hierarchy, sv hgp.Solver) (*hgp.Result, error) {
			panic("DP exploded")
		},
	}
	out, err := Solve(context.Background(), g, H, opts)
	if err != nil {
		t.Fatalf("ladder = %v, want baseline fallback after DP panic", err)
	}
	assertValid(t, g, H, out)
	if out.Tier != TierBaseline {
		t.Fatalf("tier = %s, want baseline", out.Tier)
	}
}

// Selection must rank capacity feasibility above cost: a rung outside
// the solver's (1+eps) guarantee never beats one inside it, however
// cheap, and only inside the same feasibility class does cost decide.
func TestBetterPrefersFeasibleOverCheaper(t *testing.T) {
	const feasLimit = 1.5
	mk := func(tier Tier, cost, viol float64, partial bool) *attempt {
		return &attempt{tier: tier, res: &hgp.Result{Cost: cost, Violation: []float64{viol}, Partial: partial}}
	}
	feasible := mk(TierFullDP, 100, 1.2, false)
	cheater := mk(TierBaseline, 50, 2.0, false)
	if better(cheater, feasible, feasLimit) {
		t.Fatal("capacity-violating rung outranked a feasible one on cost")
	}
	if !better(feasible, cheater, feasLimit) {
		t.Fatal("feasible rung must beat a capacity-violating cheaper one")
	}
	// Same feasibility class: cost decides.
	cheapFeasible := mk(TierBaseline, 50, 1.4, false)
	if !better(cheapFeasible, feasible, feasLimit) {
		t.Fatal("within the guarantee, lower cost must win")
	}
	// Equal cost: complete beats partial, then lower tier breaks ties.
	partial := mk(TierFullDP, 50, 1.0, true)
	if !better(cheapFeasible, partial, feasLimit) {
		t.Fatal("complete must beat partial at equal cost")
	}
	if !better(mk(TierFullDP, 50, 1.0, false), cheapFeasible, feasLimit) {
		t.Fatal("at equal cost and state, the higher-quality tier must win")
	}
}
