package hgp

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"hierpart/internal/faultinject"
	"hierpart/internal/gen"
	"hierpart/internal/hierarchy"
	"hierpart/internal/treedecomp"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// cancelAfterFirstTree makes the next solve cancel right after its
// first tree is solved, checking that the tree completed. With one
// worker the trees run in order, so at least one tree is guaranteed
// done and the rest are guaranteed never started.
func cancelAfterFirstTree(t *testing.T, cancel context.CancelFunc) {
	afterTree = func(o *treeOut) {
		if o.err != nil {
			t.Errorf("first tree = %v, want a completed tree before the cancel", o.err)
		}
		cancel()
	}
	t.Cleanup(func() { afterTree = nil })
}

// A cancelled solve with AllowPartial surrenders the best incumbent
// among completed trees instead of the context error. Cancellation is
// triggered right after the first tree, so at least one tree is
// guaranteed done and at least one is guaranteed not started (Workers=1
// serializes the trees).
func TestAllowPartialSurrendersIncumbent(t *testing.T) {
	g := gen.Community(newRand(1), 4, 16, 0.3, 0.02, 8, 1)
	for v := 0; v < g.N(); v++ {
		g.SetDemand(v, 0.05)
	}
	H := hierarchy.NUMASockets(4, 4)
	dec := treedecomp.Build(g, treedecomp.Options{Trees: 4, Seed: 1})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sv := Solver{Trees: 4, Seed: 1, Workers: 1, AllowPartial: true}
	cancelAfterFirstTree(t, cancel) // surrender after the first completed tree
	res, err := sv.SolveDecomposition(ctx, g, H, dec)
	if err != nil {
		t.Fatalf("AllowPartial solve after cancellation = %v, want incumbent", err)
	}
	if !res.Partial {
		t.Fatal("result not marked Partial")
	}
	if res.TreesDone == 0 || res.TreesDone >= 4 {
		t.Fatalf("TreesDone = %d, want in [1, 3] (cancelled mid-run)", res.TreesDone)
	}
	if !res.Assignment.Complete() {
		t.Fatal("partial result has unassigned vertices")
	}
	if err := res.Assignment.Validate(g, H); err != nil {
		t.Fatalf("partial assignment invalid: %v", err)
	}
	nan := 0
	for _, c := range res.PerTreeCosts {
		if math.IsNaN(c) {
			nan++
		}
	}
	if nan != 4-res.TreesDone {
		t.Fatalf("NaN sentinels = %d, want %d (unfinished trees)", nan, 4-res.TreesDone)
	}
}

// Without AllowPartial, cancellation keeps the historical contract:
// always the context error, never a timing-dependent partial result.
func TestCancelledWithoutAllowPartialReturnsError(t *testing.T) {
	g := gen.Community(newRand(1), 4, 16, 0.3, 0.02, 8, 1)
	for v := 0; v < g.N(); v++ {
		g.SetDemand(v, 0.05)
	}
	H := hierarchy.NUMASockets(4, 4)
	dec := treedecomp.Build(g, treedecomp.Options{Trees: 4, Seed: 1})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sv := Solver{Trees: 4, Seed: 1, Workers: 1}
	cancelAfterFirstTree(t, cancel)
	if _, err := sv.SolveDecomposition(ctx, g, H, dec); err == nil {
		t.Fatal("cancelled solve without AllowPartial returned a result")
	}
}

// A panic inside one tree's DP (injected at the hgpt.table hook) is
// contained to that tree: the remaining trees still produce a complete
// result, with the NaN sentinel marking the errored tree.
func TestTreePanicContained(t *testing.T) {
	in := faultinject.New(1).On(faultinject.HgptTable, faultinject.Fault{Prob: 1, Count: 1, PanicMsg: "mid-DP"})
	t.Cleanup(faultinject.Activate(in))

	g := gen.Community(newRand(1), 4, 8, 0.3, 0.02, 8, 1)
	for v := 0; v < g.N(); v++ {
		g.SetDemand(v, 0.1)
	}
	H := hierarchy.NUMASockets(4, 2)
	res, err := Solver{Trees: 3, Seed: 1, Workers: 1}.Solve(g, H)
	if err != nil {
		t.Fatalf("solve with one panicking tree = %v, want contained", err)
	}
	nan := 0
	for _, c := range res.PerTreeCosts {
		if math.IsNaN(c) {
			nan++
		}
	}
	if nan != 1 {
		t.Fatalf("NaN sentinels = %d, want exactly 1 (the panicked tree)", nan)
	}
	if !res.Assignment.Complete() {
		t.Fatal("result incomplete despite surviving trees")
	}
}

// When every tree panics, the panic surfaces as an ordinary error whose
// message names the cause — never an unwound goroutine.
func TestAllTreesPanicBecomesError(t *testing.T) {
	in := faultinject.New(1).On(faultinject.HgptTable, faultinject.Fault{Prob: 1, PanicMsg: "mid-DP"})
	t.Cleanup(faultinject.Activate(in))

	g := gen.Community(newRand(1), 4, 8, 0.3, 0.02, 8, 1)
	for v := 0; v < g.N(); v++ {
		g.SetDemand(v, 0.1)
	}
	H := hierarchy.NUMASockets(4, 2)
	_, err := Solver{Trees: 2, Seed: 1, Workers: 2}.Solve(g, H)
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("err = %v, want panic-derived error", err)
	}
}
