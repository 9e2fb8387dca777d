package hgp

import (
	"context"
	"math"
	"testing"

	"hierpart/internal/treedecomp"
)

// Concurrent-portfolio identity battery (ISSUE 6). The concurrent
// pruned portfolio (trees racing under a shared live bound, post-hoc
// reduction) must be bit-identical to the sequential pruned portfolio
// in every determinism-contract field: placement, Cost, TreeCost,
// TreeIndex, PerTreeCosts (including sentinel classes), TreesPruned,
// TreesDone. States and TreeStats wall times are explicitly outside
// the contract. Run with -race and GOMAXPROCS ≥ 4 in CI so cross-tree
// tightening actually interleaves.

// assertContractEqual compares every determinism-contract field of two
// results; States and TreeStats timings are deliberately not compared.
func assertContractEqual(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Cost != want.Cost || got.TreeCost != want.TreeCost || got.TreeIndex != want.TreeIndex {
		t.Fatalf("%s: winner differs: got (cost=%v treeCost=%v tree=%d), want (cost=%v treeCost=%v tree=%d)",
			label, got.Cost, got.TreeCost, got.TreeIndex, want.Cost, want.TreeCost, want.TreeIndex)
	}
	for v := range want.Assignment {
		if got.Assignment[v] != want.Assignment[v] {
			t.Fatalf("%s: assignment differs at vertex %d: %d vs %d",
				label, v, got.Assignment[v], want.Assignment[v])
		}
	}
	if got.TreesPruned != want.TreesPruned || got.TreesDone != want.TreesDone {
		t.Fatalf("%s: pruned/done = %d/%d, want %d/%d",
			label, got.TreesPruned, got.TreesDone, want.TreesPruned, want.TreesDone)
	}
	if len(got.PerTreeCosts) != len(want.PerTreeCosts) {
		t.Fatalf("%s: per-tree cost lengths differ: %d vs %d",
			label, len(got.PerTreeCosts), len(want.PerTreeCosts))
	}
	for i := range want.PerTreeCosts {
		gi, wi := got.PerTreeCosts[i], want.PerTreeCosts[i]
		switch {
		case math.IsNaN(wi):
			if !math.IsNaN(gi) {
				t.Fatalf("%s: tree %d = %v, want NaN", label, i, gi)
			}
		case gi != wi: // exact, covers +Inf (pruned) and finite costs alike
			t.Fatalf("%s: tree %d = %v, want %v", label, i, gi, wi)
		}
	}
}

// TestConcurrentPruneIdentityBattery pins the tentpole's acceptance
// claim on the small-n battery: across every generator and worker
// split, the default concurrent portfolio matches the sequential
// portfolio bit for bit. Below pruneMinN the bound is inactive, so
// this exercises the race/reduction plumbing itself (ordering, worker
// split, outcome bookkeeping) rather than live tightening — the
// at-scale test below covers that.
func TestConcurrentPruneIdentityBattery(t *testing.T) {
	for _, tc := range batteryInstances() {
		seq, err := Solver{Trees: 4, Seed: 5, Workers: 1, Prune: true}.Solve(tc.g, tc.h)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, w := range []int{1, 2, 4, 8} {
			got, err := Solver{Trees: 4, Seed: 5, Workers: w, Prune: true}.Solve(tc.g, tc.h)
			if err != nil {
				t.Fatalf("%s workers %d: %v", tc.name, w, err)
			}
			assertContractEqual(t, tc.name, got, seq)
		}
	}
}

// TestConcurrentPruneIdentityAtScale is the battery in the regime where
// the shared bound is LIVE (n ≥ pruneMinN) and the pruned set is
// guaranteed non-empty (8×-weights sabotaged clone), so the post-hoc
// reduction is exercised with teeth: whichever trees the race aborts,
// the reduction must reconstruct exactly the sequential pruned set.
func TestConcurrentPruneIdentityAtScale(t *testing.T) {
	seeds := []int64{29}
	if !testing.Short() {
		seeds = append(seeds, 53, 97)
	}
	for _, seed := range seeds {
		g, h := scaleInstance(seed, 128)
		s := Solver{Eps: 0.5, Trees: 3, Seed: 4, Prune: true}
		dec := treedecomp.Build(g, s.DecompOptions())
		dec.Trees = append(dec.Trees, cloneScaled(dec.Trees[1], 8))

		s.Workers = 1
		seq, err := s.SolveDecomposition(context.Background(), g, h, dec)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if seq.TreesPruned == 0 {
			t.Fatalf("seed %d: sabotaged clone not pruned — battery is vacuous", seed)
		}
		for _, w := range []int{2, 4, 8} {
			s.Workers = w
			got, err := s.SolveDecomposition(context.Background(), g, h, dec)
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, w, err)
			}
			assertContractEqual(t, "at-scale", got, seq)
			if got.ParallelTrees < 2 {
				t.Fatalf("seed %d workers %d: ParallelTrees = %d, want ≥ 2 (concurrent mode)",
					seed, w, got.ParallelTrees)
			}
		}
	}
}

// TestStatesOutsideDeterminismContract pins the Result.States
// re-documentation (ISSUE 6 satellite): under the concurrent portfolio
// the state count may vary run to run — so the test solves the same
// instance repeatedly and asserts every CONTRACT field is stable while
// never comparing States across runs. It also sanity-checks that
// States stays positive and bounded by the unpruned run's count (live
// bounds only ever filter states away from completed tables).
func TestStatesOutsideDeterminismContract(t *testing.T) {
	g, h := scaleInstance(29, 128)
	s := Solver{Eps: 0.5, Trees: 3, Seed: 4, Workers: 4}
	dec := treedecomp.Build(g, s.DecompOptions())
	dec.Trees = append(dec.Trees, cloneScaled(dec.Trees[1], 8))

	unpruned, err := s.SolveDecomposition(context.Background(), g, h, dec)
	if err != nil {
		t.Fatal(err)
	}
	s.Prune = true
	var ref *Result
	for run := 0; run < 3; run++ {
		got, err := s.SolveDecomposition(context.Background(), g, h, dec)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if got.States <= 0 || got.States > unpruned.States {
			t.Fatalf("run %d: States = %d, want in (0, %d]", run, got.States, unpruned.States)
		}
		if ref == nil {
			ref = got
			continue
		}
		assertContractEqual(t, "repeat-run", got, ref)
	}
}

// TestTreeStatsConsistent: TreeStats must agree index-by-index with the
// PerTreeCosts sentinels in both portfolio modes (4 workers race the
// trees, 1 runs them one at a time), and record sane wall times and
// abort fractions.
func TestTreeStatsConsistent(t *testing.T) {
	g, h := scaleInstance(29, 128)
	s := Solver{Eps: 0.5, Trees: 3, Seed: 4, Prune: true}
	dec := treedecomp.Build(g, s.DecompOptions())
	dec.Trees = append(dec.Trees, cloneScaled(dec.Trees[1], 8))

	for _, w := range []int{4, 1} {
		s.Workers = w
		got, err := s.SolveDecomposition(context.Background(), g, h, dec)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.TreeStats) != len(got.PerTreeCosts) {
			t.Fatalf("workers=%d: %d tree stats for %d trees", w, len(got.TreeStats), len(got.PerTreeCosts))
		}
		for i, st := range got.TreeStats {
			c := got.PerTreeCosts[i]
			var want string
			switch {
			case math.IsNaN(c):
				want = "failed"
			case math.IsInf(c, 1):
				want = "pruned"
			default:
				want = "done"
			}
			if st.Outcome != want {
				t.Fatalf("workers=%d tree %d: outcome %q, cost %v implies %q", w, i, st.Outcome, c, want)
			}
			if st.WallMS < 0 || st.AbortFrac < 0 || st.AbortFrac > 1 {
				t.Fatalf("workers=%d tree %d: wallMS %v abortFrac %v out of range", w, i, st.WallMS, st.AbortFrac)
			}
			if st.Outcome == "done" && st.AbortFrac != 1 {
				t.Fatalf("workers=%d tree %d: done tree abortFrac %v, want 1", w, i, st.AbortFrac)
			}
		}
	}
}
