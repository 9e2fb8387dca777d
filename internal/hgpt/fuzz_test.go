package hgpt

import (
	"cmp"
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"hierpart/internal/gen"
	"hierpart/internal/hierarchy"
	"hierpart/internal/laminar"
	"hierpart/internal/tree"
)

// fuzzHierarchies cover heights 1..3, mixed degrees, tied and strict
// cost multipliers.
var fuzzHierarchies = []*hierarchy.Hierarchy{
	hierarchy.FlatKWay(2),
	hierarchy.FlatKWay(5),
	hierarchy.MustNew([]int{2, 3}, []float64{7, 2, 0}),
	hierarchy.MustNew([]int{3, 2}, []float64{4, 4, 0}),
	hierarchy.MustNew([]int{2, 2, 2}, []float64{9, 5, 2, 0}),
	hierarchy.MustNew([]int{2, 2, 3}, []float64{6, 6, 6, 0}),
}

// fuzzTree draws a random tree with exact-multiple demands so ε = 0.5
// scaling is lossless.
func fuzzTree(rng *rand.Rand, maxLeaves int) *tree.Tree {
	for {
		tr := gen.RandomTree(rng, 2+rng.Intn(2*maxLeaves), 9, 0.1, 0.9)
		leaves := tr.Leaves()
		if len(leaves) < 2 || len(leaves) > maxLeaves {
			continue
		}
		q := 2 * len(leaves)
		for _, l := range leaves {
			tr.SetDemand(l, float64(1+rng.Intn(q))/float64(q))
		}
		return tr
	}
}

// TestSolveInvariantBattery fuzzes the solver across tree shapes and
// hierarchies and checks every structural contract at once.
func TestSolveInvariantBattery(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const eps = 0.5
	for trial := 0; trial < 120; trial++ {
		tr := fuzzTree(rng, 8)
		h := fuzzHierarchies[trial%len(fuzzHierarchies)]
		sol, err := Solver{Eps: eps}.Solve(tr, h)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		leaves := tr.Leaves()

		// 1. Assignment covers every leaf with an in-range H-leaf.
		if len(sol.Assignment) != len(leaves) {
			t.Fatalf("trial %d: %d assigned, want %d", trial, len(sol.Assignment), len(leaves))
		}
		for _, l := range leaves {
			hl, ok := sol.Assignment[l]
			if !ok || hl < 0 || hl >= h.Leaves() {
				t.Fatalf("trial %d: leaf %d assigned to %d", trial, l, hl)
			}
		}

		// 2. Relaxed family validates under (1+ε) capacity slack. When
		// the instance is overloaded (total demand F·CP(0), F > 1), the
		// level-0 set is the whole instance and the per-level repacking
		// bound becomes (1+ε)(F+j) — the Theorem 5 recursion started
		// from V(0) = F·CP(0).
		overload := tr.TotalDemand() / h.Cap(0)
		if overload < 1 {
			overload = 1
		}
		capRel := make([]float64, h.Height()+1)
		capStrict := make([]float64, h.Height()+1)
		for j := range capRel {
			capRel[j] = 1 + eps
			capStrict[j] = (1 + eps) * (overload + float64(j))
		}
		capRel[0] = (1 + eps) * overload
		if err := sol.Relaxed.Validate(h, leaves, tr.Demand, laminar.Options{
			Relaxed: true, CapFactor: capRel,
		}); err != nil {
			t.Fatalf("trial %d relaxed: %v", trial, err)
		}

		// 3. Strict family validates under Theorem 5 bounds with H-nodes.
		if err := sol.Strict.Validate(h, leaves, tr.Demand, laminar.Options{
			CapFactor: capStrict, CheckHNodes: true,
		}); err != nil {
			t.Fatalf("trial %d strict: %v", trial, err)
		}

		// 4. Repacking never raises cost; DP cost matches the relaxed
		//    family's Equation (3) evaluation (lossless scaling).
		if sol.Cost > sol.DPCost+1e-9 {
			t.Fatalf("trial %d: strict cost %v > DP cost %v", trial, sol.Cost, sol.DPCost)
		}
		if rc := FamilyCost(tr, h, sol.Relaxed); math.Abs(rc-sol.DPCost) > 1e-6 {
			t.Fatalf("trial %d: relaxed family cost %v != DP cost %v", trial, rc, sol.DPCost)
		}

		// 5. The assignment's own mirror cost never beats the strict
		//    family cost by more than tie-breaking noise (the assignment
		//    realizes the strict family).
		ac := AssignmentCost(tr, h, sol.Assignment)
		if ac > sol.Cost+1e-9 {
			t.Fatalf("trial %d: assignment cost %v > strict family cost %v", trial, ac, sol.Cost)
		}
	}
}

// TestAblatedSolversStillStructurallySound: the E11 ablation variants
// compute wrong costs by design, but their solutions must still be
// structurally valid families.
func TestAblatedSolversStillStructurallySound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const eps = 0.5
	variants := []Solver{
		{Eps: eps, AblateLiteralEq4: true},
		{Eps: eps, AblateNoZeroRegions: true},
	}
	for trial := 0; trial < 30; trial++ {
		tr := fuzzTree(rng, 6)
		h := fuzzHierarchies[trial%len(fuzzHierarchies)]
		for vi, s := range variants {
			sol, err := s.Solve(tr, h)
			if err != nil {
				t.Fatalf("trial %d variant %d: %v", trial, vi, err)
			}
			overload := tr.TotalDemand() / h.Cap(0)
			if overload < 1 {
				overload = 1
			}
			capRel := make([]float64, h.Height()+1)
			for j := range capRel {
				capRel[j] = 1 + eps
			}
			capRel[0] = (1 + eps) * overload
			if err := sol.Relaxed.Validate(h, tr.Leaves(), tr.Demand, laminar.Options{
				Relaxed: true, CapFactor: capRel,
			}); err != nil {
				t.Fatalf("trial %d variant %d: %v", trial, vi, err)
			}
		}
	}
}

// TestMaxStatesGuard: the state budget aborts cleanly.
func TestMaxStatesGuard(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := gen.RandomTree(rng, 40, 5, 0.05, 0.95)
	h := hierarchy.MustNew([]int{4, 2}, []float64{5, 2, 0})
	_, err := Solver{Eps: 0.25, MaxStates: 100}.Solve(tr, h)
	if err == nil {
		t.Fatal("tiny state budget must trip")
	}
}

// TestDeterministicAcrossRuns: identical inputs give identical solutions
// (tie-breaking is canonical, independent of map iteration order).
func TestDeterministicAcrossRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tr := fuzzTree(rng, 8)
	h := hierarchy.MustNew([]int{2, 2}, []float64{6, 2, 0})
	a, err := Solver{Eps: 0.5}.Solve(tr, h)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 5; run++ {
		b, err := Solver{Eps: 0.5}.Solve(tr, h)
		if err != nil {
			t.Fatal(err)
		}
		if a.DPCost != b.DPCost || a.Cost != b.Cost {
			t.Fatalf("run %d: costs differ", run)
		}
		for l, hl := range a.Assignment {
			if b.Assignment[l] != hl {
				t.Fatalf("run %d: assignment differs at leaf %d", run, l)
			}
		}
	}
}

// FuzzBoundedTable pins the bound-first merges to the exhaustive oracle
// under a ceiling. The children's tables are built unbounded with
// pruning off; then at every internal node the node's table is built
// under eff = min + frac·(max − min) of its exhaustive table's costs,
// and under +Inf, three ways:
//
//   - the production table;
//   - round-robin shards (2 and 3 of them) folded together;
//   - the exhaustive table filtered to cost ≤ eff.
//
// All three must be equal: the scans that stop at the first row above
// the ceiling may skip only candidates the filter drops, and every
// insertion (the one-child unchanged-signature case included) must
// honour the ceiling.
//
// shift crafts rounding ties. When shift%3 is 1 or 2, one child table
// (child (shift/3) mod the child count) gets 2⁵³ or 3·2⁵² added to every
// cost and is re-sorted into (cost, key) order. Near 2⁵³ the float
// spacing is 2 or more, so rows of one projection group with distinct
// costs make candidate sums that round to the same value. The exhaustive
// merge then keeps the tied candidate with the smallest key, which need
// not be the group representative's: the projected merge must find it by
// walking the tie.
func FuzzBoundedTable(f *testing.F) {
	for hi := range fuzzHierarchies {
		for _, frac := range []float64{0, 0.5, 1} {
			f.Add(int64(hi+1), uint8(hi), frac, uint8(0))
		}
		for _, shift := range []uint8{1, 2, 4, 5} {
			f.Add(int64(hi+1), uint8(hi), 1.0, shift)
		}
		// Trees 15 and 38 with the second child shifted hold a slot that
		// a tied dearer row wins on key, on five of the six hierarchies.
		for _, seed := range []int64{15, 38} {
			for _, shift := range []uint8{4, 5} {
				f.Add(seed, uint8(hi), 1.0, shift)
			}
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, hier uint8, frac float64, shift uint8) {
		if math.IsNaN(frac) || math.IsInf(frac, 0) {
			return
		}
		if frac = math.Abs(frac); frac > 1 {
			frac = math.Mod(frac, 1)
		}
		tr := fuzzTree(rand.New(rand.NewSource(seed)), 8)
		h := fuzzHierarchies[int(hier)%len(fuzzHierarchies)]
		d, _, err := Solver{Eps: 0.5}.newRun(tr, h)
		if err != nil {
			t.Fatal(err)
		}
		tabs, _, err := d.runTables(context.Background(), 1, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		by := [3]float64{0, 1 << 53, 3 << 52}[shift%3]
		for _, v := range d.bt.PostOrder() {
			if d.bt.IsLeaf(v) {
				continue
			}
			if by == 0 {
				checkBoundedNode(t, d, v, tabs, frac)
				continue
			}
			kids := d.bt.Children(v)
			c := kids[int(shift/3)%len(kids)]
			orig := tabs[c]
			tabs[c] = shiftedTable(d, orig, by)
			checkBoundedNode(t, d, v, tabs, frac)
			tabs[c] = orig
		}
	})
}

// checkBoundedNode is FuzzBoundedTable's check at internal node v.
func checkBoundedNode(t *testing.T, d *dpRun, v int, tabs []*dpTable, frac float64) {
	t.Helper()
	kids := d.bt.Children(v)
	ex := exhaustiveTable(d, v, tabs)
	if len(ex.rows) == 0 {
		return
	}
	lo, hi := ex.rows[0].cost, ex.rows[len(ex.rows)-1].cost
	for _, eff := range []float64{lo + frac*(hi-lo), math.Inf(1)} {
		// Rows are cost-sorted, so the filtered oracle is a prefix.
		n := 0
		for n < len(ex.rows) && ex.rows[n].cost <= eff {
			n++
		}
		want := d.newTable(ex.rows[:n])
		if got := d.table(v, tabs, eff); !reflect.DeepEqual(got, want) {
			t.Fatalf("node %d (%d children), ceiling %v: table differs from filtered exhaustive table:\ngot  %v\nwant %v",
				v, len(kids), eff, got.rows, want.rows)
		}
		if len(kids) != 2 {
			continue
		}
		for _, shards := range []int{2, 3} {
			if got := shardedTable(d, tabs, kids[0], kids[1], shards, eff); !reflect.DeepEqual(got, want) {
				t.Fatalf("node %d, %d shards, ceiling %v: folded table differs from filtered exhaustive table:\ngot  %v\nwant %v",
					v, shards, eff, got.rows, want.rows)
			}
		}
	}
}

// shiftedTable returns tab with by added to every cost, re-sorted into
// (cost, key) order and re-projected.
func shiftedTable(d *dpRun, tab *dpTable, by float64) *dpTable {
	rows := slices.Clone(tab.rows)
	for i := range rows {
		rows[i].cost += by
	}
	slices.SortFunc(rows, func(a, b tableRow) int {
		if c := cmp.Compare(a.cost, b.cost); c != 0 {
			return c
		}
		return cmp.Compare(a.key, b.key)
	})
	return d.newTable(rows)
}

// shardedTable builds a two-child node's table the way the scheduler
// shards it: shard i merges rows i, i+S, i+2S, … of c1's table into its
// own build index under one shared ceiling, and the partials are folded.
func shardedTable(d *dpRun, tabs []*dpTable, c1, c2, shards int, eff float64) *dpTable {
	parts := make([]*dpScratch, shards)
	for i := range parts {
		parts[i] = d.scratch.Get().(*dpScratch)
		d.crossInto(parts[i], tabs[c1], d.bt.EdgeWeight(c1), i, shards, tabs[c2], d.bt.EdgeWeight(c2), eff)
	}
	return d.fold(parts)
}
