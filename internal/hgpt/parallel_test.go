package hgpt

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"hierpart/internal/gen"
	"hierpart/internal/hierarchy"
)

// TestSolveWorkersBitIdentical: the concurrent scheduler must reproduce
// the sequential solver bit for bit — costs, state counts, assignments,
// and both families — at every worker count, across tree shapes and
// hierarchies. Sharding is forced down to tiny tables so the
// cross-product merge path is exercised even on fuzz-sized instances.
func TestSolveWorkersBitIdentical(t *testing.T) {
	old := shardMinPairs
	shardMinPairs = 1
	defer func() { shardMinPairs = old }()

	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		tr := fuzzTree(rng, 8)
		h := fuzzHierarchies[trial%len(fuzzHierarchies)]
		base, err := Solver{Eps: 0.5, Workers: 1}.Solve(tr, h)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, w := range []int{2, 4, 8} {
			got, err := Solver{Eps: 0.5, Workers: w}.Solve(tr, h)
			if err != nil {
				t.Fatalf("trial %d workers %d: %v", trial, w, err)
			}
			if got.DPCost != base.DPCost || got.Cost != base.Cost ||
				got.States != base.States || got.Unit != base.Unit ||
				got.ScaledTotal != base.ScaledTotal {
				t.Fatalf("trial %d workers %d: scalars differ: %+v vs %+v", trial, w, got, base)
			}
			if !reflect.DeepEqual(got.Assignment, base.Assignment) {
				t.Fatalf("trial %d workers %d: assignment differs", trial, w)
			}
			if !reflect.DeepEqual(got.Relaxed, base.Relaxed) {
				t.Fatalf("trial %d workers %d: relaxed family differs", trial, w)
			}
			if !reflect.DeepEqual(got.Strict, base.Strict) {
				t.Fatalf("trial %d workers %d: strict family differs", trial, w)
			}
		}
	}
}

// TestShardedCrossMatchesSequential fuzzes the sharded cross-product
// merge directly against the sequential per-node tables: for random
// instances, runTables with forced sharding must produce byte-identical
// tables (same keys, same entries, same backpointers) at every node.
func TestShardedCrossMatchesSequential(t *testing.T) {
	old := shardMinPairs
	shardMinPairs = 1
	defer func() { shardMinPairs = old }()

	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 60; trial++ {
		tr := fuzzTree(rng, 10)
		h := fuzzHierarchies[trial%len(fuzzHierarchies)]
		s := Solver{Eps: 0.5}
		dpSeq, _, err := s.newRun(tr, h)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Pruning off so every merge candidate survives into the
		// comparison, not just the Pareto frontier.
		seqTabs, seqStates, err := dpSeq.runTables(context.Background(), 1, 0, false)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, w := range []int{2, 3, 8} {
			dpPar, _, err := s.newRun(tr, h)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			parTabs, parStates, err := dpPar.runTables(context.Background(), w, 0, false)
			if err != nil {
				t.Fatalf("trial %d workers %d: %v", trial, w, err)
			}
			if seqStates != parStates {
				t.Fatalf("trial %d workers %d: states %d vs %d", trial, w, parStates, seqStates)
			}
			for v := range seqTabs {
				if !reflect.DeepEqual(parTabs[v], seqTabs[v]) {
					t.Fatalf("trial %d workers %d: table at node %d differs:\npar %v\nseq %v",
						trial, w, v, parTabs[v], seqTabs[v])
				}
			}
		}
	}
}

// exhaustiveTable is a reference merge that enumerates the FULL
// (j1, j2, sp) combo space — no region-depth reduction, no projections.
// The production loops skip combinations proven equivalent to a
// retained one (cut thresholds past the region depth, spontaneous
// prefixes swallowed by kept child regions); this oracle pins that
// proof: both must build bit-identical tables.
func exhaustiveTable(d *dpRun, v int, tabs []*dpTable) *dpTable {
	h := d.h
	if d.bt.IsLeaf(v) {
		return d.table(v, tabs, d.loadBound())
	}
	maxSp := h
	if d.noZeroRegions {
		maxSp = 0
	}
	parent := make([]int, h+1)
	sc := d.scratch.Get().(*dpScratch)
	out := sc.idx
	kids := d.bt.Children(v)
	if len(kids) == 1 {
		c1 := kids[0]
		w1 := d.bt.EdgeWeight(c1)
		s1 := make([]int, h+1)
		for _, r1 := range tabs[c1].rows {
			k1, e1 := r1.key, r1.entry
			d.codec.decode(k1, s1)
			for j1 := 0; j1 <= h; j1++ {
				for sp := 0; sp <= maxSp; sp++ {
					cost, ok := d.mergeLevel(parent, w1, s1, j1, sp, nil, 0, 0)
					if !ok {
						continue
					}
					putEntry(out, d.codec.encode(parent), entry{
						cost: e1.cost + cost, s1: k1, j1: int8(j1), kind: 1,
					})
				}
			}
		}
		return d.freeze(sc)
	}
	c1, c2 := kids[0], kids[1]
	w1, w2 := d.bt.EdgeWeight(c1), d.bt.EdgeWeight(c2)
	s1, s2 := make([]int, h+1), make([]int, h+1)
	for _, r1 := range tabs[c1].rows {
		k1, e1 := r1.key, r1.entry
		d.codec.decode(k1, s1)
		for _, r2 := range tabs[c2].rows {
			k2, e2 := r2.key, r2.entry
			d.codec.decode(k2, s2)
			for j1 := 0; j1 <= h; j1++ {
				for j2 := 0; j2 <= h; j2++ {
					for sp := 0; sp <= maxSp; sp++ {
						cost, ok := d.mergeLevel(parent, w1, s1, j1, sp, s2, w2, j2)
						if !ok {
							continue
						}
						putEntry(out, d.codec.encode(parent), entry{
							cost: e1.cost + e2.cost + cost,
							s1:   k1, s2: k2, j1: int8(j1), j2: int8(j2), kind: 2,
						})
					}
				}
			}
		}
	}
	return d.freeze(sc)
}

// mergeLevel derives the parent signature for the child states s1 (and
// s2 when non-nil) under cut thresholds j1, j2 and spontaneous-region
// depth sp, writing it into parent and returning the boundary cost. It
// returns ok=false when the combination is invalid: a zero-demand region
// cannot be cut off (its mirror component would contain no member leaf)
// and merged demands must respect the scaled capacities. It is the
// exhaustive reference's per-level merge rule; the production merges
// precompute the same charges per group pair (dpRun.charge) and build
// parent keys from packed fields.
//
// Per-level charging: a child edge carries no charge at level k only
// when the child's region merges through it (k ≤ jᵢ and a region is
// present below). Otherwise it is charged Δ(k)·w once if it closes a
// demand-carrying child set (boundary of the closed mirror) and once
// more if the parent has a level-k region (boundary of the region
// containing v) — Δ(k) = (cm(k−1)−cm(k))/2 being the per-side share of
// the Equation (3) objective.
func (d *dpRun) mergeLevel(parent []int, w1 float64, s1 []int, j1, sp int, s2 []int, w2 float64, j2 int) (float64, bool) {
	var cost float64
	for k := 1; k <= d.h; k++ {
		x1 := s1[k]
		kept1 := k <= j1
		if !kept1 && x1 == 1 {
			return 0, false // cutting off a zero-demand region
		}
		merged1 := kept1 && x1 >= 1
		flag := merged1 || k <= sp
		pd := 0
		if merged1 {
			pd = x1 - 1
		}

		var x2 int
		var merged2 bool
		if s2 != nil {
			x2 = s2[k]
			kept2 := k <= j2
			if !kept2 && x2 == 1 {
				return 0, false
			}
			merged2 = kept2 && x2 >= 1
			flag = flag || merged2
			if merged2 {
				pd += x2 - 1
			}
		}

		if pd > d.capS[k] {
			return 0, false
		}
		if flag {
			parent[k] = pd + 1
		} else {
			parent[k] = 0
		}

		if dl := d.delta[k]; dl != 0 {
			if !merged1 {
				if !kept1 && x1 > 1 {
					cost += w1 * dl // closed child set boundary
				}
				if flag && !d.literalEq4 {
					cost += w1 * dl // parent region boundary
				}
			}
			if s2 != nil && !merged2 {
				if k > j2 && x2 > 1 {
					cost += w2 * dl
				}
				if flag && !d.literalEq4 {
					cost += w2 * dl
				}
			}
		}
	}
	parent[0] = 0
	return cost, true
}

// TestReducedMergeMatchesExhaustive fuzzes the production merge loops
// (region-depth-capped thresholds, deduplicated spontaneous depths,
// unchanged-signature fast path) against the exhaustive reference at
// every node of every instance, with pruning off so full tables are
// compared. Run across the ablation flags too, since they change which
// combos are legal.
func TestReducedMergeMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		tr := fuzzTree(rng, 9)
		h := fuzzHierarchies[trial%len(fuzzHierarchies)]
		for _, s := range []Solver{
			{Eps: 0.5},
			{Eps: 0.5, AblateNoZeroRegions: true},
			{Eps: 0.5, AblateLiteralEq4: true},
		} {
			d, _, err := s.newRun(tr, h)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			got, _, err := d.runTables(context.Background(), 1, 0, false)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			dRef, _, err := s.newRun(tr, h)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			want := make([]*dpTable, dRef.bt.N())
			for _, v := range dRef.bt.PostOrder() {
				want[v] = exhaustiveTable(dRef, v, want)
			}
			for v := range want {
				if !reflect.DeepEqual(got[v], want[v]) {
					t.Fatalf("trial %d solver %+v: node %d table differs from exhaustive reference:\ngot  %v\nwant %v",
						trial, s, v, got[v], want[v])
				}
			}
		}
	}
}

// TestWorkersMaxStatesGuard: the budget guard trips under the concurrent
// scheduler too, and an over-budget instance errors at every worker
// count.
func TestWorkersMaxStatesGuard(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := gen.RandomTree(rng, 40, 5, 0.05, 0.95)
	h := hierarchy.MustNew([]int{4, 2}, []float64{5, 2, 0})
	for _, w := range []int{1, 2, 4, 8} {
		if _, err := (Solver{Eps: 0.25, MaxStates: 100, Workers: w}).Solve(tr, h); err == nil {
			t.Fatalf("workers %d: tiny state budget must trip", w)
		}
	}
}
