package hgpt

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hierpart/internal/hierarchy"
	"hierpart/internal/laminar"
	"hierpart/internal/telemetry"
	"hierpart/internal/tree"
)

// Solver configures the HGPT algorithm.
type Solver struct {
	// Eps is the demand-rounding parameter ε of §3: demands are scaled
	// to integer multiples of ε/n. Smaller values round more finely but
	// enlarge the DP state space as D = Θ(n²/ε). Zero means 0.5.
	Eps float64
	// MaxStates aborts the run with an error when the cumulative DP
	// table size exceeds it — a guard against pathological instances
	// (many distinct demands at small ε on tall hierarchies). Zero means
	// unlimited.
	MaxStates int
	// Workers bounds the number of goroutines the DP scheduler uses to
	// solve sibling subtrees concurrently and to shard large child-table
	// cross-products (see scheduler.go). Zero or 1 means sequential.
	// Results are bit-identical at every worker count: equal-cost merge
	// candidates resolve by the canonical entryLess order, which is
	// independent of evaluation order.
	Workers int

	// The two fields below disable the corrections this reproduction
	// had to make to the paper's literal text (DESIGN.md §5.0). They
	// exist ONLY for the ablation experiment E11 — production callers
	// must leave them false.

	// AblateLiteralEq4 charges cut edges exactly as Equation (4) prints
	// them: once, for the closed child-side set — omitting the charge
	// for the boundary of the active region containing v.
	AblateLiteralEq4 bool
	// AblateNoZeroRegions forbids zero-demand mirror regions (the
	// paper's "D = 0 ⇒ no active set" reading), removing the solver's
	// ability to route a set's mirror through leaf-free subtrees.
	AblateNoZeroRegions bool
	// DisablePruning turns off dominance pruning of DP tables (see
	// prune.go). Pruning never changes the optimum — the flag exists for
	// the E20 ablation that measures its effect on state counts.
	DisablePruning bool

	// Bound, when non-nil, is an incumbent cost ceiling: DP entries
	// whose partial objective strictly exceeds its current value are
	// dropped (ties are kept), because per-level merge increments are
	// never negative — Δ(k) = (cm(k−1)−cm(k))/2 ≥ 0 on a non-increasing
	// cm — so a partial above the bound can only grow. Every insertion
	// checks the ceiling, and because finished tables are cost-sorted,
	// the merge scans stop at the first child row above it instead of
	// enumerating candidates the filter would drop. When filtering under
	// a finite ceiling empties a table (or leaves no valid root
	// signature), the solve aborts with a *BoundError wrapping
	// ErrBoundExceeded instead of finishing a tree that cannot beat the
	// incumbent.
	//
	// The bound is RE-READ at the run's existing poll points — once per
	// table, once per sharded node — so a shared bound tightened by a
	// concurrent tree (internal/hgp's parallel portfolio) bites mid-DP.
	// Because CostBound is monotone non-increasing and children complete
	// before their parents, a run that completes is still bit-identical
	// to its unbounded solve at every worker count (see CostBound); only
	// whether it completes — and the surviving States count — can depend
	// on when the bound tightened. A bound that stays +Inf for the whole
	// run is bit-identical to no bound.
	Bound *CostBound

	// Reuse, when non-nil, serves per-node tables cached from a previous
	// solve by structural subtree hash and repopulates the cache with
	// this solve's tables on success — the incremental repartitioning
	// path (see TableCache). Reuse composes with Bound: a cached table
	// is the full unbounded table for its subtree (a superset of what a
	// bounded run would build), so serving it under a bound is sound —
	// superfluous entries are filtered at the parent merges, and the
	// completed-run bit-identity invariant is unchanged. Repopulation,
	// however, only happens on unbounded runs: bound-filtered tables are
	// schedule-dependent subsets and must never enter the cache.
	Reuse *TableCache
}

// Solution is the result of solving HGPT on a tree.
type Solution struct {
	// Assignment maps every leaf of the input tree to a hierarchy leaf.
	Assignment map[int]int
	// Relaxed is the optimal RHGPT family found by the DP (leaf IDs are
	// input-tree leaves; no H-nodes, refinement width unbounded).
	Relaxed *laminar.Family
	// Strict is the repacked HGPT family (Theorem 5): refinement width
	// ≤ DEG(j) and H-nodes assigned at every level.
	Strict *laminar.Family
	// DPCost is the optimal relaxed cost computed by the DP in scaled
	// capacity space.
	DPCost float64
	// Cost is the Equation (3) cost of the final strict family on the
	// input tree (never more than DPCost: repacking merges only).
	Cost float64
	// Unit is the demand scaling unit ε/n.
	Unit float64
	// ScaledTotal is D, the total scaled demand, which drives DP size.
	ScaledTotal int
	// States is the total number of DP table entries created (experiment
	// E8 measures how it scales with n, D, and h). Tables served from a
	// Solver.Reuse cache count their entries exactly as a fresh run
	// would, so States — and MaxStates trips — are identical warm or
	// cold.
	States int
	// TablesReused and TablesComputed partition the binarized tree's
	// nodes by whether their table came from the Solver.Reuse cache or
	// was computed this run (both zero when Reuse is nil).
	TablesReused   int
	TablesComputed int
}

type entry struct {
	cost   float64
	s1, s2 uint64
	j1, j2 int8
	kind   byte // 0 = leaf, 1 = one child, 2 = two children
}

// entryLess is the canonical order among equal-cost entries.
func entryLess(a, b entry) bool {
	if a.s1 != b.s1 {
		return a.s1 < b.s1
	}
	if a.s2 != b.s2 {
		return a.s2 < b.s2
	}
	if a.j1 != b.j1 {
		return a.j1 < b.j1
	}
	return a.j2 < b.j2
}

// sigCodec packs a signature (levels 1..h) into a uint64 key.
type sigCodec struct {
	h    int
	bits uint
	mask uint64
}

func newSigCodec(h, maxVal int) (sigCodec, error) {
	bits := uint(1)
	for 1<<bits <= maxVal {
		bits++
	}
	if uint(h)*bits > 64 {
		return sigCodec{}, fmt.Errorf("hgpt: signature space too large: %d levels × %d bits > 64 (reduce n or increase ε)", h, bits)
	}
	return sigCodec{h: h, bits: bits, mask: 1<<bits - 1}, nil
}

// encode packs sig[1..h] (index 0 ignored).
func (c sigCodec) encode(sig []int) uint64 {
	var k uint64
	for j := 1; j <= c.h; j++ {
		k = k<<c.bits | uint64(sig[j])
	}
	return k
}

// decode unpacks into out[1..h]; out must have length h+1.
func (c sigCodec) decode(k uint64, out []int) {
	for j := c.h; j >= 1; j-- {
		out[j] = int(k & c.mask)
		k >>= c.bits
	}
	out[0] = 0
}

// Solve partitions the leaves of t across the leaves of H. The tree may
// have arbitrary fanout (it is binarized internally with infinite-weight
// dummy edges, which no finite-cost solution cuts) and leaf demands in
// (0, 1]. It returns an error when a single leaf demand exceeds leaf
// capacity, or when the scaled state space cannot be encoded.
// Cancellable callers should use SolveContext.
func (s Solver) Solve(t *tree.Tree, H *hierarchy.Hierarchy) (*Solution, error) {
	return s.SolveContext(context.Background(), t, H)
}

// SolveContext is Solve with cancellation: the DP stops at the next
// table completion (or shard completion, under the concurrent
// scheduler) once ctx is done and returns the context's error, so a
// dead client or an expired deadline stops burning the worker budget
// mid-solve. On success the DP duration is recorded in
// telemetry.Default under phase_dp_seconds.
func (s Solver) SolveContext(ctx context.Context, t *tree.Tree, H *hierarchy.Hierarchy) (*Solution, error) {
	start := time.Now()
	dp, origOf, err := s.newRun(t, H)
	if err != nil {
		return nil, err
	}
	// Reuse lookups are sound under a bound: a cached table is the full
	// unbounded (dominance-pruned) table for its subtree, a superset of
	// what a bounded run would build, and superfluous entries are
	// filtered at the parent merges by the same effBound logic. Only
	// repopulation stays gated to unbounded runs (below).
	if s.Reuse != nil {
		dp.attachReuse(s.Reuse, !s.DisablePruning)
	}
	tabs, states, err := dp.runTables(ctx, s.Workers, s.MaxStates, !s.DisablePruning)
	if err != nil {
		return nil, err
	}
	bt := dp.bt

	// The root's rows are in (cost, key) order, so its first valid row is
	// the optimum with ties broken by key: the chosen solution does not
	// depend on evaluation order (results must be deterministic per seed).
	rootTab := tabs[bt.Root()]
	best := -1
	for i := range rootTab.rows {
		if validRoot(rootTab.sig(i, dp.h+1)) {
			best = i
			break
		}
	}
	if best < 0 {
		if !math.IsInf(dp.minApplied(), 1) {
			// A finite ceiling was applied somewhere: every completion was
			// filtered by the incumbent bound (or, corner case, the tree
			// was infeasible to begin with — see ErrBoundExceeded). A
			// bound source that stayed +Inf for the whole run never
			// filtered anything and falls through to the infeasible error.
			return nil, dp.boundErr(bt.N())
		}
		return nil, errors.New("hgpt: no feasible relaxed solution (demand exceeds total capacity)")
	}
	bestKey, bestCost := rootTab.rows[best].key, rootTab.rows[best].cost

	relaxedBT := dp.reconstruct(tabs, bestKey)
	relaxed := relabelFamily(relaxedBT, t, origOf)
	strict := Repack(relaxed, H)
	assignment, err := strict.LeafAssignment()
	if err != nil {
		return nil, err
	}

	telemetry.ObserveDuration("phase_dp_seconds", time.Since(start))
	reused, computed := 0, 0
	if s.Reuse != nil {
		if s.Bound == nil {
			// Bound-filtered tables are schedule-dependent subsets, not
			// pure subtree optima, so only unbounded runs refresh the
			// cache generation; bounded runs consume but never write.
			s.Reuse.repopulate(dp, tabs)
		}
		reused = int(dp.reused.Load())
		computed = bt.N() - reused
	}
	return &Solution{
		Assignment:     assignment,
		Relaxed:        relaxed,
		Strict:         strict,
		DPCost:         bestCost,
		Cost:           FamilyCost(t, H, strict),
		Unit:           dp.unit,
		ScaledTotal:    dp.total,
		States:         states,
		TablesReused:   reused,
		TablesComputed: computed,
	}, nil
}

// validRoot reports whether a root signature can be completed: a
// zero-demand region at the root would be a mirror piece that belongs to
// no set.
func validRoot(sig []int) bool {
	for _, x := range sig[1:] {
		if x == 1 {
			return false
		}
	}
	return true
}

type dpRun struct {
	bt            *tree.Tree
	h             int
	codec         sigCodec
	capS          []int
	delta         []float64
	du            []int // scaled leaf demand, indexed by binarized node ID
	unit          float64
	total         int
	boundSrc      *CostBound // live incumbent ceiling (nil = unbounded)
	literalEq4    bool       // ablation: Equation (4) verbatim
	noZeroRegions bool       // ablation: forbid zero-demand mirror regions
	pruneOn       bool       // dominance-prune every table as it freezes

	// applied tracks (as float bits) the tightest bound value loadBound
	// has returned: the fact an abort proves (optimum > minApplied), and
	// the discriminator between "bound exceeded" and "infeasible" at the
	// root. Atomic because scheduler workers load concurrently.
	applied atomic.Uint64

	// Table-reuse state (see reuse.go): per-node structural hashes, the
	// run identity the hashes are valid under, the previous generation's
	// tables (nil = cold or identity mismatch), and the hit counter.
	// reused is atomic because scheduler workers hit concurrently.
	hashes    []string
	reuseSig  string
	reuseTabs map[string]*dpTable
	reused    atomic.Int64

	// scratch pools the per-merge signature buffers and the build index
	// so the DP inner loop allocates nothing per child-signature pair and
	// a run grows its index maps once rather than per table (shared
	// safely by the concurrent scheduler: each borrower holds a distinct
	// scratch).
	scratch sync.Pool
}

// dpScratch is one borrower's working set. idx is the build index of
// the node being merged: a map from signature key to its best entry so
// far, frozen into a dpTable (and cleared) when the node completes. The
// remaining buffers are freeze's and prune's (see prune.go): the
// collected rows, their sort records, and one run's compressed second
// demands and Fenwick tree.
type dpScratch struct {
	sig    []int
	parent []int
	idx    map[uint64]entry
	rows   []tableRow
	recs   []pruneRec
	ys     []uint64
	fw     minFenwick
}

// newRun scales the instance and assembles the immutable DP context
// shared by the sequential walk and the concurrent scheduler. The
// second return value is the binarized→original node map.
func (s Solver) newRun(t *tree.Tree, H *hierarchy.Hierarchy) (*dpRun, []int, error) {
	eps := s.Eps
	if eps == 0 {
		eps = 0.5
	}
	if eps < 0 {
		return nil, nil, errors.New("hgpt: Eps must be positive")
	}
	h := H.Height()

	n := len(t.Leaves())
	if n == 0 {
		return nil, nil, errors.New("hgpt: tree has no leaves")
	}

	bt, origOf := t.Binarize()
	leaves := bt.Leaves()
	unit := eps / float64(n)

	// Scaled integer demands and capacities.
	// The 1e-9 guard keeps exact multiples of the unit exact despite
	// binary floating point (0.7/0.1 = 6.999…), so that demands which
	// are representable round-trip losslessly.
	du := make([]int, bt.N())
	total := 0
	for _, l := range leaves {
		d := int(bt.Demand(l)/unit + 1e-9)
		if d < 1 {
			d = 1
		}
		du[l] = d
		total += d
	}
	capS := make([]int, h+1)
	for j := 1; j <= h; j++ {
		capS[j] = int(H.Cap(j)/unit + 1e-9)
	}
	for _, l := range leaves {
		if du[l] > capS[h] {
			return nil, nil, fmt.Errorf("hgpt: leaf demand %v exceeds leaf capacity after scaling", bt.Demand(l))
		}
	}

	// Per-level encoded values: 0 = no region, 1 = region with demand 0,
	// d+1 = region with demand d. Hence the alphabet tops out at total+1.
	codec, err := newSigCodec(h, total+1)
	if err != nil {
		return nil, nil, err
	}
	delta := make([]float64, h+1)
	for j := 1; j <= h; j++ {
		delta[j] = (H.CM(j-1) - H.CM(j)) / 2
	}

	dp := &dpRun{
		bt: bt, h: h, codec: codec, capS: capS, delta: delta, du: du,
		unit: unit, total: total, boundSrc: s.Bound,
		literalEq4: s.AblateLiteralEq4, noZeroRegions: s.AblateNoZeroRegions,
	}
	// No bound value applied yet: the tracker starts at +Inf and records
	// every live value the run filters under (see loadBound).
	dp.applied.Store(math.Float64bits(math.Inf(1)))
	dp.scratch.New = func() any {
		return &dpScratch{sig: make([]int, h+1), parent: make([]int, h+1), idx: map[uint64]entry{}}
	}
	return dp, origOf, nil
}

// putEntry installs e under key in a build index, keeping the
// lexicographic minimum of (cost, s1, s2, j1, j2). Equal-cost ties break
// on the backpointer tuple so the table's contents never depend on
// evaluation order: the whole pipeline stays deterministic per seed even
// when subtrees solve concurrently and cross-products are sharded across
// workers.
func putEntry(out map[uint64]entry, key uint64, e entry) {
	if math.IsInf(e.cost, 1) || math.IsNaN(e.cost) {
		return
	}
	old, ok := out[key]
	if !ok || e.cost < old.cost || (e.cost == old.cost && entryLess(e, old)) {
		out[key] = e
	}
}

// regionDepth returns the deepest level at which the signature has a
// region. Regions always occupy a level prefix 1..m: leaves open a
// region at every level, and a merge's level-k region exists iff a
// child region merges through (k ≤ jᵢ, itself prefix-bounded by the
// child's own depth) or a spontaneous region covers it (k ≤ sp) — all
// unions of prefixes. The merge loops exploit this: cut thresholds
// j > m are indistinguishable from j = m (no region to keep or cut at
// the extra levels), and entryLess already canonicalizes equal-cost
// winners to the smallest threshold, so iterating j ≤ m (and skipping
// sp values whose spontaneous prefix is swallowed by the merged one)
// drops only candidates that lose — or exactly tie with identical
// backpointers — leaving every table bit-identical.
func regionDepth(sig []int) int {
	m := len(sig) - 1
	for m >= 1 && sig[m] == 0 {
		m--
	}
	return m
}

// table computes node v's DP table. effBound is the entry ceiling for
// this node: the incumbent bound minus an admissible lower bound on the
// cost every completion must still pay in subtrees disjoint from v
// (futureMin; +Inf ceiling when unbounded). Tightening the ceiling per
// node never changes the solve's outcome — see the invariant note on
// futureMin in scheduler.go.
func (d *dpRun) table(v int, tabs []*dpTable, effBound float64) *dpTable {
	sc := d.scratch.Get().(*dpScratch)
	if d.bt.IsLeaf(v) {
		sig := sc.sig
		for j := 1; j <= d.h; j++ {
			sig[j] = d.du[v] + 1 // region carrying the leaf's demand
		}
		key := d.codec.encode(sig)
		d.scratch.Put(sc)
		return d.newTable([]tableRow{{key: key, entry: entry{kind: 0}}})
	}
	kids := d.bt.Children(v)
	switch len(kids) {
	case 1:
		d.oneChildTable(sc, kids[0], tabs[kids[0]], effBound)
	case 2:
		c1, c2 := kids[0], kids[1]
		d.crossInto(sc, tabs[c1], d.bt.EdgeWeight(c1), 0, 1, tabs[c2], d.bt.EdgeWeight(c2), effBound)
	default:
		panic("hgpt: tree not binarized")
	}
	return d.freeze(sc)
}

// oneChildTable merges a single child table upward into the build index
// sc.idx (c1 is v's only child, tab its table). Rows arrive cost-sorted
// and merge increments are never negative, so the scan stops at the
// first row above the ceiling: none of its candidates — the
// unchanged-signature fast path's included — could pass the filter.
func (d *dpRun) oneChildTable(sc *dpScratch, c1 int, tab *dpTable, effBound float64) {
	h := d.h
	stride := h + 1
	w1 := d.bt.EdgeWeight(c1)
	out, parent := sc.idx, sc.parent
	maxSp := h
	if d.noZeroRegions {
		maxSp = 0
	}
	for i1 := range tab.rows {
		k1, base := tab.rows[i1].key, tab.rows[i1].cost
		if base > effBound {
			break
		}
		s1 := tab.sig(i1, stride)
		// j1 = deepest level at which the child edge is kept;
		// sp = deepest level with a spontaneously opened region at v.
		// Thresholds past the child's region depth are equivalent to the
		// depth itself, and spontaneous prefixes swallowed by the kept
		// child region (sp ≤ j1) duplicate sp = 0 — see regionDepth.
		m1 := tab.depth[i1]
		for j1 := 0; j1 <= m1; j1++ {
			for sp := 0; sp <= maxSp; {
				if j1 == m1 && sp == 0 {
					// Keeping the whole region prefix with no spontaneous
					// region leaves the signature unchanged at zero cost
					// (every level either merges or stays empty) — reuse
					// the child's key instead of re-encoding.
					putEntry(out, k1, entry{cost: base, s1: k1, j1: int8(m1), kind: 1})
					sp = j1 + 1
					continue
				}
				cost, ok := d.mergeLevel(parent, w1, s1, j1, sp, nil, 0, 0)
				// Partials strictly above the node's ceiling are dropped
				// (ties kept): merge increments are never negative and the
				// futureMin term is admissible, so they cannot complete
				// under the incumbent. +Inf ceiling keeps all.
				if ok && base+cost <= effBound {
					putEntry(out, d.codec.encode(parent), entry{
						cost: base + cost,
						s1:   k1, j1: int8(j1), kind: 1,
					})
				}
				if sp == 0 {
					sp = j1 + 1
				} else {
					sp++
				}
			}
		}
	}
}

// crossInto merges rows start, start+step, start+2·step, … of child
// table t1 against all of t2, writing parent entries into the build
// index sc.idx. Both tables are cost-sorted and merge increments are
// never negative (and float addition is monotone), so a row's partner
// scan stops at the first c1 + c2 above the ceiling, and the row scan
// ends once even t2's cheapest row overshoots: every skipped candidate
// is one the ceiling filter would drop. The scheduler shards a large
// node by dealing t1's rows round-robin (step = shard count), so every
// shard gets a share of the cheap rows that survive the ceiling; the
// row partition never changes the merged result because putEntry keeps
// a total-order minimum per key.
func (d *dpRun) crossInto(sc *dpScratch, t1 *dpTable, w1 float64, start, step int, t2 *dpTable, w2 float64, effBound float64) {
	if len(t2.rows) == 0 {
		return
	}
	h := d.h
	stride := h + 1
	maxSp := h
	if d.noZeroRegions {
		maxSp = 0
	}
	out, parent := sc.idx, sc.parent
	min2 := t2.rows[0].cost
	for i1 := start; i1 < len(t1.rows); i1 += step {
		k1, c1 := t1.rows[i1].key, t1.rows[i1].cost
		if c1+min2 > effBound {
			break
		}
		s1 := t1.sig(i1, stride)
		m1 := t1.depth[i1]
		for i2 := range t2.rows {
			base := c1 + t2.rows[i2].cost
			if base > effBound {
				break
			}
			s2 := t2.sig(i2, stride)
			k2 := t2.rows[i2].key
			m2 := t2.depth[i2]
			// Cut thresholds past each child's region depth duplicate the
			// depth itself, and spontaneous prefixes swallowed by the kept
			// child regions (sp ≤ max(j1, j2)) duplicate sp = 0 — see
			// regionDepth. Skipping them changes nothing in the tables.
			for j1 := 0; j1 <= m1; j1++ {
				for j2 := 0; j2 <= m2; j2++ {
					p := j1
					if j2 > p {
						p = j2
					}
					for sp := 0; sp <= maxSp; {
						cost, ok := d.mergeLevel(parent, w1, s1, j1, sp, s2, w2, j2)
						// Ceiling filter mirrors oneChildTable: drop partials
						// strictly above the node's ceiling, keep ties.
						if ok && base+cost <= effBound {
							putEntry(out, d.codec.encode(parent), entry{
								cost: base + cost,
								s1:   k1, s2: k2, j1: int8(j1), j2: int8(j2), kind: 2,
							})
						}
						if sp == 0 {
							sp = p + 1
						} else {
							sp++
						}
					}
				}
			}
		}
	}
}

// mergeLevel derives the parent signature for the child states s1 (and
// s2 when non-nil) under cut thresholds j1, j2 and spontaneous-region
// depth sp, writing it into parent and returning the boundary cost. It
// returns ok=false when the combination is invalid: a zero-demand region
// cannot be cut off (its mirror component would contain no member leaf)
// and merged demands must respect the scaled capacities.
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

// reconstruct walks the backpointers from the root's best signature and
// emits the laminar family of the optimal relaxed solution, with leaf
// IDs of the binarized tree.
func (d *dpRun) reconstruct(tabs []*dpTable, rootKey uint64) *laminar.Family {
	fam := laminar.NewFamily(d.h)
	close := func(level int, set []int) {
		if len(set) == 0 {
			return
		}
		fam.Add(level, laminar.NewSet(set, 0)) // demand filled during relabel
	}

	var rec func(v int, key uint64) [][]int
	rec = func(v int, key uint64) [][]int {
		e, ok := tabs[v].lookup(key)
		if !ok {
			panic("hgpt: broken backpointer")
		}
		active := make([][]int, d.h+1)
		switch e.kind {
		case 0:
			for j := 1; j <= d.h; j++ {
				active[j] = []int{v}
			}
		case 1:
			c1 := d.bt.Children(v)[0]
			a1 := rec(c1, e.s1)
			for k := 1; k <= d.h; k++ {
				if k > int(e.j1) {
					close(k, a1[k])
				} else {
					active[k] = a1[k]
				}
			}
		case 2:
			kids := d.bt.Children(v)
			a1 := rec(kids[0], e.s1)
			a2 := rec(kids[1], e.s2)
			j1, j2 := int(e.j1), int(e.j2)
			for k := 1; k <= d.h; k++ {
				if k > j1 {
					close(k, a1[k])
				}
				if k > j2 {
					close(k, a2[k])
				}
				switch {
				case k <= j1 && k <= j2:
					active[k] = append(append([]int{}, a1[k]...), a2[k]...)
				case k <= j1:
					active[k] = a1[k]
				case k <= j2:
					active[k] = a2[k]
				}
			}
		}
		return active
	}

	rootActive := rec(d.bt.Root(), rootKey)
	for k := 1; k <= d.h; k++ {
		close(k, rootActive[k])
	}
	all := d.bt.Leaves()
	fam.Levels[0] = []*laminar.Set{laminar.NewSet(all, 0)}
	return fam
}

// relabelFamily converts a family over binarized-tree leaves into one
// over original-tree leaves and fills in true demands.
func relabelFamily(fam *laminar.Family, t *tree.Tree, origOf []int) *laminar.Family {
	out := laminar.NewFamily(fam.Height())
	for j, level := range fam.Levels {
		for _, s := range level {
			leaves := make([]int, len(s.Leaves))
			var dem float64
			for i, l := range s.Leaves {
				leaves[i] = origOf[l]
				dem += t.Demand(origOf[l])
			}
			out.Add(j, laminar.NewSet(leaves, dem))
		}
	}
	return out
}

// FamilyCost evaluates the Equation (3) objective of a solution family
// on tree t: for every level j ≥ 1 and every Level-(j) set S, the
// minimum tree cut separating S contributes
// w(CUT_T(S)) · (cm(j−1) − cm(j)) / 2.
func FamilyCost(t *tree.Tree, H *hierarchy.Hierarchy, fam *laminar.Family) float64 {
	var c float64
	for j := 1; j <= H.Height(); j++ {
		delta := (H.CM(j-1) - H.CM(j)) / 2
		if delta == 0 {
			continue
		}
		for _, s := range fam.Levels[j] {
			in := make(map[int]bool, len(s.Leaves))
			for _, l := range s.Leaves {
				in[l] = true
			}
			c += t.CutLeafSetOf(in).Weight * delta
		}
	}
	return c
}

// AssignmentFamily builds the mirror family of a leaf placement
// (Lemma 3): the Level-(j) sets group leaves by the Level-(j) ancestor
// of their assigned hierarchy leaf.
func AssignmentFamily(t *tree.Tree, H *hierarchy.Hierarchy, assign map[int]int) *laminar.Family {
	fam := laminar.NewFamily(H.Height())
	for j := 0; j <= H.Height(); j++ {
		groups := map[int][]int{}
		for leaf, hl := range assign {
			a := H.AncestorAt(hl, j)
			groups[a] = append(groups[a], leaf)
		}
		idxs := make([]int, 0, len(groups))
		for a := range groups {
			idxs = append(idxs, a)
		}
		sort.Ints(idxs)
		for _, a := range idxs {
			var dem float64
			for _, l := range groups[a] {
				dem += t.Demand(l)
			}
			set := laminar.NewSet(groups[a], dem)
			set.HNode = a
			fam.Add(j, set)
		}
	}
	return fam
}

// AssignmentCost is the HGPT objective of a leaf placement: the
// Equation (3) cost of its mirror family.
func AssignmentCost(t *tree.Tree, H *hierarchy.Hierarchy, assign map[int]int) float64 {
	return FamilyCost(t, H, AssignmentFamily(t, H, assign))
}
