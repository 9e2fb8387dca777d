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

// sigCodec packs a signature (levels 1..h) into a uint64 key, level 1 in
// the most significant field.
type sigCodec struct {
	h    int
	bits uint
	mask uint64
	// prefix[j] masks the fields of levels 1..j; units[j] holds a 1 in
	// each of them, so adding or subtracting it moves every one of those
	// fields by one.
	prefix, units []uint64
}

func newSigCodec(h, maxVal int) (sigCodec, error) {
	bits := uint(1)
	for 1<<bits <= maxVal {
		bits++
	}
	if uint(h)*bits > 64 {
		return sigCodec{}, fmt.Errorf("hgpt: signature space too large: %d levels × %d bits > 64 (reduce n or increase ε)", h, bits)
	}
	c := sigCodec{h: h, bits: bits, mask: 1<<bits - 1, prefix: make([]uint64, h+1), units: make([]uint64, h+1)}
	for j := 1; j <= h; j++ {
		c.prefix[j] = c.prefix[j-1] | c.mask<<c.shift(j)
		c.units[j] = c.units[j-1] | 1<<c.shift(j)
	}
	return c, nil
}

// shift returns the bit offset of level j's field.
func (c sigCodec) shift(j int) uint { return uint(c.h-j) * c.bits }

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

// depths returns key k's region depth m (its deepest level with a
// region, 0 for none) and its deepest zero-demand level z (0 for none).
func (c sigCodec) depths(k uint64) (m, z int8) {
	for j := c.h; j >= 1 && z == 0; j-- {
		x := k & c.mask
		if x != 0 && m == 0 {
			m = int8(j)
		}
		if x == 1 {
			z = int8(j)
		}
		k >>= c.bits
	}
	return m, z
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

// SolveContext is Solve with cancellation: once ctx is done the DP
// stops within a few thousand merge candidates — inside a node's merge,
// not only between tables — and returns the context's error, so a dead
// client or an expired deadline stops burning the worker budget
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
	// A root row is valid when it has no zero-demand region, which would
	// be a mirror piece that belongs to no set.
	rootTab := tabs[bt.Root()]
	best := -1
	for i := range rootTab.rows {
		if _, z := dp.codec.depths(rootTab.rows[i].key); z == 0 {
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

	// capField[k] is the largest level-k key field a merged region may
	// carry (capS[k]+1); capFrom is the first level whose capacity a
	// merge can exceed (capS[k] < total: no region holds more than the
	// total demand). capS is non-increasing in k, so only levels
	// capFrom..h ever need the check.
	capField []uint64
	capFrom  int

	// stopped is set once the run's context is done (context.AfterFunc,
	// registered by runTables). The merge loops load it every
	// stopPollEvery candidates, so one long near-root merge stops soon
	// after the deadline instead of running to completion; a table cut
	// short is discarded and the run returns the context's error.
	stopped atomic.Bool

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

	// scratch pools the merge plans, the build index and the projection
	// buffers so the DP inner loop allocates nothing per candidate and a
	// run grows its index maps once rather than per table (shared safely
	// by the concurrent scheduler: each borrower holds a distinct
	// scratch).
	scratch sync.Pool
}

// dpScratch is one borrower's working set. idx is the build index of
// the node being merged: a map from signature key to its best entry so
// far, frozen into a dpTable (and cleared) when the node completes. opts
// holds the merge plan of one pair of child groups. The remaining
// buffers are freeze's, prune's (see prune.go) and project's (see
// table.go): the collected rows, their sort records, one run's
// compressed second demands and Fenwick tree, and the projection
// grouping.
type dpScratch struct {
	sig     []int
	idx     map[uint64]entry
	opts    []mergeOpt
	rows    []tableRow
	recs    []pruneRec
	ys      []uint64
	fw      minFenwick
	depth   []int8
	next    []int32
	recsRep []repRec
	cur     []int32
	groups  groupIndex
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
	capField := make([]uint64, h+1)
	capFrom := h + 1
	for j := h; j >= 1; j-- {
		capField[j] = uint64(capS[j]) + 1
		if capS[j] < total {
			capFrom = j
		}
	}

	dp := &dpRun{
		bt: bt, h: h, codec: codec, capS: capS, delta: delta, du: du,
		unit: unit, total: total, boundSrc: s.Bound,
		literalEq4: s.AblateLiteralEq4, noZeroRegions: s.AblateNoZeroRegions,
		capField: capField, capFrom: capFrom,
	}
	// No bound value applied yet: the tracker starts at +Inf and records
	// every live value the run filters under (see loadBound).
	dp.applied.Store(math.Float64bits(math.Inf(1)))
	dp.scratch.New = func() any {
		return &dpScratch{sig: make([]int, h+1), idx: map[uint64]entry{}}
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

// table computes node v's DP table. effBound is the entry ceiling for
// this node: the incumbent bound minus an admissible lower bound on the
// cost every completion must still pay in subtrees disjoint from v
// (futureMin; +Inf ceiling when unbounded). Tightening the ceiling per
// node never changes the solve's outcome — see the invariant note on
// futureMin in scheduler.go. It returns nil when the run was cancelled
// mid-merge.
func (d *dpRun) table(v int, tabs []*dpTable, effBound float64) *dpTable {
	if d.bt.IsLeaf(v) {
		// A region carrying the leaf's demand at every level.
		key := (uint64(d.du[v]) + 1) * d.codec.units[d.h]
		return d.newTable([]tableRow{{key: key, entry: entry{kind: 0}}})
	}
	sc := d.scratch.Get().(*dpScratch)
	kids := d.bt.Children(v)
	var done bool
	switch len(kids) {
	case 1:
		done = d.oneChildTable(sc, kids[0], tabs[kids[0]], effBound)
	case 2:
		c1, c2 := kids[0], kids[1]
		done = d.crossInto(sc, tabs[c1], d.bt.EdgeWeight(c1), 0, 1, tabs[c2], d.bt.EdgeWeight(c2), effBound)
	default:
		panic("hgpt: tree not binarized")
	}
	if !done {
		d.discard(sc)
		return nil
	}
	return d.freeze(sc)
}

// stopPollEvery is how many merge candidates (a row or a row pair under
// one merge option) the merge loops examine between two loads of the
// run's stop flag.
const stopPollEvery = 4096

// discard drops a build index cut short by cancellation: its entries
// never reach a table, and sc goes back to the pool empty.
func (d *dpRun) discard(sc *dpScratch) {
	clear(sc.idx)
	d.scratch.Put(sc)
}

// mergeOpt is one merge candidate shape of a merge plan: a spontaneous
// region depth sp at the parent, with the boundary charge the child
// edges pay for it and the key units of its zero-demand levels
// (max(j1, j2), sp].
type mergeOpt struct {
	charge float64
	add    uint64
}

// plan fills sc.opts with the merge options of one child group pair:
// child 1 cut at threshold j1 with region depth m1 (and, when two, child
// 2 at j2 with depth m2). Given the group pair, a charge depends only on
// sp and the two edge weights, so it is computed once per node and
// group pair rather than per row pair. sp ranges over 0 and the depths past the kept
// regions (smaller ones are swallowed by them and duplicate sp = 0);
// options whose charge is +Inf (a cut of a binarization dummy edge)
// are left out, since putEntry would refuse every candidate they make.
// The E11 ablations act here: AblateNoZeroRegions leaves only sp = 0,
// AblateLiteralEq4 drops the parent-region charge. It returns the
// options and their least charge.
func (d *dpRun) plan(sc *dpScratch, w1 float64, j1, m1 int, two bool, w2 float64, j2, m2 int) ([]mergeOpt, float64) {
	opts := sc.opts[:0]
	minCh := math.Inf(1)
	p := max(j1, j2)
	maxSp := d.h
	if d.noZeroRegions {
		maxSp = 0
	}
	for sp := 0; sp <= maxSp; {
		ch := d.charge(w1, j1, m1, two, w2, j2, m2, max(p, sp))
		if !math.IsInf(ch, 1) {
			var add uint64
			if sp > 0 {
				add = d.codec.units[sp] - d.codec.units[p]
			}
			opts = append(opts, mergeOpt{charge: ch, add: add})
			minCh = min(minCh, ch)
		}
		if sp == 0 {
			sp = p + 1
		} else {
			sp++
		}
	}
	sc.opts = opts
	return opts, minCh
}

// charge is the boundary cost of a merge whose parent has regions at
// levels 1..top. Per level, a child edge carries no charge when the
// child's region merges through it (k ≤ jᵢ). Otherwise it is charged
// Δ(k)·w once if it closes a demand-carrying child set (k ≤ mᵢ: the
// boundary of the closed mirror) and once more if the parent has a
// level-k region (the boundary of the region containing v), Δ(k) =
// (cm(k−1)−cm(k))/2 being the per-side share of the Equation (3)
// objective. The terms are added level by level, child 1 before child 2,
// the order of the exhaustive reference (mergeLevel, in the tests), so
// the float sums are bit-identical.
func (d *dpRun) charge(w1 float64, j1, m1 int, two bool, w2 float64, j2, m2, top int) float64 {
	var cost float64
	for k := 1; k <= d.h; k++ {
		dl := d.delta[k]
		if dl == 0 {
			continue
		}
		parentRegion := k <= top && !d.literalEq4
		if k > j1 {
			if k <= m1 {
				cost += w1 * dl // closed child set boundary
			}
			if parentRegion {
				cost += w1 * dl // parent region boundary
			}
		}
		if two && k > j2 {
			if k <= m2 {
				cost += w2 * dl
			}
			if parentRegion {
				cost += w2 * dl
			}
		}
	}
	return cost
}

// fits reports whether kept, a parent key's fields at the levels both
// children keep (1..top), respects the scaled capacities there. The
// other levels need no check: a level kept by one child copies that
// child's field, which passed this check when it was made, and capS is
// non-increasing in the level.
func (d *dpRun) fits(kept uint64, top int) bool {
	for k := d.capFrom; k <= top; k++ {
		if kept>>d.codec.shift(k)&d.codec.mask > d.capField[k] {
			return false
		}
	}
	return true
}

// oneChildTable merges a single child table upward into the build index
// sc.idx (c1 is v's only child, tab its table). It walks the child's
// projections: for each threshold j1 and depth m1, the group
// representatives of P_j1 with depth m1, in cost order, under that
// pair's merge plan. The parent key is the child's kept prefix plus the
// spontaneous levels' units. Rows arrive cost-sorted and merge
// increments are never negative, so each scan stops at the first
// representative above the ceiling. It reports false when the run was
// cancelled before the merge finished.
func (d *dpRun) oneChildTable(sc *dpScratch, c1 int, tab *dpTable, effBound float64) bool {
	h := d.h
	w1 := d.bt.EdgeWeight(c1)
	out := sc.idx
	poll := stopPollEvery
	for j1 := 0; j1 <= h; j1++ {
		next := tab.nextOf(j1)
		pre := d.codec.prefix[j1]
		for m1 := j1; m1 <= h; m1++ {
			reps := tab.repsOf(h, j1, m1)
			if len(reps) == 0 {
				continue
			}
			opts, minCh := d.plan(sc, w1, j1, m1, false, 0, 0, 0)
			if len(opts) == 0 {
				continue
			}
			for _, r := range reps {
				c1, k1 := tab.rows[r].cost, tab.rows[r].key
				if c1+minCh > effBound {
					break
				}
				if poll -= len(opts); poll <= 0 {
					if d.stopped.Load() {
						return false
					}
					poll = stopPollEvery
				}
				kept := k1 & pre
				for _, o := range opts {
					// Partials strictly above the node's ceiling are dropped
					// (ties kept): merge increments are never negative and
					// the futureMin term is admissible, so they cannot
					// complete under the incumbent. +Inf ceiling keeps all.
					c := c1 + o.charge
					if c > effBound {
						continue
					}
					key := kept + o.add
					putEntry(out, key, entry{cost: c, s1: k1, j1: int8(j1), kind: 1})
					// Rounding ties: a dearer row of the group whose sum
					// rounds to c competes on key.
					for a := next[r]; a >= 0 && tab.rows[a].cost+o.charge == c; a = next[a] {
						putEntry(out, key, entry{cost: c, s1: tab.rows[a].key, j1: int8(j1), kind: 1})
					}
				}
			}
		}
	}
	return true
}

// crossInto merges child tables t1 and t2 into the build index sc.idx,
// through their projections: for every threshold pair (j1, j2) and
// depth pair (m1, m2), the representatives of P_j1(t1) with depth m1
// against those of P_j2(t2) with depth m2, under that group pair's merge
// plan. Only a group's representative can win a parent slot (see
// dpTable), so the merge costs Σ |reps₁|·|reps₂| over the group pairs
// instead of |t1|·|t2|·h², and ties walks the rows whose sums round to
// a representative pair's.
//
// Regions occupy a level prefix 1..m: leaves open a region at every
// level, and a merge's level-k region exists iff a child region merges
// through (k ≤ jᵢ ≤ mᵢ) or a spontaneous region covers it (k ≤ sp), all
// unions of prefixes. Cut thresholds j > m are therefore
// indistinguishable from j = m (no region to keep or cut at the extra
// levels), and entryLess already canonicalizes equal-cost winners to the
// smallest threshold, so the loops take j ≤ m only. The parent key is
// built from packed fields: the children's kept prefixes added, one
// unit off each level both keep (two regions of demand a and b, fields
// a+1 and b+1, merge into field a+b+1), plus the spontaneous levels'
// units.
//
// Both tables are cost-sorted and merge increments are never negative
// (and float addition is monotone), so a representative's partner scan
// stops at the first sum above the ceiling, and the representative scan
// ends once even the cheapest partner overshoots: every skipped
// candidate is one the ceiling filter would drop. The scheduler shards a
// large node by dealing t1's representatives round-robin (shard start of
// step takes positions start, start+step, … of the representatives
// concatenated over the group pairs), so every shard gets a share of the
// cheap rows that survive the ceiling; the partition never changes the
// merged result because putEntry keeps a total-order minimum per key. It
// reports false when the run was cancelled before the merge finished.
func (d *dpRun) crossInto(sc *dpScratch, t1 *dpTable, w1 float64, start, step int, t2 *dpTable, w2 float64, effBound float64) bool {
	h := d.h
	out := sc.idx
	poll := stopPollEvery
	dealt := 0
	for j1 := 0; j1 <= h; j1++ {
		next1 := t1.nextOf(j1)
		pre1 := d.codec.prefix[j1]
		for m1 := j1; m1 <= h; m1++ {
			reps1 := t1.repsOf(h, j1, m1)
			if len(reps1) == 0 {
				continue
			}
			for j2 := 0; j2 <= h; j2++ {
				next2 := t2.nextOf(j2)
				pre2 := d.codec.prefix[j2]
				both := min(j1, j2)
				for m2 := j2; m2 <= h; m2++ {
					reps2 := t2.repsOf(h, j2, m2)
					if len(reps2) == 0 {
						continue
					}
					first := ((start-dealt)%step + step) % step
					dealt += len(reps1)
					opts, minCh := d.plan(sc, w1, j1, m1, true, w2, j2, m2)
					if len(opts) == 0 {
						continue
					}
					min2 := t2.rows[reps2[0]].cost
					for i1 := first; i1 < len(reps1); i1 += step {
						r1 := reps1[i1]
						c1, k1 := t1.rows[r1].cost, t1.rows[r1].key
						if (c1+min2)+minCh > effBound {
							break
						}
						kept1 := k1&pre1 - d.codec.units[both]
						for _, r2 := range reps2 {
							c2, k2 := t2.rows[r2].cost, t2.rows[r2].key
							base := c1 + c2
							if base+minCh > effBound {
								break
							}
							if poll -= len(opts); poll <= 0 {
								if d.stopped.Load() {
									return false
								}
								poll = stopPollEvery
							}
							kept := kept1 + k2&pre2
							if !d.fits(kept, both) {
								continue
							}
							linked := next1[r1] >= 0 || next2[r2] >= 0
							for _, o := range opts {
								// Ceiling filter mirrors oneChildTable: drop
								// partials strictly above the node's ceiling,
								// keep ties.
								c := base + o.charge
								if c > effBound {
									continue
								}
								e := entry{cost: c, s1: k1, s2: k2, j1: int8(j1), j2: int8(j2), kind: 2}
								putEntry(out, kept+o.add, e)
								if linked {
									ties(out, kept+o.add, e, o.charge, t1, next1, r1, t2, next2, r2)
								}
							}
						}
					}
				}
			}
		}
	}
	return true
}

// ties passes to putEntry every other row pair of the groups headed by
// r1 and r2 whose candidate cost rounds to e.cost, the representative
// pair's: the exhaustive merge would see those candidates too, and one
// with a dearer row but a smaller key wins the slot. The walk follows
// both groups' links (strictly rising costs); rounding is monotone, so
// the sums along either link chain never fall, and each scan stops at
// the first unequal sum.
func ties(out map[uint64]entry, key uint64, e entry, charge float64, t1 *dpTable, next1 []int32, r1 int32, t2 *dpTable, next2 []int32, r2 int32) {
	c2 := t2.rows[r2].cost
	for a := r1; a >= 0; a = next1[a] {
		ca := t1.rows[a].cost
		if (ca+c2)+charge != e.cost {
			return
		}
		for b := r2; b >= 0; b = next2[b] {
			if (ca+t2.rows[b].cost)+charge != e.cost {
				break
			}
			if a != r1 || b != r2 {
				e.s1, e.s2 = t1.rows[a].key, t2.rows[b].key
				putEntry(out, key, e)
			}
		}
	}
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
// w(CUT_T(S)) · (cm(j−1) − cm(j)) / 2. The cut weights come from one
// tree.CutWeight shared by all the family's sets.
func FamilyCost(t *tree.Tree, H *hierarchy.Hierarchy, fam *laminar.Family) float64 {
	var c float64
	cw := tree.NewCutWeight(t)
	for j := 1; j <= H.Height(); j++ {
		delta := (H.CM(j-1) - H.CM(j)) / 2
		if delta == 0 {
			continue
		}
		for _, s := range fam.Levels[j] {
			c += cw.Of(s.Leaves) * delta
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
