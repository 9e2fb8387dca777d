package hgpt

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"hierpart/internal/faultinject"
)

// Concurrent DP scheduling. The binarized tree's tables form a
// dependency DAG (each node needs only its children's tables), so the
// post-order walk of the sequential solver over-serializes: sibling
// subtrees are independent. runTables replaces the walk with a
// dependency-counting scheduler — every node carries a countdown of
// unfinished children, leaves start ready, and a node is enqueued the
// moment its last child completes. On top of that, the cross-product
// merge at a large two-child node (the O(|tab(c1)|·|tab(c2)|·h²) hot
// spot) is sharded by dealing the first child's cost-sorted rows
// round-robin into per-worker build indexes, folded back together by
// fold. Round-robin rather than contiguous chunks: under a
// ceiling only the cheap rows at the front of a table produce
// candidates, and contiguous chunks would hand every one of them to
// shard 0.
//
// Determinism: a table's content is the per-key minimum of merge
// candidates under the strict total order (cost, s1, s2, j1, j2), and
// both sibling interleaving and row sharding only change the order in
// which candidates are examined — never the candidate set. Results are
// therefore bit-identical at every worker count (asserted by
// TestSolveWorkersBitIdentical, TestShardedCrossMatchesSequential and
// FuzzBoundedTable, which also folds 2- and 3-way shards under a
// ceiling).

// shardMinPairs is the |tab(c1)|·|tab(c2)| pair count above which a
// two-child merge is sharded across workers; below it the shard
// bookkeeping costs more than the merge. Variable only so tests can
// force sharding on tiny tables.
var shardMinPairs = 2048

// runTables computes the per-node DP tables of the binarized tree with
// up to `workers` goroutines, returning the tables and the total state
// count. workers ≤ 1 runs the plain sequential post-order walk. pruneOn
// is recorded on the run: every table it freezes is dominance-pruned.
// Cancellation is polled before every table (and shard under the
// scheduler) and, through the run's stop flag, inside every merge.
func (d *dpRun) runTables(ctx context.Context, workers, maxStates int, pruneOn bool) ([]*dpTable, int, error) {
	d.pruneOn = pruneOn
	stop := context.AfterFunc(ctx, func() { d.stopped.Store(true) })
	defer stop()
	if workers <= 1 {
		tabs := make([]*dpTable, d.bt.N())
		states := 0
		// futureMin bookkeeping (see the invariant note below): the sum of
		// minimum entry costs over completed-but-unmerged tables, and the
		// per-node minima needed to exclude a node's own children from its
		// snapshot. Only maintained when a bound source is attached.
		var pendSum float64
		var mins []float64
		if d.hasBound() {
			mins = make([]float64, d.bt.N())
		}
		done := 0
		for _, v := range d.bt.PostOrder() {
			if err := ctx.Err(); err != nil {
				return nil, 0, err
			}
			childSum := 0.0
			if mins != nil {
				for _, c := range d.bt.Children(v) {
					childSum += mins[c]
				}
			}
			// Warm-cache hit: the previous generation's table is served
			// verbatim (already pruned; never mutated). Under a bound the
			// futureMin bookkeeping still runs: a reused table is the full
			// unbounded table for its subtree, so its minimum is the same
			// admissible lower bound a fresh computation would yield.
			tab, reused := d.reuseLookup(v)
			if !reused {
				// Live bound: re-read the incumbent once per table, so a
				// bound shared with concurrent trees bites from the next
				// table on.
				effBound := d.loadBound() - (pendSum - childSum)
				var err error
				if tab, err = d.safeTable(ctx, v, tabs, effBound); err != nil {
					return nil, 0, err
				}
				if len(tab.rows) == 0 && !math.IsInf(effBound, 1) {
					return nil, 0, d.boundErr(done)
				}
			}
			tabs[v] = tab
			if mins != nil {
				mins[v] = tab.minCost()
				pendSum += mins[v] - childSum
			}
			done++
			states += len(tab.rows)
			if maxStates > 0 && states > maxStates {
				return nil, 0, budgetErr(states, maxStates)
			}
		}
		return tabs, states, nil
	}

	n := d.bt.N()
	s := &tableSched{
		d:         d,
		ctx:       ctx,
		tabs:      make([]*dpTable, n),
		pending:   make([]int, n),
		remaining: n,
		workers:   workers,
		maxStates: maxStates,
	}
	if d.hasBound() {
		s.mins = make([]float64, n)
	}
	s.cond = sync.NewCond(&s.mu)
	for v := 0; v < n; v++ {
		s.pending[v] = len(d.bt.Children(v))
	}
	s.mu.Lock()
	for v := 0; v < n; v++ {
		if s.pending[v] == 0 {
			s.queue = append(s.queue, s.nodeTask(v))
		}
	}
	s.mu.Unlock()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.loop()
		}()
	}
	wg.Wait()
	if s.err != nil {
		return nil, 0, s.err
	}
	return s.tabs, s.states, nil
}

func budgetErr(states, maxStates int) error {
	return fmt.Errorf("hgpt: DP state budget exceeded (%d > %d); increase Eps or MaxStates", states, maxStates)
}

// safeTable computes node v's table with the per-table fault hook and
// panic containment: a panic below (a DP bug, or an injected fault)
// becomes an error instead of unwinding the caller — under the
// concurrent scheduler that caller is a worker goroutine whose unwind
// would kill the whole process.
func (d *dpRun) safeTable(ctx context.Context, v int, tabs []*dpTable, effBound float64) (tab *dpTable, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("hgpt: panic computing table for node %d: %v", v, r)
		}
	}()
	if err := faultinject.Fire(ctx, faultinject.HgptTable); err != nil {
		return nil, err
	}
	if tab = d.table(v, tabs, effBound); tab == nil {
		// Cut short by cancellation: the partial table goes nowhere.
		return nil, ctx.Err()
	}
	return tab, nil
}

// tableSched is the dependency-counting scheduler state. tabs[v] is
// written exactly once, before pending[parent(v)] is decremented under
// mu, so readers of a ready node's child tables never race.
type tableSched struct {
	d         *dpRun
	ctx       context.Context
	tabs      []*dpTable
	workers   int
	maxStates int

	mu        sync.Mutex
	cond      *sync.Cond
	queue     []func()
	stop      bool
	err       error
	states    int
	remaining int   // nodes whose table is not yet complete
	pending   []int // unfinished children per node

	// futureMin bookkeeping, maintained only when an incumbent bound
	// source is attached (mins == nil otherwise). pendSum is the sum of
	// minimum entry costs over completed tables not yet replaced by their
	// parent's table; mins[v] is node v's table minimum. When node v's
	// table is built, every table counted in pendSum other than v's own
	// children belongs to a subtree disjoint from v (descendants were
	// replaced when their parents completed), and each such subtree
	// contributes at least its table minimum to any root completion —
	// costs are additive across merged children and merge increments are
	// never negative. So liveBound - (pendSum - Σ childMins) is an
	// admissible per-node entry ceiling: it can only drop entries no
	// ≤-bound completion uses.
	//
	// Invariant (why results stay bit-identical even though snapshots are
	// schedule-dependent): within one node all candidates see the same
	// ceiling, so drops are a cost-suffix of each signature slot — a
	// surviving slot holds exactly its unpruned minimum entry. Any entry
	// on a completion that finishes ≤ bound satisfies cost + futureMin ≤
	// bound under every admissible snapshot, so it survives every
	// schedule; slots that differ across schedules are only those no
	// ≤-bound completion can use. The root table (futureMin = 0) and the
	// winning backpointer chain are therefore schedule-independent, and
	// under a STATIC bound B a tree completes iff its unpruned DP optimum
	// is ≤ B. Only the surviving-state count of bound-affected tables
	// varies with worker count. pendSum is non-decreasing (a parent's
	// minimum is at least the sum of its children's), so a stale snapshot
	// only under-filters — never unsoundly over-filters.
	//
	// LIVE bound extension (concurrent portfolio): the bound value is
	// re-read per table, so different tables of one run may filter under
	// different values b₁ ≥ b₂ ≥ … (CostBound is monotone non-increasing
	// in time). Two facts keep this sound and reducible:
	//
	//   1. Abort ⇒ optimum > min(bᵢ). If the unpruned optimum were ≤
	//      every applied value, the induction above protects its whole
	//      backpointer chain through every filter, so no table on it can
	//      empty and the root keeps a valid completion.
	//   2. Completion ⇒ bit-identical to the unbounded solve. Children
	//      load their ceilings before their ancestors do (a node becomes
	//      ready only after its children complete), so along any
	//      root-to-leaf chain the applied values are non-increasing
	//      upward: b_child ≥ b_root. A surviving root completion c'
	//      passed the root filter, so optimum ≤ c' ≤ b_root ≤ b_v for
	//      every chain node v — the optimum's chain survived every
	//      earlier, looser filter too, and the slot-minimum invariant
	//      makes the winning chain exactly the unbounded one.
	//
	// What the live bound does NOT keep schedule-independent is WHETHER a
	// given run aborts (min(bᵢ) depends on when concurrent trees
	// tightened the shared bound) and the States count. The portfolio's
	// post-hoc reduction (internal/hgp/portfolio.go) restores a
	// deterministic pruned set from fact 1 + the static-bound iff above.
	pendSum float64
	mins    []float64
}

// effBoundFor snapshots node v's entry ceiling: the live incumbent
// bound (re-read here, once per node) minus the pending-minima sum,
// excluding v's own children (their costs are already accumulated in
// the entries being filtered).
func (s *tableSched) effBoundFor(v int) float64 {
	b := s.d.loadBound()
	if s.mins == nil {
		return b
	}
	s.mu.Lock()
	childSum := 0.0
	for _, c := range s.d.bt.Children(v) {
		childSum += s.mins[c]
	}
	eff := b - (s.pendSum - childSum)
	s.mu.Unlock()
	return eff
}

func (s *tableSched) loop() {
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.stop {
			s.cond.Wait()
		}
		if s.stop {
			s.mu.Unlock()
			return
		}
		// LIFO: freshly enqueued shards of the same node stay cache-hot.
		t := s.queue[len(s.queue)-1]
		s.queue = s.queue[:len(s.queue)-1]
		s.mu.Unlock()
		s.run(t)
	}
}

// run executes one task with panic containment: an unwinding worker
// goroutine would kill the process, so a panic (DP bug or injected
// fault) is converted into the run's error and the pool stops.
func (s *tableSched) run(t func()) {
	defer func() {
		if r := recover(); r != nil {
			s.fail(fmt.Errorf("hgpt: panic in DP task: %v", r))
		}
	}()
	t()
}

// fail records err as the run's error (first one wins) and stops the
// pool.
func (s *tableSched) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.stop = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// enqueue appends tasks and wakes enough workers to take them.
func (s *tableSched) enqueue(tasks ...func()) {
	s.mu.Lock()
	s.queue = append(s.queue, tasks...)
	s.mu.Unlock()
	if len(tasks) == 1 {
		s.cond.Signal()
	} else {
		s.cond.Broadcast()
	}
}

// cancelled reports whether the run's context is done, and on the first
// observation records the context error and stops the pool. Every task
// polls it before starting work; inside a merge the run's stop flag
// bounds the latency to a few thousand candidates.
func (s *tableSched) cancelled() bool {
	err := s.ctx.Err()
	if err == nil {
		return false
	}
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.stop = true
	s.cond.Broadcast()
	s.mu.Unlock()
	return true
}

// nodeTask computes node v's table, sharding the two-child cross-product
// when it is large enough to amortize the split.
func (s *tableSched) nodeTask(v int) func() {
	return func() {
		if s.cancelled() {
			return
		}
		d := s.d
		// Warm-cache hit: serve the previous generation's table verbatim
		// (already pruned, immutable).
		if tab, ok := d.reuseLookup(v); ok {
			s.complete(v, tab, math.Inf(1))
			return
		}
		kids := d.bt.Children(v)
		if len(kids) == 2 {
			pairs := len(s.tabs[kids[0]].rows) * len(s.tabs[kids[1]].rows)
			if pairs >= shardMinPairs {
				s.shardNode(v, kids[0], kids[1])
				return
			}
		}
		eff := s.effBoundFor(v)
		tab, err := d.safeTable(s.ctx, v, s.tabs, eff)
		if err != nil {
			s.fail(err)
			return
		}
		s.complete(v, tab, eff)
	}
}

// shardNode deals the rows of c1's table round-robin across one shard
// task per worker: shard i merges rows i, i+S, i+2S, … into a private
// build index. The last shard to finish folds the partials together,
// freezes the node's table and completes the node.
func (s *tableSched) shardNode(v, c1, c2 int) {
	d := s.d
	t1, t2 := s.tabs[c1], s.tabs[c2]
	w1, w2 := d.bt.EdgeWeight(c1), d.bt.EdgeWeight(c2)
	// One ceiling snapshot for all shards of v: every candidate of a
	// signature slot must see the same ceiling (see the invariant note).
	effBound := s.effBoundFor(v)
	shards := s.workers
	if shards > len(t1.rows) {
		shards = len(t1.rows)
	}
	partials := make([]*dpScratch, shards)
	left := int32(shards)
	tasks := make([]func(), 0, shards)
	for i := 0; i < shards; i++ {
		i := i
		tasks = append(tasks, func() {
			if s.cancelled() {
				return
			}
			if err := faultinject.Fire(s.ctx, faultinject.HgptTable); err != nil {
				s.fail(err)
				return
			}
			sc := d.scratch.Get().(*dpScratch)
			if !d.crossInto(sc, t1, w1, i, shards, t2, w2, effBound) {
				// Cut short by cancellation: this shard never counts down,
				// so the node is never folded; the run ends with ctx's error.
				d.discard(sc)
				s.cancelled()
				return
			}
			partials[i] = sc
			if atomic.AddInt32(&left, -1) == 0 {
				s.complete(v, d.fold(partials), effBound)
			}
		})
	}
	s.enqueue(tasks...)
}

// complete records node v's finished table, propagates the dependency
// count to the parent, and stops the pool on completion or on a tripped
// state budget. eff is the ceiling v's table was filtered under (the
// effBoundFor snapshot), needed to classify an empty table.
func (s *tableSched) complete(v int, tab *dpTable, eff float64) {
	// An empty table under a finite ceiling means every partial for this
	// subtree costs strictly more than the incumbent; nothing downstream
	// can recover, so the whole run aborts. An empty table under a +Inf
	// ceiling (bound attached but never tightened) is genuine
	// infeasibility and falls through to the root's no-solution error.
	if len(tab.rows) == 0 && !math.IsInf(eff, 1) {
		s.mu.Lock()
		done := s.d.bt.N() - s.remaining
		s.mu.Unlock()
		s.fail(s.d.boundErr(done))
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.tabs[v] = tab
	if s.mins != nil {
		m := tab.minCost()
		childSum := 0.0
		for _, c := range s.d.bt.Children(v) {
			childSum += s.mins[c]
		}
		s.mins[v] = m
		s.pendSum += m - childSum
	}
	s.states += len(tab.rows)
	if s.maxStates > 0 && s.states > s.maxStates {
		s.err = budgetErr(s.states, s.maxStates)
		s.stop = true
		s.cond.Broadcast()
		return
	}
	s.remaining--
	if s.remaining == 0 {
		s.stop = true
		s.cond.Broadcast()
		return
	}
	if p := s.d.bt.Parent(v); p >= 0 {
		s.pending[p]--
		if s.pending[p] == 0 {
			s.queue = append(s.queue, s.nodeTask(p))
			s.cond.Signal()
		}
	}
}
