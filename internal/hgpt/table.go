package hgpt

import (
	"cmp"
	"math"
	"slices"
)

// dpTable is a finished DP table: one row per surviving signature, in
// (cost, key) order, each row's signature decoded once. A table is built
// once, when its node completes (after dominance pruning), and never
// mutated afterwards; the parent merges, the reuse cache, the root scan
// and reconstruction all read the same rows.
//
// The cost order is what the bound-first merges rest on. A row's cost
// is a lower bound on every candidate it feeds, because merge increments
// are never negative, so a scan under a ceiling stops at the first row
// above it. The (cost, key) order also makes the root's optimum its
// first valid row, with ties broken by key.
type dpTable struct {
	rows  []tableRow
	sigs  []int // stride h+1; row i is sigs[i*(h+1) : (i+1)*(h+1)]
	depth []int // region depth per row (see regionDepth)
}

// tableRow is one signature's winning entry.
type tableRow struct {
	key uint64
	entry
}

// sig returns row i's decoded signature (stride = h+1).
func (t *dpTable) sig(i, stride int) []int {
	return t.sigs[i*stride : (i+1)*stride]
}

// minCost returns the cheapest entry's cost (+Inf for an empty table).
func (t *dpTable) minCost() float64 {
	if len(t.rows) == 0 {
		return math.Inf(1)
	}
	return t.rows[0].cost
}

// lookup returns the entry stored under key. Rows are in cost order, so
// this is a scan; reconstruction calls it once per node.
func (t *dpTable) lookup(key uint64) (entry, bool) {
	for _, r := range t.rows {
		if r.key == key {
			return r.entry, true
		}
	}
	return entry{}, false
}

// fold merges the shards' build indexes into the first under the
// putEntry rule and freezes the node's table; every shard's scratch goes
// back to the pool. Folding the partials in any order yields the same
// table: putEntry realizes a minimum under a strict total order, which
// is commutative and associative.
func (d *dpRun) fold(shards []*dpScratch) *dpTable {
	for _, p := range shards[1:] {
		for k, e := range p.idx {
			putEntry(shards[0].idx, k, e)
		}
		clear(p.idx)
		d.scratch.Put(p)
	}
	return d.freeze(shards[0])
}

// freeze turns the build index sc.idx into a finished table: the
// entries are collected into sc's pooled row buffer, dominance-pruned
// there (when on), and the survivors copied into a table of exactly
// their length, in (cost, key) order. sc goes back to the pool with its
// index empty but its buckets and buffers grown, so a run allocates its
// working memory once rather than per table.
func (d *dpRun) freeze(sc *dpScratch) *dpTable {
	rows := sc.rows[:0]
	for k, e := range sc.idx {
		rows = append(rows, tableRow{key: k, entry: e})
	}
	clear(sc.idx)
	var out []tableRow
	if d.pruneOn {
		out = d.prune(sc, rows)
	} else {
		out = make([]tableRow, len(rows))
		copy(out, rows)
	}
	sc.rows = rows[:0]
	d.scratch.Put(sc)
	slices.SortFunc(out, func(a, b tableRow) int {
		if c := cmp.Compare(a.cost, b.cost); c != 0 {
			return c
		}
		return cmp.Compare(a.key, b.key)
	})
	return d.newTable(out)
}

// newTable decodes the signatures of rows, which must already be in
// (cost, key) order.
func (d *dpRun) newTable(rows []tableRow) *dpTable {
	stride := d.h + 1
	t := &dpTable{rows: rows, sigs: make([]int, len(rows)*stride), depth: make([]int, len(rows))}
	for i := range rows {
		sig := t.sig(i, stride)
		d.codec.decode(rows[i].key, sig)
		t.depth[i] = regionDepth(sig)
	}
	return t
}
