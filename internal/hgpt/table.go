package hgpt

import (
	"cmp"
	"math"
	"slices"
)

// dpTable is a finished DP table: one row per surviving signature, in
// (cost, key) order, and the table's projections. A table is built once,
// when its node completes (after dominance pruning), and never mutated
// afterwards; the parent merges, the reuse cache, the root scan and
// reconstruction all read the same rows. Signatures are not stored
// decoded: the merges read packed key fields.
//
// The cost order is what the bound-first merges rest on. A row's cost
// is a lower bound on every candidate it feeds, because merge increments
// are never negative, so a scan under a ceiling stops at the first row
// above it. The (cost, key) order also makes the root's optimum its
// first valid row, with ties broken by key.
//
// Projections. A row's region depth m is its deepest level with a region
// (regions occupy a level prefix 1..m; see crossInto). A parent merge that
// keeps the row's regions at levels 1..j (cut threshold j ≤ m) closes
// those at (j, m], so the row is valid under j only when every level in
// (j, m] carries demand: a zero-demand region cannot be cut off. What a
// valid row contributes under j (the parent's kept key fields, every
// boundary charge, every validity and capacity rule) is fixed by its key
// prefix at levels 1..j and by m. P_j therefore groups the rows valid
// under j by (prefix, m), and only a group's first row in (cost, key)
// order, its representative, can win a parent slot, up to rounding ties
// (see ties). The projections P_0 … P_h live in one int32 array:
//
//   - next[j·n+i] links row i to the next row of its P_j group whose
//     cost is higher than row i's, or holds -1. A later row of equal cost
//     has a larger key and loses every slot to row i, so no link reaches
//     it.
//   - reps lists the representatives by (j, m), in row order within each
//     (j, m); those of (j, m) are reps[repOff[b]:repOff[b+1]] with
//     b = j·(h+1)+m.
type dpTable struct {
	rows   []tableRow
	next   []int32
	reps   []int32
	repOff []int32
}

// tableRow is one signature's winning entry.
type tableRow struct {
	key uint64
	entry
}

// repsOf returns the representatives of P_j with region depth m, in
// (cost, key) order.
func (t *dpTable) repsOf(h, j, m int) []int32 {
	b := j*(h+1) + m
	return t.reps[t.repOff[b]:t.repOff[b+1]]
}

// nextOf returns the P_j links of t's rows.
func (t *dpTable) nextOf(j int) []int32 {
	n := len(t.rows)
	return t.next[j*n : (j+1)*n]
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
	slices.SortFunc(out, func(a, b tableRow) int {
		if c := cmp.Compare(a.cost, b.cost); c != 0 {
			return c
		}
		return cmp.Compare(a.key, b.key)
	})
	t := d.project(sc, out)
	d.scratch.Put(sc)
	return t
}

// newTable builds the table of rows, which must already be in (cost,
// key) order.
func (d *dpRun) newTable(rows []tableRow) *dpTable {
	sc := d.scratch.Get().(*dpScratch)
	t := d.project(sc, rows)
	d.scratch.Put(sc)
	return t
}

// repRec is a representative found by project: row i heads a group of
// block b = j·(h+1)+m.
type repRec struct {
	b, i int32
}

// project builds the table of rows with its projections, using sc's
// pooled buffers for the grouping. For each j it walks the rows in cost
// order: a row valid under j either opens its (prefix, m) group, as the
// representative, or is linked from the group's last linked row when it
// costs more. Groups with j = m hold one row (the prefix is the whole
// key) and need no lookup.
func (d *dpRun) project(sc *dpScratch, rows []tableRow) *dpTable {
	h, n := d.h, len(rows)
	blocks := (h + 1) * (h + 1)
	depth := slices.Grow(sc.depth[:0], 2*n)[:2*n] // m, then the deepest zero-demand level z
	for i := range rows {
		depth[2*i], depth[2*i+1] = d.codec.depths(rows[i].key)
	}
	next := slices.Grow(sc.next[:0], (h+1)*n)[:(h+1)*n]
	for i := range next {
		next[i] = -1
	}
	recs := sc.recsRep[:0]
	for j := 0; j <= h; j++ {
		if j < h { // under j = h every valid row has m = h: singletons
			sc.groups.reset(n)
		}
		link := next[j*n : (j+1)*n]
		pre := d.codec.prefix[j]
		for i := range rows {
			m, z := int(depth[2*i]), int(depth[2*i+1])
			if m < j || z > j {
				continue
			}
			b := int32(j*(h+1) + m)
			if m == j {
				recs = append(recs, repRec{b, int32(i)})
				continue
			}
			// The prefix fields of levels j+1..h are zero, and m−j fits in
			// them, so the group key is injective for this j.
			s := sc.groups.slot(rows[i].key&pre | uint64(m-j))
			tail := sc.groups.rows[s]
			switch {
			case tail < 0:
				sc.groups.rows[s] = int32(i)
				recs = append(recs, repRec{b, int32(i)})
			case rows[i].cost > rows[tail].cost:
				link[tail] = int32(i)
				sc.groups.rows[s] = int32(i)
			}
		}
	}

	// One backing array: the links, the block offsets, then the
	// representatives counting-sorted by block (stable, so each block
	// stays in row order).
	arr := make([]int32, len(next)+blocks+1+len(recs))
	t := &dpTable{rows: rows}
	t.next = arr[:len(next):len(next)]
	copy(t.next, next)
	t.repOff = arr[len(next) : len(next)+blocks+1 : len(next)+blocks+1]
	t.reps = arr[len(next)+blocks+1:]
	for _, r := range recs {
		t.repOff[r.b+1]++
	}
	for b := 1; b <= blocks; b++ {
		t.repOff[b] += t.repOff[b-1]
	}
	cur := slices.Grow(sc.cur[:0], blocks)[:blocks]
	copy(cur, t.repOff[:blocks])
	for _, r := range recs {
		t.reps[cur[r.b]] = r.i
		cur[r.b]++
	}
	sc.depth, sc.next, sc.recsRep, sc.cur = depth[:0], next[:0], recs[:0], cur[:0]
	return t
}

// groupIndex is project's pooled open-addressing hash from a group key to
// the group's last linked row (-1 marks a free slot). reset sizes it for
// one pass, so clearing costs O(rows) rather than the largest table's
// size.
type groupIndex struct {
	keys  []uint64
	rows  []int32
	shift uint
}

// reset empties the index and sizes it to at least twice n slots.
func (g *groupIndex) reset(n int) {
	bits := uint(1)
	for 1<<bits < 2*n {
		bits++
	}
	size := 1 << bits
	g.keys = slices.Grow(g.keys[:0], size)[:size]
	g.rows = slices.Grow(g.rows[:0], size)[:size]
	for i := range g.rows {
		g.rows[i] = -1
	}
	g.shift = 64 - bits
}

// slot returns k's slot: the one holding k, or the free slot where k
// goes (the caller fills it).
func (g *groupIndex) slot(k uint64) int {
	mask := len(g.rows) - 1
	i := int((k * 0x9E3779B97F4A7C15) >> g.shift)
	for g.rows[i] >= 0 && g.keys[i] != k {
		i = (i + 1) & mask
	}
	g.keys[i] = k
	return i
}
