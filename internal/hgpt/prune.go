package hgpt

import (
	"cmp"
	"math"
	"slices"
)

// Dominance pruning. Within a table, an entry A is dominated by B when
// both have the same per-level region class (none / zero-demand region /
// demand-carrying region), B's open demands are componentwise ≤ A's, and
// B costs no more: any completion of A is a completion of B — the class
// pattern fixes every validity rule and boundary charge the parent
// merges apply, and smaller open demand only loosens capacity checks.
// Dropping dominated entries therefore cannot change the optimum; what
// it changes is the table size, which the merge step multiplies
// (experiment E20 measures the effect, and the brute-force batteries of
// internal/exact pin the exactness).
//
// Pruning is one sort and one sweep over the collected rows. Rows sort
// by (class pattern, bucket, d0, d1), where d0 and d1 are the first two
// demands and the bucket packs the demands beyond them; each (pattern,
// bucket) run is then swept in that order. One demand dimension needs a
// running minimum, two or more a prefix-minimum Fenwick tree over d1.
// This is exact for up to two dimensions and sound but partial beyond:
// only rows in equal buckets are compared. FuzzPruneMatchesOracle pins
// the sweep to the pairwise definition.

// pruneRec is one row in pruning form. dems packs the row's demands so
// that, within one pattern, comparing dems compares (bucket, d0, d1):
// the bucket, then d0, then d1, each in the codec's bit width. With one
// dimension dems is d0 alone.
type pruneRec struct {
	pat  uint64 // class per level, base 3: 0 none, 1 zero-demand, 2 demand
	dems uint64
	row  int32 // index into the rows being pruned
	dims int32 // demand-carrying levels
}

// prune returns the rows no other row dominates, in a new slice of
// exactly their length: the finished table's backing array, so a table
// never carries the capacity of its unpruned rows. rows is left as is.
func (d *dpRun) prune(sc *dpScratch, rows []tableRow) []tableRow {
	bits := d.codec.bits
	recs := sc.recs[:0]
	sig := sc.sig
	for i := range rows {
		d.codec.decode(rows[i].key, sig)
		var pat, bucket, d0, d1 uint64
		var dims int32
		for j := 1; j <= d.h; j++ {
			x := uint64(sig[j])
			if x < 2 {
				pat = pat*3 + x
				continue
			}
			pat = pat*3 + 2
			switch dims {
			case 0:
				d0 = x
			case 1:
				d1 = x
			default:
				bucket = bucket<<bits | x
			}
			dims++
		}
		dems := d0
		if dims >= 2 {
			dems = bucket<<(2*bits) | d0<<bits | d1
		}
		recs = append(recs, pruneRec{pat: pat, dems: dems, row: int32(i), dims: dims})
	}
	slices.SortFunc(recs, func(a, b pruneRec) int {
		if c := cmp.Compare(a.pat, b.pat); c != 0 {
			return c
		}
		return cmp.Compare(a.dems, b.dems)
	})

	// Sweep each (pattern, bucket) run; a dropped row's record gets
	// row = -1.
	bucketOf := func(r pruneRec) uint64 {
		if r.dims < 2 {
			return 0
		}
		return r.dems >> (2 * bits)
	}
	kept := 0
	for lo := 0; lo < len(recs); {
		first := recs[lo]
		hi := lo + 1
		for hi < len(recs) && recs[hi].pat == first.pat && bucketOf(recs[hi]) == bucketOf(first) {
			hi++
		}
		if first.dims < 2 {
			kept += pruneRun1D(recs[lo:hi], rows)
		} else {
			kept += d.pruneRun2D(sc, recs[lo:hi], rows)
		}
		lo = hi
	}

	out := make([]tableRow, 0, kept)
	for _, r := range recs {
		if r.row >= 0 {
			out = append(out, rows[r.row])
		}
	}
	sc.recs = recs[:0]
	return out
}

// pruneRun1D sweeps a run in d0 order with a running cost minimum: a
// row is dominated exactly when an earlier row costs no more. It
// returns the number of rows kept.
func pruneRun1D(run []pruneRec, rows []tableRow) int {
	best := math.Inf(1)
	kept := 0
	for i := range run {
		c := rows[run[i].row].cost
		if c >= best {
			run[i].row = -1
			continue
		}
		best = c
		kept++
	}
	return kept
}

// pruneRun2D sweeps a run in (d0, d1) order with a prefix-minimum
// Fenwick tree over the coordinate-compressed d1 values: a row is
// dominated exactly when an earlier row with d1 no larger costs no more.
// A dominated row is not inserted (its dominator dominates everything
// it would). It returns the number of rows kept.
func (d *dpRun) pruneRun2D(sc *dpScratch, run []pruneRec, rows []tableRow) int {
	mask := d.codec.mask
	ys := sc.ys[:0]
	for _, r := range run {
		ys = append(ys, r.dems&mask)
	}
	slices.Sort(ys)
	ys = slices.Compact(ys)
	n := len(ys) + 1
	fw := slices.Grow(sc.fw[:0], n)[:n]
	for i := range fw {
		fw[i] = math.Inf(1)
	}
	kept := 0
	for i := range run {
		rk, _ := slices.BinarySearch(ys, run[i].dems&mask)
		c := rows[run[i].row].cost
		if fw.prefixMin(rk) <= c {
			run[i].row = -1
			continue
		}
		fw.update(rk, c)
		kept++
	}
	sc.ys, sc.fw = ys[:0], fw[:0]
	return kept
}

// minFenwick is a Fenwick tree (1-based, f[0] unused) supporting
// prefix-minimum queries and point updates. Empty prefixes read +Inf,
// which no row cost reaches: putEntry refuses +Inf.
type minFenwick []float64

// update lowers the value at 0-based index i to at most v.
func (f minFenwick) update(i int, v float64) {
	for i++; i < len(f); i += i & (-i) {
		if v < f[i] {
			f[i] = v
		}
	}
}

// prefixMin returns the minimum over indices [0, i] (0-based, inclusive).
func (f minFenwick) prefixMin(i int) float64 {
	m := math.Inf(1)
	for i++; i > 0; i -= i & (-i) {
		if f[i] < m {
			m = f[i]
		}
	}
	return m
}
