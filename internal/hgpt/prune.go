package hgpt

import (
	"sort"
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
// Pruning is exact per class-pattern group: a prefix-minimum sweep for
// one demand dimension, a Fenwick-tree sweep for two, and the
// two-dimensional sweep within equal-third-demand buckets for three or
// more (sound but partial beyond two dimensions).

// pruneRec is one table entry in pruning form: its key, the demands of
// its demand-carrying levels, and its cost.
type pruneRec struct {
	key  uint64
	dems []int
	cost float64
}

// prune removes dominated entries from a node's build index in place,
// before freeze turns it into rows.
func (d *dpRun) prune(tab map[uint64]entry) {
	if len(tab) < 2 {
		return
	}
	groups := map[uint64][]pruneRec{}
	sc := d.scratch.Get().(*dpScratch)
	sig := sc.sig
	// One backing array for every record's demand vector: at most h
	// demand-carrying levels per entry, so the capacity below is exact
	// and append never reallocates (keeping earlier sub-slices valid).
	backing := make([]int, 0, d.h*len(tab))
	for k, e := range tab {
		d.codec.decode(k, sig)
		// Class pattern: 0 = none, 1 = zero-demand region, 2 = demand.
		var pat uint64
		start := len(backing)
		for j := 1; j <= d.h; j++ {
			switch {
			case sig[j] == 0:
				pat = pat*3 + 0
			case sig[j] == 1:
				pat = pat*3 + 1
			default:
				pat = pat*3 + 2
				backing = append(backing, sig[j])
			}
		}
		groups[pat] = append(groups[pat], pruneRec{key: k, dems: backing[start:len(backing):len(backing)], cost: e.cost})
	}
	d.scratch.Put(sc)

	for _, g := range groups {
		if len(g) < 2 {
			continue
		}
		dims := len(g[0].dems)
		switch dims {
		case 0:
			// Identical signatures are unique per map; dims 0 means a
			// single possible signature — nothing to prune.
		case 1:
			sort.Slice(g, func(a, b int) bool {
				if g[a].dems[0] != g[b].dems[0] {
					return g[a].dems[0] < g[b].dems[0]
				}
				return g[a].cost < g[b].cost
			})
			best := g[0].cost
			for i := 1; i < len(g); i++ {
				if g[i].cost >= best {
					delete(tab, g[i].key)
				} else {
					best = g[i].cost
				}
			}
		default:
			// Bucket by the demands beyond the first two (equal-bucket
			// dominance only — sound, partial), then 2-D sweep on
			// (dems[0], dems[1]) with a Fenwick prefix-min over dems[1].
			// Demands fit the signature codec's per-level bit width, so
			// packing dems[2:] the same way yields a collision-free
			// uint64 bucket key without string building.
			buckets := map[uint64][]pruneRec{}
			for _, r := range g {
				var key uint64
				for _, x := range r.dems[2:] {
					key = key<<d.codec.bits | uint64(x)
				}
				buckets[key] = append(buckets[key], r)
			}
			for _, b := range buckets {
				prune2D(tab, b)
			}
		}
	}
}

// prune2D removes entries dominated in (dems[0], dems[1], cost).
func prune2D(tab map[uint64]entry, g []pruneRec) {
	if len(g) < 2 {
		return
	}
	// Coordinate-compress the second dimension.
	ys := make([]int, len(g))
	for i, r := range g {
		ys[i] = r.dems[1]
	}
	sort.Ints(ys)
	ys = dedupInts(ys)
	rank := func(y int) int { return sort.SearchInts(ys, y) }

	fw := newMinFenwick(len(ys))
	sort.Slice(g, func(a, b int) bool {
		if g[a].dems[0] != g[b].dems[0] {
			return g[a].dems[0] < g[b].dems[0]
		}
		if g[a].dems[1] != g[b].dems[1] {
			return g[a].dems[1] < g[b].dems[1]
		}
		return g[a].cost < g[b].cost
	})
	for _, r := range g {
		rk := rank(r.dems[1])
		if fw.prefixMin(rk) <= r.cost {
			delete(tab, r.key)
			continue
		}
		fw.update(rk, r.cost)
	}
}

func dedupInts(a []int) []int {
	out := a[:0]
	for i, x := range a {
		if i == 0 || x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// minFenwick supports prefix-minimum queries and point updates.
type minFenwick struct {
	n int
	t []float64
}

func newMinFenwick(n int) *minFenwick {
	t := make([]float64, n+1)
	for i := range t {
		t[i] = inf
	}
	return &minFenwick{n: n, t: t}
}

const inf = 1e308

// update lowers the value at 0-based index i to at most v.
func (f *minFenwick) update(i int, v float64) {
	for i++; i <= f.n; i += i & (-i) {
		if v < f.t[i] {
			f.t[i] = v
		}
	}
}

// prefixMin returns the minimum over indices [0, i] (0-based, inclusive).
func (f *minFenwick) prefixMin(i int) float64 {
	min := inf
	for i++; i > 0; i -= i & (-i) {
		if f.t[i] < min {
			min = f.t[i]
		}
	}
	return min
}
