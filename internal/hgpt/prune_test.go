package hgpt

import (
	"cmp"
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// FuzzPruneMatchesOracle pins dominance pruning to its definition. At
// every internal node of a random tree it builds the node's build index
// the way freeze sees it — children pruned, the node itself not yet —
// and requires freeze to keep exactly the rows a brute-force oracle
// keeps: a row is dropped when another row of its (class pattern,
// bucket) group is ≤ in its first demand, ≤ in its second demand and
// ≤ in cost (the bucket packs the demands beyond the first two).
//
// With huge set, every index cost is mapped monotonically into
// [1e308, MaxFloat64): finite costs the objective can reach with large
// edge weights, on which no sentinel may stand in for "no dominator".
func FuzzPruneMatchesOracle(f *testing.F) {
	for hi := range fuzzHierarchies {
		for _, huge := range []bool{false, true} {
			f.Add(int64(hi+1), uint8(hi), huge)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, hier uint8, huge bool) {
		tr := fuzzTree(rand.New(rand.NewSource(seed)), 9)
		h := fuzzHierarchies[int(hier)%len(fuzzHierarchies)]
		d, _, err := Solver{Eps: 0.5}.newRun(tr, h)
		if err != nil {
			t.Fatal(err)
		}
		tabs, _, err := d.runTables(context.Background(), 1, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range d.bt.PostOrder() {
			if d.bt.IsLeaf(v) {
				continue
			}
			sc := d.scratch.Get().(*dpScratch)
			kids := d.bt.Children(v)
			if len(kids) == 1 {
				d.oneChildTable(sc, kids[0], tabs[kids[0]], math.Inf(1))
			} else {
				c1, c2 := kids[0], kids[1]
				d.crossInto(sc, tabs[c1], d.bt.EdgeWeight(c1), 0, 1, tabs[c2], d.bt.EdgeWeight(c2), math.Inf(1))
			}
			if huge {
				hugeCosts(sc.idx)
			}
			rows := make([]tableRow, 0, len(sc.idx))
			for k, e := range sc.idx {
				rows = append(rows, tableRow{key: k, entry: e})
			}
			want := d.newTable(pruneOracle(d, rows))
			if got := d.freeze(sc); !reflect.DeepEqual(got, want) {
				t.Fatalf("node %d (%d children, %d index rows): pruned table differs from the oracle:\ngot  %v\nwant %v",
					v, len(kids), len(rows), got.rows, want.rows)
			}
		}
	})
}

// hugeCosts maps every cost c of the index to 1e308 + c/max·0.7e308,
// keeping their order (ties may merge, which the oracle handles).
func hugeCosts(idx map[uint64]entry) {
	var max float64
	for _, e := range idx {
		max = math.Max(max, e.cost)
	}
	for k, e := range idx {
		frac := 0.0
		if max > 0 {
			frac = e.cost / max
		}
		e.cost = 1e308 + frac*0.7e308
		idx[k] = e
	}
}

// pruneOracle returns the rows no other row of their group dominates,
// in (cost, key) order, by comparing every pair.
func pruneOracle(d *dpRun, rows []tableRow) []tableRow {
	type view struct {
		pat, bucket uint64
		d0, d1      int
	}
	sig := make([]int, d.h+1)
	views := make([]view, len(rows))
	for i, r := range rows {
		d.codec.decode(r.key, sig)
		var vw view
		var dems []int
		for j := 1; j <= d.h; j++ {
			c := uint64(min(sig[j], 2))
			vw.pat = vw.pat*3 + c
			if c == 2 {
				dems = append(dems, sig[j])
			}
		}
		if len(dems) > 0 {
			vw.d0 = dems[0]
		}
		if len(dems) > 1 {
			vw.d1 = dems[1]
			for _, x := range dems[2:] {
				vw.bucket = vw.bucket<<d.codec.bits | uint64(x)
			}
		}
		views[i] = vw
	}
	var keep []tableRow
	for i, a := range views {
		dominated := false
		for j, b := range views {
			if i != j && a.pat == b.pat && a.bucket == b.bucket &&
				b.d0 <= a.d0 && b.d1 <= a.d1 && rows[j].cost <= rows[i].cost {
				dominated = true
				break
			}
		}
		if !dominated {
			keep = append(keep, rows[i])
		}
	}
	slices.SortFunc(keep, func(a, b tableRow) int {
		if c := cmp.Compare(a.cost, b.cost); c != 0 {
			return c
		}
		return cmp.Compare(a.key, b.key)
	})
	if keep == nil {
		keep = []tableRow{}
	}
	return keep
}
