package cache

import (
	"fmt"
	"sync"
	"testing"

	"hierpart/internal/canon"
	"hierpart/internal/gen"
	"hierpart/internal/graph"
	"hierpart/internal/hierarchy"
	"hierpart/internal/treedecomp"
)

func TestLRUHitMissPromotion(t *testing.T) {
	c := New(2)
	c.Add("a", 1)
	c.Add("b", 2)
	if v, ok := c.Get("a"); !ok || v.(int) != 1 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	c.Add("c", 3) // evicts b: a was promoted by the Get above
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should have survived (recently used)")
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 1 || s.Evictions != 1 || s.Len != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if want := 2.0 / 3.0; s.HitRatio != want {
		t.Fatalf("hit ratio = %v, want %v", s.HitRatio, want)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := New(3)
	for i := 0; i < 3; i++ {
		c.Add(fmt.Sprint(i), i)
	}
	c.Get("0") // 1 is now coldest
	c.Add("3", 3)
	if _, ok := c.Get("1"); ok {
		t.Fatal("1 should have been evicted (coldest)")
	}
	for _, k := range []string{"0", "2", "3"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s should be present", k)
		}
	}
}

func TestLRUAddRefreshesExisting(t *testing.T) {
	c := New(2)
	c.Add("a", 1)
	c.Add("b", 2)
	c.Add("a", 10) // refresh, not insert: b must survive the next Add
	c.Add("c", 3)
	if v, ok := c.Get("a"); !ok || v.(int) != 10 {
		t.Fatalf("Get(a) = %v, %v, want 10", v, ok)
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("b was coldest and should have been evicted")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
}

func TestLRUAddReturnsEvicted(t *testing.T) {
	c := New(2)
	if ev := c.Add("a", 1); ev != nil {
		t.Fatalf("Add(a) into room evicted %v", ev)
	}
	c.Add("b", 2)
	if ev := c.Add("a", 10); ev != nil {
		t.Fatalf("refreshing a evicted %v", ev)
	}
	if ev := c.Add("c", 3); ev != 2 {
		t.Fatalf("Add(c) evicted %v, want b's value 2", ev)
	}
	if s := c.Stats(); s.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.Evictions)
	}
}

func TestLRURemoveIsNotEvictionOrLookup(t *testing.T) {
	c := New(2)
	c.Add("a", 1)
	c.Add("b", 2)
	if v, ok := c.Remove("a"); !ok || v != 1 {
		t.Fatalf("Remove(a) = %v, %v, want 1, true", v, ok)
	}
	if v, ok := c.Remove("a"); ok || v != nil {
		t.Fatalf("second Remove(a) = %v, %v, want nil, false", v, ok)
	}
	if s := c.Stats(); s.Hits != 0 || s.Misses != 0 || s.Evictions != 0 || s.Len != 1 {
		t.Fatalf("stats after Remove = %+v, want no hits, misses or evictions and len 1", s)
	}
	// The freed slot takes a new key without evicting b.
	if ev := c.Add("c", 3); ev != nil {
		t.Fatalf("Add(c) after Remove evicted %v", ev)
	}
	if _, ok := c.Peek("b"); !ok {
		t.Fatal("b should have survived")
	}
}

func TestLRUMinimumCapacity(t *testing.T) {
	c := New(0)
	c.Add("a", 1)
	c.Add("b", 2)
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1 (capacity clamps to 1)", c.Len())
	}
}

func TestLRUConcurrent(t *testing.T) {
	c := New(16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprint((w + i) % 32)
				c.Add(k, i)
				c.Get(k)
			}
		}()
	}
	wg.Wait()
	if c.Len() > 16 {
		t.Fatalf("len = %d exceeds capacity", c.Len())
	}
}

func TestDecompKeyCanonical(t *testing.T) {
	build := func() *graph.Graph {
		g := graph.New(4)
		g.SetDemand(0, 0.5)
		g.AddEdge(0, 1, 2)
		g.AddEdge(2, 3, 1)
		return g
	}
	// Same graph built with edges in a different insertion order.
	reordered := graph.New(4)
	reordered.SetDemand(0, 0.5)
	reordered.AddEdge(3, 2, 1)
	reordered.AddEdge(1, 0, 2)

	opt := treedecomp.Options{Trees: 4, Seed: 1}
	base := DecompKey(build(), opt)
	if DecompKey(reordered, opt) != base {
		t.Fatal("key must be insertion-order independent")
	}
	// Workers must not fragment the cache (same distribution).
	if DecompKey(build(), treedecomp.Options{Trees: 4, Seed: 1, Workers: 8}) != base {
		t.Fatal("key must ignore Workers")
	}
	// FMPasses 0 means 4 — the default and the explicit value collide.
	if DecompKey(build(), treedecomp.Options{Trees: 4, Seed: 1, FMPasses: 4}) != base {
		t.Fatal("key must treat FMPasses 0 and 4 as equal (solver default)")
	}

	// Every distribution-shaping change must change the key.
	diff := map[string]string{}
	record := func(name, key string) {
		if key == base {
			t.Fatalf("%s: key should differ from base", name)
		}
		if prev, ok := diff[key]; ok {
			t.Fatalf("key collision between %s and %s", name, prev)
		}
		diff[key] = name
	}
	record("seed", DecompKey(build(), treedecomp.Options{Trees: 4, Seed: 2}))
	record("trees", DecompKey(build(), treedecomp.Options{Trees: 5, Seed: 1}))
	record("fmpasses", DecompKey(build(), treedecomp.Options{Trees: 4, Seed: 1, FMPasses: 2}))
	record("flowrefine", DecompKey(build(), treedecomp.Options{Trees: 4, Seed: 1, FlowRefine: true}))
	record("strategy", DecompKey(build(), treedecomp.Options{Trees: 4, Seed: 1, Strategy: treedecomp.FRT}))

	gw := build()
	gw.AddEdge(1, 2, 0.5)
	record("extra edge", DecompKey(gw, opt))
	gd := build()
	gd.SetDemand(3, 0.25)
	record("demand change", DecompKey(gd, opt))
}

func TestDecompKeyStableAcrossGenerators(t *testing.T) {
	a := gen.Grid(6, 6, 1)
	b := gen.Grid(6, 6, 1)
	if DecompKey(a, treedecomp.Options{Trees: 2}) != DecompKey(b, treedecomp.Options{Trees: 2}) {
		t.Fatal("identical graphs must key identically")
	}
}

// TestResultKeyInvalidation pins the result-cache contract (satellite:
// invalidation tests): every request field that changes the returned
// placement must change the key, and fields that provably do not
// (Workers) must not, so warm traffic keeps hitting across worker-count
// changes.
func TestResultKeyInvalidation(t *testing.T) {
	g := gen.Grid(4, 4, 2)
	gen.EqualDemands(g, 0.3)
	h := hierarchy.MustNew([]int{2, 2}, []float64{9, 2, 0})
	opt := treedecomp.Options{Trees: 3, Seed: 7}
	base := ResultKey(g, h, opt, 0.5, 0)

	if got := ResultKey(g, h, opt, 0.5, 0); got != base {
		t.Fatal("identical inputs must produce identical keys")
	}

	// Workers shapes neither the decomposition distribution nor the DP
	// result, so it is not part of the key at all: two requests differing
	// only in Workers share one cache slot by construction.
	wOpt := opt
	wOpt.Workers = 8
	if got := ResultKey(g, h, wOpt, 0.5, 0); got != base {
		t.Fatal("Workers change must still hit the cached result")
	}

	miss := map[string]string{}
	miss["eps"] = ResultKey(g, h, opt, 0.25, 0)
	miss["max_states"] = ResultKey(g, h, opt, 0.5, 100000)
	tOpt := opt
	tOpt.Trees = 4
	miss["trees"] = ResultKey(g, h, tOpt, 0.5, 0)
	sOpt := opt
	sOpt.Seed = 8
	miss["seed"] = ResultKey(g, h, sOpt, 0.5, 0)
	stOpt := opt
	stOpt.Strategy = treedecomp.MinCutSplit
	miss["strategy"] = ResultKey(g, h, stOpt, 0.5, 0)
	miss["hierarchy_cm"] = ResultKey(g, hierarchy.MustNew([]int{2, 2}, []float64{9, 3, 0}), opt, 0.5, 0)
	miss["hierarchy_deg"] = ResultKey(g, hierarchy.MustNew([]int{4, 1}, []float64{9, 2, 0}), opt, 0.5, 0)

	g2 := gen.Grid(4, 4, 2)
	gen.EqualDemands(g2, 0.35)
	miss["demands"] = ResultKey(g2, h, opt, 0.5, 0)

	seen := map[string]string{base: "base"}
	for field, k := range miss {
		if prev, dup := seen[k]; dup {
			t.Fatalf("changing %s collided with %s", field, prev)
		}
		seen[k] = field
	}
}

// TestResultKeyDisjointFromDecompKey: the two key spaces are
// domain-separated — a result key can never alias a decomposition key
// even for the same request.
func TestResultKeyDisjointFromDecompKey(t *testing.T) {
	g := gen.Grid(3, 3, 2)
	gen.EqualDemands(g, 0.3)
	h := hierarchy.FlatKWay(4)
	opt := treedecomp.Options{Trees: 2, Seed: 1}
	if ResultKey(g, h, opt, 0.5, 0) == DecompKey(g, opt) {
		t.Fatal("result key aliases decomposition key")
	}
}

// TestCanonicalKeysPinned pins one fingerprint, one DecompKeyCanon and
// one ResultKeyCanon value: hgpload's two-clique, which canonicalizes
// only through the tie-break search, under fixed options. Canonical keys
// must never move, or every warm state directory and peer goes cold.
func TestCanonicalKeysPinned(t *testing.T) {
	g := graph.New(8)
	for v := 0; v < 8; v++ {
		g.SetDemand(v, 0.5)
	}
	for b := 0; b < 8; b += 4 {
		for i := b; i < b+4; i++ {
			for j := i + 1; j < b+4; j++ {
				g.AddEdge(i, j, 10)
			}
		}
	}
	g.AddEdge(0, 4, 1)
	f, ok := canon.Canonicalize(g)
	if !ok {
		t.Fatal("the two-clique must canonicalize")
	}
	opt := treedecomp.Options{Trees: 4, Seed: 7}
	H := hierarchy.MustNew([]int{2, 4}, []float64{8, 2, 0})
	for name, got := range map[string]string{
		"fingerprint": f.Fingerprint,
		"decomp":      DecompKeyCanon(f.Fingerprint, opt),
		"result":      ResultKeyCanon(f.Fingerprint, H, opt, 0.5, 1000),
	} {
		want := map[string]string{
			"fingerprint": "9f5288ab0ff432827d4f3c573375d5e1207fb47e97e097d81cdadedf8b2bc608",
			"decomp":      "42915eb94bc4680af0db4db0e9d0cae9480f0a0765407aa6dd10dc8569521e30",
			"result":      "e0a020e6582ecade9729da7fa7e31c9b07d6ace490e1f7bec62c6fad16531edc",
		}[name]
		if got != want {
			t.Errorf("%s = %s, pinned %s", name, got, want)
		}
	}
}

// TestLabelledKeysShareTheCanonicalDomain: the perfbench wrappers key a
// graph by its labelled form, so a labelled graph that equals some
// canonical graph byte for byte gets that canonical graph's keys —
// sound, because both are the same serialized graph.
func TestLabelledKeysShareTheCanonicalDomain(t *testing.T) {
	g := gen.Grid(3, 4, 2)
	gen.EqualDemands(g, 0.25)
	g.SetDemand(0, 0.5) // breaks the grid's symmetry
	f, ok := canon.Canonicalize(g)
	if !ok {
		t.Fatal("an asymmetric grid must canonicalize")
	}
	opt := treedecomp.Options{Trees: 2, Seed: 3}
	H := hierarchy.FlatKWay(4)
	if got, want := DecompKey(g, opt), DecompKeyCanon(canon.Labelled(g).Fingerprint, opt); got != want {
		t.Fatal("DecompKey must be DecompKeyCanon of the labelled form")
	}
	if got, want := ResultKey(g, H, opt, 0.5, 0), ResultKeyCanon(canon.Labelled(g).Fingerprint, H, opt, 0.5, 0); got != want {
		t.Fatal("ResultKey must be ResultKeyCanon of the labelled form")
	}
	// The canonical graph, submitted under its canonical labels, is its
	// own labelled form.
	if DecompKey(f.Graph, opt) != DecompKeyCanon(f.Fingerprint, opt) {
		t.Fatal("the canonical graph's labelled key must equal its canonical key")
	}
}
