package tree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// star builds a root with n leaf children of the given edge weights.
func star(ws ...float64) *Tree {
	t := New()
	for _, w := range ws {
		t.AddChild(0, w)
	}
	return t
}

func TestBasicStructure(t *testing.T) {
	tr := New()
	a := tr.AddChild(0, 2)
	b := tr.AddChild(0, 3)
	c := tr.AddChild(a, 1)
	if tr.N() != 4 {
		t.Fatalf("N = %d", tr.N())
	}
	if tr.Parent(c) != a || tr.Parent(a) != 0 || tr.Parent(0) != -1 {
		t.Fatal("parents wrong")
	}
	if tr.EdgeWeight(b) != 3 || tr.EdgeWeight(c) != 1 {
		t.Fatal("edge weights wrong")
	}
	if tr.IsLeaf(a) || !tr.IsLeaf(b) || !tr.IsLeaf(c) {
		t.Fatal("leaf detection wrong")
	}
	ls := tr.Leaves()
	if len(ls) != 2 || ls[0] != b || ls[1] != c {
		t.Fatalf("leaves = %v", ls)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDemandsAndLabels(t *testing.T) {
	tr := star(1, 1)
	tr.SetDemand(1, 0.5)
	tr.SetLabel(2, 42)
	if tr.Demand(1) != 0.5 || tr.Demand(2) != 0 {
		t.Fatal("demands wrong")
	}
	if tr.Label(2) != 42 || tr.Label(1) != -1 {
		t.Fatal("labels wrong")
	}
	if tr.TotalDemand() != 0.5 {
		t.Fatalf("total demand = %v", tr.TotalDemand())
	}
}

func TestSetDemandPanics(t *testing.T) {
	tr := New()
	tr.AddChild(0, 1)
	for name, fn := range map[string]func(){
		"internal": func() { tr.SetDemand(0, 1) },
		"negative": func() { tr.SetDemand(1, -1) },
		"rootEdge": func() { tr.EdgeWeight(0) },
		"badWeight": func() {
			tt := New()
			tt.AddChild(0, -2)
		},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		})
	}
}

func TestPostOrder(t *testing.T) {
	tr := New()
	a := tr.AddChild(0, 1)
	b := tr.AddChild(0, 1)
	c := tr.AddChild(a, 1)
	order := tr.PostOrder()
	pos := make(map[int]int)
	for i, v := range order {
		pos[v] = i
	}
	if len(order) != 4 || order[len(order)-1] != 0 {
		t.Fatalf("post-order = %v", order)
	}
	if pos[c] > pos[a] || pos[a] > pos[0] || pos[b] > pos[0] {
		t.Fatalf("post-order violates child-before-parent: %v", order)
	}
}

func TestBinarize(t *testing.T) {
	// Root with 4 leaf children; demands 1..4, labels 10..13.
	tr := star(1, 2, 3, 4)
	for i := 1; i <= 4; i++ {
		tr.SetDemand(i, float64(i))
		tr.SetLabel(i, 9+i)
	}
	bt, origOf := tr.Binarize()
	if err := bt.Validate(); err != nil {
		t.Fatal(err)
	}
	if bt.MaxChildren() > 2 {
		t.Fatalf("binarized tree has node with %d children", bt.MaxChildren())
	}
	// Leaves, demands, and labels must be preserved.
	leaves := bt.Leaves()
	if len(leaves) != 4 {
		t.Fatalf("got %d leaves, want 4", len(leaves))
	}
	var demandSum float64
	seenLabels := map[int]bool{}
	for _, l := range leaves {
		demandSum += bt.Demand(l)
		seenLabels[bt.Label(l)] = true
		if orig := origOf[l]; tr.Demand(orig) != bt.Demand(l) {
			t.Fatalf("leaf %d: demand mismatch with original %d", l, orig)
		}
	}
	if demandSum != 10 {
		t.Fatalf("demand sum = %v, want 10", demandSum)
	}
	for i := 10; i <= 13; i++ {
		if !seenLabels[i] {
			t.Fatalf("label %d lost in binarization", i)
		}
	}
	// Dummy edges are infinite; real edges keep their weight.
	wantWeights := map[float64]int{1: 1, 2: 1, 3: 1, 4: 1}
	infEdges := 0
	for v := 1; v < bt.N(); v++ {
		w := bt.EdgeWeight(v)
		if math.IsInf(w, 1) {
			infEdges++
		} else {
			wantWeights[w]--
		}
	}
	for w, c := range wantWeights {
		if c != 0 {
			t.Fatalf("edge weight %v count off by %d", w, c)
		}
	}
	if infEdges != bt.N()-1-4 {
		t.Fatalf("got %d infinite edges, want %d", infEdges, bt.N()-1-4)
	}
}

func TestBinarizeDeep(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := New()
	// Random tree with fanouts up to 5.
	frontier := []int{0}
	for len(frontier) > 0 && tr.N() < 40 {
		v := frontier[0]
		frontier = frontier[1:]
		kids := rng.Intn(6)
		for i := 0; i < kids && tr.N() < 40; i++ {
			c := tr.AddChild(v, 1+rng.Float64())
			frontier = append(frontier, c)
		}
	}
	for _, l := range tr.Leaves() {
		tr.SetDemand(l, rng.Float64())
	}
	bt, origOf := tr.Binarize()
	if err := bt.Validate(); err != nil {
		t.Fatal(err)
	}
	if bt.MaxChildren() > 2 {
		t.Fatalf("max children = %d", bt.MaxChildren())
	}
	if len(bt.Leaves()) != len(tr.Leaves()) {
		t.Fatalf("leaf count changed: %d vs %d", len(bt.Leaves()), len(tr.Leaves()))
	}
	if math.Abs(bt.TotalDemand()-tr.TotalDemand()) > 1e-12 {
		t.Fatalf("total demand changed")
	}
	if len(origOf) != bt.N() {
		t.Fatalf("origOf length %d != N %d", len(origOf), bt.N())
	}
}

func TestCutLeafSetPath(t *testing.T) {
	// Root - a - b(leaf d=?), root - c(leaf). Separate {b} from {c}.
	tr := New()
	a := tr.AddChild(0, 5)
	b := tr.AddChild(a, 2)
	c := tr.AddChild(0, 7)
	res := tr.CutLeafSetOf(map[int]bool{b: true})
	if res.Weight != 2 {
		t.Fatalf("cut weight = %v, want 2 (cut the cheapest separating edge)", res.Weight)
	}
	if !res.InMirror[b] || res.InMirror[c] || res.InMirror[0] {
		t.Fatalf("mirror = %v", res.InMirror)
	}
	// Tie-breaking: N(S) should be as small as possible: just {b}.
	if res.MirrorSize != 1 {
		t.Fatalf("mirror size = %d, want 1", res.MirrorSize)
	}
	if len(res.CutEdges) != 1 || res.CutEdges[0] != b {
		t.Fatalf("cut edges = %v", res.CutEdges)
	}
}

func TestCutLeafSetChoosesCheaperSide(t *testing.T) {
	// Star with leaves of edge weights 1, 10: separating leaf 2 (w=10)
	// should cut edge of weight 1+... wait: separating {2} from {1}
	// can cut edge to 1 (w=1, mirror {2, root}) or edge to 2 (w=10).
	tr := star(1, 10)
	res := tr.CutLeafSetOf(map[int]bool{2: true})
	if res.Weight != 1 {
		t.Fatalf("weight = %v, want 1", res.Weight)
	}
	if !res.InMirror[2] || !res.InMirror[0] || res.InMirror[1] {
		t.Fatalf("mirror = %v, want root on S side", res.InMirror)
	}
}

func TestCutLeafSetEmptyAndFull(t *testing.T) {
	tr := star(3, 4, 5)
	empty := tr.CutLeafSetOf(map[int]bool{})
	if empty.Weight != 0 || empty.MirrorSize != 0 {
		t.Fatalf("empty cut: %+v", empty)
	}
	full := tr.CutLeafSetOf(map[int]bool{1: true, 2: true, 3: true})
	if full.Weight != 0 {
		t.Fatalf("full cut weight = %v, want 0", full.Weight)
	}
	if full.MirrorSize != 4 {
		t.Fatalf("full mirror size = %d, want all nodes", full.MirrorSize)
	}
}

func TestCutLeafSetInfiniteEdges(t *testing.T) {
	// Two leaves joined to the root by infinite edges: separating them
	// costs +Inf.
	tr := star(math.Inf(1), math.Inf(1))
	res := tr.CutLeafSetOf(map[int]bool{1: true})
	if !math.IsInf(res.Weight, 1) {
		t.Fatalf("weight = %v, want +Inf", res.Weight)
	}
}

func TestCutLeafSetOfPanicsOnInternal(t *testing.T) {
	tr := New()
	a := tr.AddChild(0, 1)
	tr.AddChild(a, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.CutLeafSetOf(map[int]bool{a: true})
}

// randomTree builds a random tree with about n nodes and random weights.
func randomTree(rng *rand.Rand, n int) *Tree {
	tr := New()
	for tr.N() < n {
		p := rng.Intn(tr.N())
		tr.AddChild(p, 1+rng.Float64()*9)
	}
	return tr
}

// bruteCut enumerates all 2^internal labelings to find the minimum cut
// weight separating S leaves from non-S leaves.
func bruteCut(tr *Tree, inS map[int]bool) float64 {
	var internal []int
	labels := make([]byte, tr.N())
	for v := 0; v < tr.N(); v++ {
		if tr.IsLeaf(v) {
			if inS[v] {
				labels[v] = 1
			}
		} else {
			internal = append(internal, v)
		}
	}
	best := math.Inf(1)
	for mask := 0; mask < 1<<uint(len(internal)); mask++ {
		for i, v := range internal {
			labels[v] = byte(mask >> uint(i) & 1)
		}
		var c float64
		for v := 1; v < tr.N(); v++ {
			if labels[v] != labels[tr.Parent(v)] {
				c += tr.EdgeWeight(v)
			}
		}
		if c < best {
			best = c
		}
	}
	return best
}

// Property: the cut DP matches brute force on random small trees and
// random leaf subsets.
func TestCutLeafSetMatchesBrute(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTree(rng, 3+rng.Intn(10))
		inS := map[int]bool{}
		for _, l := range tr.Leaves() {
			if rng.Float64() < 0.5 {
				inS[l] = true
			}
		}
		got := tr.CutLeafSetOf(inS)
		want := bruteCut(tr, inS)
		if math.Abs(got.Weight-want) > 1e-9 {
			return false
		}
		// The reported cut edges must sum to the weight and their removal
		// must realize the mirror partition.
		var sum float64
		for _, v := range got.CutEdges {
			sum += tr.EdgeWeight(v)
		}
		if math.Abs(sum-got.Weight) > 1e-9 {
			return false
		}
		// Mirror contains exactly the S leaves among leaves.
		for _, l := range tr.Leaves() {
			if got.InMirror[l] != inS[l] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: binarization preserves CUT weights for every leaf subset.
func TestBinarizePreservesCuts(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTree(rng, 3+rng.Intn(8))
		bt, origOf := tr.Binarize()
		// Map original leaves to binarized leaves.
		leafOf := map[int]int{}
		for _, l := range bt.Leaves() {
			leafOf[origOf[l]] = l
		}
		inS := map[int]bool{}
		for _, l := range tr.Leaves() {
			if rng.Float64() < 0.5 {
				inS[l] = true
			}
		}
		binS := map[int]bool{}
		for l := range inS {
			binS[leafOf[l]] = true
		}
		a := tr.CutLeafSetOf(inS).Weight
		b := bt.CutLeafSetOf(binS).Weight
		return math.Abs(a-b) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// fillBisection appends the nodes of a complete bisection tree over
// k leaves (2k−1 nodes) under the root of t.
func fillBisection(t *Tree, node, k int) {
	if k == 1 {
		return
	}
	for _, part := range []int{k / 2, k - k/2} {
		fillBisection(t, t.AddChild(node, 1), part)
	}
}

// A grown tree fills without reallocating its node arrays, so building
// it allocates less than building an ungrown one.
func TestGrowPresizesNodeArrays(t *testing.T) {
	const k = 100
	grown := testing.AllocsPerRun(20, func() {
		tr := New()
		tr.Grow(2*k - 2)
		fillBisection(tr, 0, k)
	})
	ungrown := testing.AllocsPerRun(20, func() {
		fillBisection(New(), 0, k)
	})
	if grown >= ungrown {
		t.Fatalf("grown tree: %v allocs per build, ungrown: %v; Grow saved nothing", grown, ungrown)
	}

	tr := New()
	tr.Grow(2*k - 2)
	before := cap(tr.parent)
	fillBisection(tr, 0, k)
	if tr.N() != 2*k-1 {
		t.Fatalf("N = %d, want %d", tr.N(), 2*k-1)
	}
	if cap(tr.parent) != before {
		t.Fatalf("node arrays reallocated during fill: cap %d -> %d", before, cap(tr.parent))
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}
