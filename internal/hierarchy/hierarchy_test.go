package hierarchy

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name string
		deg  []int
		cm   []float64
		want string // error substring, "" for ok
	}{
		{"ok flat", []int{4}, []float64{1, 0}, ""},
		{"ok deep", []int{2, 3, 4}, []float64{9, 5, 2, 0}, ""},
		{"empty", nil, []float64{0}, "height"},
		{"cm length", []int{2}, []float64{1, 0.5, 0}, "cost multipliers"},
		{"cm increasing", []int{2, 2}, []float64{1, 2, 0}, "non-increasing"},
		{"negative cm", []int{2}, []float64{-1, -2}, "non-negative"},
		{"negative last cm", []int{2}, []float64{1, -1}, "non-negative"},
		{"zero degree", []int{2, 0}, []float64{2, 1, 0}, "must be ≥ 1"},
		{"NaN cm", []int{2}, []float64{math.NaN(), 0}, "cm(0) = NaN, must be finite"},
		{"infinite cm", []int{2}, []float64{math.Inf(1), 0}, "cm(0) = +Inf, must be finite"},
		{"infinite cms", []int{2}, []float64{math.Inf(1), math.Inf(1)}, "cm(0) = +Inf, must be finite"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := New(c.deg, c.cm)
			if c.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %v does not contain %q", err, c.want)
			}
		})
	}
}

func TestCountsAndCaps(t *testing.T) {
	h := MustNew([]int{4, 8, 2}, []float64{100, 25, 4, 0})
	if h.Height() != 3 {
		t.Fatalf("height = %d", h.Height())
	}
	if h.Leaves() != 64 {
		t.Fatalf("leaves = %d, want 64", h.Leaves())
	}
	wantNodes := []int{1, 4, 32, 64}
	wantCap := []float64{64, 16, 2, 1}
	for j := 0; j <= 3; j++ {
		if h.NumNodes(j) != wantNodes[j] {
			t.Errorf("NumNodes(%d) = %d, want %d", j, h.NumNodes(j), wantNodes[j])
		}
		if h.Cap(j) != wantCap[j] {
			t.Errorf("Cap(%d) = %v, want %v", j, h.Cap(j), wantCap[j])
		}
	}
	if h.Deg(0) != 4 || h.Deg(1) != 8 || h.Deg(2) != 2 {
		t.Fatal("Deg mismatch")
	}
}

func TestAncestorsAndLCA(t *testing.T) {
	h := MustNew([]int{2, 3}, []float64{5, 2, 0}) // 6 leaves: 0..5
	// Leaves 0,1,2 under level-1 node 0; 3,4,5 under level-1 node 1.
	if got := h.AncestorAt(4, 1); got != 1 {
		t.Fatalf("AncestorAt(4,1) = %d, want 1", got)
	}
	if got := h.AncestorAt(2, 0); got != 0 {
		t.Fatalf("AncestorAt(2,0) = %d, want 0", got)
	}
	if got := h.AncestorAt(5, 2); got != 5 {
		t.Fatalf("AncestorAt(5,2) = %d, want 5", got)
	}
	if got := h.LCALevel(0, 2); got != 1 {
		t.Fatalf("LCA(0,2) = %d, want 1", got)
	}
	if got := h.LCALevel(2, 3); got != 0 {
		t.Fatalf("LCA(2,3) = %d, want 0", got)
	}
	if got := h.LCALevel(3, 3); got != 2 {
		t.Fatalf("LCA(3,3) = %d, want 2", got)
	}
	if got := h.EdgeCost(0, 2); got != 2 {
		t.Fatalf("EdgeCost(0,2) = %v, want cm(1)=2", got)
	}
	if got := h.EdgeCost(2, 3); got != 5 {
		t.Fatalf("EdgeCost(2,3) = %v, want cm(0)=5", got)
	}
	if got := h.EdgeCost(1, 1); got != 0 {
		t.Fatalf("EdgeCost(1,1) = %v, want cm(2)=0", got)
	}
}

func TestLeafRange(t *testing.T) {
	h := MustNew([]int{2, 3}, []float64{5, 2, 0})
	lo, hi := h.LeafRange(1, 1)
	if lo != 3 || hi != 6 {
		t.Fatalf("LeafRange(1,1) = [%d,%d), want [3,6)", lo, hi)
	}
	lo, hi = h.LeafRange(0, 0)
	if lo != 0 || hi != 6 {
		t.Fatalf("LeafRange(0,0) = [%d,%d), want [0,6)", lo, hi)
	}
}

func TestNormalized(t *testing.T) {
	h := MustNew([]int{2, 2}, []float64{10, 4, 1})
	n, off := h.Normalized()
	if off != 1 {
		t.Fatalf("offset = %v, want 1", off)
	}
	if !n.IsNormalized() {
		t.Fatal("Normalized() result not normalized")
	}
	if n.CM(0) != 9 || n.CM(1) != 3 || n.CM(2) != 0 {
		t.Fatalf("normalized cm = [%v %v %v]", n.CM(0), n.CM(1), n.CM(2))
	}
	// Lemma 1 cost relation on a single unit edge: for any leaf pair,
	// cost_h = cost_n + off.
	for a := 0; a < h.Leaves(); a++ {
		for b := 0; b < h.Leaves(); b++ {
			if h.EdgeCost(a, b) != n.EdgeCost(a, b)+off {
				t.Fatalf("Lemma 1 violated at (%d,%d)", a, b)
			}
		}
	}
	// Already-normalized hierarchies are returned as-is.
	n2, off2 := n.Normalized()
	if n2 != n || off2 != 0 {
		t.Fatal("normalizing a normalized hierarchy should be identity")
	}
}

func TestPresets(t *testing.T) {
	if k := FlatKWay(7); k.Height() != 1 || k.Leaves() != 7 || k.CM(0) != 1 || k.CM(1) != 0 {
		t.Fatalf("FlatKWay wrong: %v", k)
	}
	if s := NUMAServer(); s.Leaves() != 64 || s.Height() != 3 {
		t.Fatalf("NUMAServer wrong: %v", s)
	}
	if d := Datacenter(2, 4, 8); d.Leaves() != 64 || d.Height() != 3 || !d.IsNormalized() {
		t.Fatalf("Datacenter wrong: %v", d)
	}
	if n := NUMASockets(2, 4); n.Leaves() != 8 || n.Height() != 2 {
		t.Fatalf("NUMASockets wrong: %v", n)
	}
}

func TestString(t *testing.T) {
	h := MustNew([]int{2, 3}, []float64{5, 2, 0})
	s := h.String()
	for _, frag := range []string{"h=2", "deg=[2 3]", "k=6"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("String() = %q missing %q", s, frag)
		}
	}
}

func TestPanics(t *testing.T) {
	h := MustNew([]int{2, 2}, []float64{2, 1, 0})
	for name, fn := range map[string]func(){
		"AncestorAt leaf":  func() { h.AncestorAt(4, 1) },
		"AncestorAt level": func() { h.AncestorAt(0, 3) },
		"LCALevel":         func() { h.LCALevel(0, -1) },
		"LeafRange":        func() { h.LeafRange(1, 2) },
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

// Property: LCALevel is symmetric, and ancestors at the LCA level match
// while ancestors one level deeper differ (unless a == b).
func TestLCAProperties(t *testing.T) {
	h := MustNew([]int{3, 2, 2}, []float64{8, 4, 2, 0})
	rng := rand.New(rand.NewSource(7))
	f := func() bool {
		a := rng.Intn(h.Leaves())
		b := rng.Intn(h.Leaves())
		j := h.LCALevel(a, b)
		if j != h.LCALevel(b, a) {
			return false
		}
		if h.AncestorAt(a, j) != h.AncestorAt(b, j) {
			return false
		}
		if a != b && j < h.Height() && h.AncestorAt(a, j+1) == h.AncestorAt(b, j+1) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: sum of Cap over Level-(j) nodes equals the leaf count for
// every level.
func TestCapPartition(t *testing.T) {
	h := MustNew([]int{2, 3, 2}, []float64{7, 3, 1, 0})
	for j := 0; j <= h.Height(); j++ {
		if float64(h.NumNodes(j))*h.Cap(j) != float64(h.Leaves()) {
			t.Fatalf("level %d: nodes×cap = %v, want %d", j, float64(h.NumNodes(j))*h.Cap(j), h.Leaves())
		}
	}
}
