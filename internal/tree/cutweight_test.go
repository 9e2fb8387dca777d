package tree

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzCutWeightMatchesCutLeafSet pins CutWeight to CutLeafSet's Weight,
// bit for bit. Each input draws a random tree (with zero-weight edges,
// and binarized, which adds +Inf dummy spines under high-fanout nodes)
// and several random leaf sets, the empty and the full set included;
// one CutWeight serves every set, as FamilyCost uses it.
func FuzzCutWeightMatchesCutLeafSet(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed, uint8(3+seed*5), seed%2 == 0)
	}
	f.Fuzz(func(t *testing.T, seed int64, size uint8, binarize bool) {
		rng := rand.New(rand.NewSource(seed))
		tr := New()
		for tr.N() < 1+int(size%64) {
			w := 1 + rng.Float64()*9
			if rng.Intn(8) == 0 {
				w = 0
			}
			tr.AddChild(rng.Intn(tr.N()), w)
		}
		if binarize {
			tr, _ = tr.Binarize()
		}
		leaves := tr.Leaves()
		cw := NewCutWeight(tr)
		for set := 0; set < 6; set++ {
			var s []int
			in := map[int]bool{}
			for _, l := range leaves {
				if set == 1 || (set > 1 && rng.Intn(3) == 0) {
					s = append(s, l)
					in[l] = true
				}
			}
			got, want := cw.Of(s), tr.CutLeafSetOf(in).Weight
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("set %v of %d leaves: CutWeight %v (%#x), CutLeafSet %v (%#x)",
					s, len(leaves), got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	})
}

func TestCutWeightPanicsOnInternal(t *testing.T) {
	tr := New()
	a := tr.AddChild(0, 1)
	tr.AddChild(a, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCutWeight(tr).Of([]int{a})
}
