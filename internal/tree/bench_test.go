package tree

import (
	"math/rand"
	"testing"
)

func benchTree(n int) (*Tree, map[int]bool) {
	rng := rand.New(rand.NewSource(1))
	t := New()
	for t.N() < n {
		t.AddChild(rng.Intn(t.N()), 1+rng.Float64()*9)
	}
	s := map[int]bool{}
	for _, l := range t.Leaves() {
		if rng.Float64() < 0.5 {
			s[l] = true
		}
	}
	return t, s
}

func BenchmarkCutLeafSet(b *testing.B) {
	t, s := benchTree(512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.CutLeafSetOf(s)
	}
}

func BenchmarkBinarize(b *testing.B) {
	t, _ := benchTree(512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Binarize()
	}
}

func BenchmarkPostOrder(b *testing.B) {
	t, _ := benchTree(2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.PostOrder()
	}
}

func BenchmarkCutWeight(b *testing.B) {
	t, s := benchTree(512)
	leaves := make([]int, 0, len(s))
	for l := range s {
		leaves = append(leaves, l)
	}
	cw := NewCutWeight(t)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cw.Of(leaves)
	}
}
