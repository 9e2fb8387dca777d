package graph

import (
	"math/rand"
	"testing"
)

func benchRandom(n int, p float64) *Graph {
	rng := rand.New(rand.NewSource(1))
	g := New(n)
	for v := 0; v < n; v++ {
		g.SetDemand(v, rng.Float64())
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.AddEdge(u, v, 1+rng.Float64()*9)
			}
		}
	}
	return g
}

func BenchmarkCutWeight(b *testing.B) {
	g := benchRandom(256, 0.1)
	inP := func(v int) bool { return v%2 == 0 }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.CutWeight(inP)
	}
}

func BenchmarkEdges(b *testing.B) {
	g := benchRandom(256, 0.1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Edges()
	}
}

func BenchmarkComponents(b *testing.B) {
	g := benchRandom(512, 0.01)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Components()
	}
}

func BenchmarkInducedSubgraph(b *testing.B) {
	g := benchRandom(256, 0.1)
	vs := make([]int, 0, 128)
	for v := 0; v < 256; v += 2 {
		vs = append(vs, v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.InducedSubgraph(vs)
	}
}
