package fm

import (
	"math"
	"math/rand"
	"testing"

	"hierpart/internal/gen"
	"hierpart/internal/graph"
)

// FuzzRefineMatchesReference pins the flat-array Refine to the map-based
// reference it replaced (reference_test.go). On random graphs (some
// with infinite edges), random cluster subsets in shuffled order,
// random, unit or zero weights, random starting sides (some absent from
// the map), random balance windows and pass counts 0–8, both must
// return the same value and put every cluster vertex on the same side.
// Vertices outside the cluster must keep their sides under both.
func FuzzRefineMatchesReference(f *testing.F) {
	for i := 0; i < 64; i++ {
		f.Add(int64(i+1), uint8(i), uint8(3+i), uint8(i%3), uint8(32+i), uint8(160+i), uint8(i%9))
	}
	f.Add(int64(99), uint8(1), uint8(40), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(7), uint8(0), uint8(30), uint8(2), uint8(100), uint8(150), uint8(8))
	f.Fuzz(func(t *testing.T, seed int64, family, size, weights, lo, hi, passes uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(size)%62
		var g *graph.Graph
		if family%2 == 0 {
			g = gen.ErdosRenyi(rng, n, 0.05+0.4*rng.Float64(), 9)
		} else {
			parts := 1 + rng.Intn(4)
			g = gen.Community(rng, parts, 1+n/parts, 0.5, 0.05, 10, 1)
			n = g.N()
		}

		// Some infinite edges: cut sums and gains can then be +Inf or
		// NaN (∞ − ∞), which both must carry through alike.
		if family%4 >= 2 {
			for _, e := range g.Edges() {
				if rng.Intn(8) == 0 {
					g.SetEdgeWeight(e.U, e.V, math.Inf(1))
				}
			}
		}

		// A random cluster subset, in shuffled order.
		keep := rng.Float64()
		var cluster []int
		for v := 0; v < n; v++ {
			if rng.Float64() < keep {
				cluster = append(cluster, v)
			}
		}
		rng.Shuffle(len(cluster), func(i, j int) { cluster[i], cluster[j] = cluster[j], cluster[i] })

		w := make([]float64, n)
		for v := range w {
			switch weights % 3 {
			case 0:
				w[v] = rng.Float64()
			case 1:
				w[v] = 1
			}
		}
		weight := func(v int) float64 { return w[v] }

		start := map[int]bool{}
		for v := 0; v < n; v++ {
			if b := rng.Intn(3); b > 0 {
				start[v] = b == 1
			}
		}
		cfg := Config{MinFrac: float64(lo) / 255, MaxFrac: float64(hi) / 255, Passes: int(passes % 9)}

		got, want := copySides(start), copySides(start)
		gotRet := Refine(g, cluster, got, weight, cfg)
		wantRet := refineReference(g, cluster, want, weight, cfg)
		if gotRet != wantRet {
			t.Fatalf("returned %v, reference %v (cluster %v, cfg %+v)", gotRet, wantRet, cluster, cfg)
		}
		for v := 0; v < n; v++ {
			if got[v] != want[v] {
				t.Fatalf("vertex %d on side %v, reference %v (cluster %v, cfg %+v)", v, got[v], want[v], cluster, cfg)
			}
		}
		in := map[int]bool{}
		for _, v := range cluster {
			in[v] = true
		}
		for v := 0; v < n; v++ {
			if !in[v] && got[v] != start[v] {
				t.Fatalf("vertex %d outside the cluster moved", v)
			}
		}
	})
}

func copySides(m map[int]bool) map[int]bool {
	c := make(map[int]bool, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}
