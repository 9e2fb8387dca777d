package treedecomp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"testing"

	"hierpart/internal/gen"
	"hierpart/internal/graph"
)

// pinnedStream is the SHA-256 of every tree TestBuildStreamPinned
// builds. It changes exactly when Build's output stream changes.
const pinnedStream = "bee81210d9609a307195863e3932d111828767d8ebf3c59c846888a5505ce3c5"

// TestBuildStreamPinned pins the emitted decomposition stream: for fixed
// seeds over four graph families, with and without flow refinement, it
// hashes every node of every tree (parent, edge-weight bits, label,
// demand bits). Persistent decomposition snapshots trust
// RNGStreamVersion to change whenever the trees change, so a kernel
// rewrite (FM, boundary sums, BFS growth) that silently picks different
// moves must fail here rather than serve stale trees as current.
func TestBuildStreamPinned(t *testing.T) {
	families := []struct {
		name string
		make func(rng *rand.Rand) *graph.Graph
	}{
		{"community", func(rng *rand.Rand) *graph.Graph {
			g := gen.Community(rng, 4, 12, 0.4, 0.03, 10, 1)
			gen.UniformDemands(rng, g, 0.01, 0.05)
			return g
		}},
		{"er", func(rng *rand.Rand) *graph.Graph {
			g := gen.ErdosRenyi(rng, 40, 0.12, 9)
			gen.UniformDemands(rng, g, 0.01, 0.05)
			return g
		}},
		{"ba", func(rng *rand.Rand) *graph.Graph {
			g := gen.BarabasiAlbert(rng, 48, 2, 5)
			gen.UniformDemands(rng, g, 0.01, 0.05)
			return g
		}},
		// Zero demands: the bisections balance on vertex counts instead.
		{"grid", func(*rand.Rand) *graph.Graph { return gen.Grid(6, 7, 1) }},
	}
	h := sha256.New()
	for seed := int64(1); seed <= 5; seed++ {
		for _, fam := range families {
			g := fam.make(rand.New(rand.NewSource(seed)))
			for _, flow := range []bool{false, true} {
				d := Build(g, Options{Trees: 3, Seed: seed, FlowRefine: flow})
				for _, dt := range d.Trees {
					hashTree(h, dt)
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pinnedStream {
		t.Fatalf("decomposition stream changed: hash %s, pinned %s.\n"+
			"If the change was meant, bump RNGStreamVersion and re-pin pinnedStream.", got, pinnedStream)
	}
}

// hashTree writes every node of dt's tree into h.
func hashTree(h hash.Hash, dt *DecompTree) {
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	tr := dt.T
	put(uint64(tr.N()))
	for v := 0; v < tr.N(); v++ {
		put(uint64(int64(tr.Parent(v))))
		var w float64
		if v != tr.Root() {
			w = tr.EdgeWeight(v)
		}
		put(math.Float64bits(w))
		put(uint64(int64(tr.Label(v))))
		put(math.Float64bits(tr.Demand(v)))
	}
}
