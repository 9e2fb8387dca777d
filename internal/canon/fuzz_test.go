package canon

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"hierpart/internal/graph"
	"hierpart/internal/hierarchy"
	"hierpart/internal/metrics"
)

// fuzzMaxN caps the fuzzed graphs' size: big enough for the 4×4 grid
// seed, small enough that every input canonicalizes in microseconds.
const fuzzMaxN = 16

// Tiny dyadic alphabets: equal demands and weights recur, so symmetric
// graphs (and so the tie-break search and refusals) are common, and
// every Equation (1) sum is exact in any order.
var (
	fuzzDemands = []float64{0.25, 0.5, 1}
	fuzzWeights = []float64{0.5, 1, 2, 4}
)

// fuzzGraph decodes a graph: byte 0 picks n, the next n bytes pick the
// demands, and each following byte triple adds an edge (u, v, weight);
// self-loops and repeated edges are skipped.
func fuzzGraph(data []byte) *graph.Graph {
	if len(data) == 0 {
		return graph.New(1)
	}
	n := 1 + int(data[0])%fuzzMaxN
	data = data[1:]
	g := graph.New(n)
	for v := 0; v < n && len(data) > 0; v++ {
		g.SetDemand(v, fuzzDemands[int(data[0])%len(fuzzDemands)])
		data = data[1:]
	}
	for ; len(data) >= 3; data = data[3:] {
		u, v := int(data[0])%n, int(data[1])%n
		if u != v && !g.HasEdge(u, v) {
			g.AddEdge(u, v, fuzzWeights[int(data[2])%len(fuzzWeights)])
		}
	}
	return g
}

// fuzzEncode is fuzzGraph's inverse for the seed corpus: demand and
// weight values must come from the alphabets.
func fuzzEncode(g *graph.Graph) []byte {
	index := func(alpha []float64, x float64) byte {
		for i, a := range alpha {
			if a == x {
				return byte(i)
			}
		}
		panic("value outside the fuzz alphabet")
	}
	out := []byte{byte(g.N() - 1)}
	for v := 0; v < g.N(); v++ {
		out = append(out, index(fuzzDemands, g.Demand(v)))
	}
	for _, e := range g.Edges() {
		out = append(out, byte(e.U), byte(e.V), index(fuzzWeights, e.Weight))
	}
	return out
}

// serialization is the byte string a form's fingerprint hashes: the
// form's graph under its own labels.
func serialization(f *Form) []byte {
	id := make([]int, f.Graph.N())
	for v := range id {
		id[v] = v
	}
	return certificate(f.Graph, id)
}

// FuzzCanonRelabel is the differential target for the key identity: a
// graph g and its relabelling Permute(g, p) must reach the same cache
// identity. Checked on every input:
//
//   - both canonicalize, to one fingerprint and byte-identical
//     canonical graphs, or both refuse, after spending the same work;
//   - a placement of the canonical graph, translated through each
//     form, has the same Equation (1) cost on each submission, bit for
//     bit (the alphabets are dyadic); refused graphs check the same
//     through their labelled forms;
//   - any two forms (canonical or labelled) that share a fingerprint
//     serialize to byte-identical graphs;
//   - the work spent never exceeds the budget, and a cut budget either
//     refuses or returns the full budget's form — the budget decides
//     completion, never the answer.
func FuzzCanonRelabel(f *testing.F) {
	f.Add(fuzzEncode(twoCliqueDyadic()), int64(1), uint16(40000))
	f.Add(fuzzEncode(grid4x4()), int64(2), uint16(65535))
	f.Add(fuzzEncode(cycle(6, 1)), int64(3), uint16(100))
	H := hierarchy.MustNew([]int{2, 2}, []float64{4, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte, permSeed int64, budgetFrac uint16) {
		g := fuzzGraph(data)
		n := g.N()
		rng := rand.New(rand.NewSource(permSeed))
		pg := Permute(g, rng.Perm(n))

		cf, work := canonicalize(g, budget(g))
		pcf, pwork := canonicalize(pg, budget(pg))
		if work > budget(g) || pwork > budget(pg) {
			t.Fatalf("work %d / %d exceeds the budget %d", work, pwork, budget(g))
		}
		if (cf == nil) != (pcf == nil) || work != pwork {
			t.Fatalf("relabelling changed the outcome: ok %v/%v, work %d/%d", cf != nil, pcf != nil, work, pwork)
		}

		// One placement of the form's graph, translated to each
		// submission, must cost the same on each.
		a := make(metrics.Assignment, n)
		for c := range a {
			a[c] = rng.Intn(H.Leaves())
		}
		forms := []*Form{Labelled(g), Labelled(pg)}
		if cf != nil {
			if cf.Fingerprint != pcf.Fingerprint || !bytes.Equal(serialization(cf), serialization(pcf)) {
				t.Fatal("a graph and its relabelling canonicalized apart")
			}
			want := metrics.CostLCA(cf.Graph, H, a)
			for i, sub := range []struct {
				g *graph.Graph
				f *Form
			}{{g, cf}, {pg, pcf}} {
				if got := metrics.CostLCA(sub.g, H, sub.f.TranslateAssignment(a)); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("submission %d: translated cost %v, canonical cost %v", i, got, want)
				}
			}
			forms = append(forms, cf, pcf)
		}
		for _, lf := range forms[:2] {
			if got, want := metrics.CostLCA(lf.Graph, H, a), metrics.CostLCA(lf.Graph, H, lf.TranslateAssignment(a)); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("labelled translation moved the cost: %v vs %v", got, want)
			}
		}
		for i := range forms {
			for j := i + 1; j < len(forms); j++ {
				same := bytes.Equal(serialization(forms[i]), serialization(forms[j]))
				if (forms[i].Fingerprint == forms[j].Fingerprint) != same {
					t.Fatalf("forms %d and %d: shared fingerprint %v, identical serialization %v",
						i, j, forms[i].Fingerprint == forms[j].Fingerprint, same)
				}
			}
		}

		// A cut budget refuses or returns the same form.
		b := budget(g) * int64(budgetFrac) / math.MaxUint16
		part, spent := canonicalize(g, b)
		if spent > b {
			t.Fatalf("budget %d: spent %d", b, spent)
		}
		if part != nil && (cf == nil || part.Fingerprint != cf.Fingerprint) {
			t.Fatalf("budget %d changed the answer", b)
		}
	})
}

// twoCliqueDyadic is twoClique with its weights mapped into the fuzz
// alphabet (clique edges 4, the bridge 0.5): the same symmetry, 126
// branches.
func twoCliqueDyadic() *graph.Graph {
	src := twoClique()
	g := graph.New(src.N())
	for v := 0; v < src.N(); v++ {
		g.SetDemand(v, src.Demand(v))
	}
	for _, e := range src.Edges() {
		w := 4.0
		if e.Weight < 10 {
			w = 0.5
		}
		g.AddEdge(e.U, e.V, w)
	}
	return g
}

// grid4x4 is the uniform 4×4 grid: equal demands and weights, so its
// stable partition has classes of 4, 8 and 4 and the search resolves
// the dihedral symmetry.
func grid4x4() *graph.Graph {
	g := graph.New(16)
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			v := r*4 + c
			g.SetDemand(v, 1)
			if c+1 < 4 {
				g.AddEdge(v, v+1, 1)
			}
			if r+1 < 4 {
				g.AddEdge(v, v+4, 1)
			}
		}
	}
	return g
}
