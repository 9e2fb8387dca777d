package canon

import (
	"math"
	"math/rand"
	"testing"

	"hierpart/internal/gen"
	"hierpart/internal/graph"
	"hierpart/internal/hgp"
	"hierpart/internal/hierarchy"
	"hierpart/internal/metrics"
	"hierpart/internal/stream"
)

// generatorCases is the cross-package battery: every internal/gen
// family plus the internal/stream topology families the multi-tenant
// workload resubmits. exactCost marks families whose edge weights and
// cost multipliers are all dyadic rationals, where float addition is
// exact in any order and the recomputed cost of a translated placement
// must match BITWISE; families with arbitrary random weights get a
// relative tolerance instead (reassociating a float sum across label
// orders can move the last ulp — see DESIGN.md §12).
type generatorCase struct {
	name      string
	exactCost bool
	wantCanon bool // false: family is regular enough that refusal is the expected path
	make      func(rng *rand.Rand) *graph.Graph
}

func generatorCases() []generatorCase {
	return []generatorCase{
		{"grid", true, true, func(rng *rand.Rand) *graph.Graph {
			g := gen.Grid(6, 4, 1)
			gen.UniformDemands(rng, g, 0.1, 0.6)
			return g
		}},
		// Torus with equal demands is vertex-transitive: WL stabilizes
		// with one giant class and canonicalization must refuse.
		{"torus-uniform", true, false, func(rng *rand.Rand) *graph.Graph {
			g := gen.Torus(4, 4, 1)
			gen.EqualDemands(g, 0.5)
			return g
		}},
		{"erdos-renyi", false, true, func(rng *rand.Rand) *graph.Graph {
			g := gen.ErdosRenyi(rng, 40, 0.12, 4)
			gen.UniformDemands(rng, g, 0.1, 0.6)
			return g
		}},
		{"barabasi-albert", false, true, func(rng *rand.Rand) *graph.Graph {
			g := gen.BarabasiAlbert(rng, 40, 2, 4)
			gen.UniformDemands(rng, g, 0.1, 0.6)
			return g
		}},
		{"community", true, true, func(rng *rand.Rand) *graph.Graph {
			g := gen.Community(rng, 4, 10, 0.5, 0.05, 8, 1)
			gen.UniformDemands(rng, g, 0.1, 0.6)
			return g
		}},
		{"stream-pipeline", true, true, func(rng *rand.Rand) *graph.Graph {
			return stream.Pipeline(rng, 5, 4, 0.1, 0.6, 64).CommGraph()
		}},
		{"stream-diamond", true, true, func(rng *rand.Rand) *graph.Graph {
			return stream.Diamond(rng, 4, 0.1, 0.6, 64).CommGraph()
		}},
		{"stream-fanin", false, true, func(rng *rand.Rand) *graph.Graph {
			return stream.FanInAggregation(rng, 4, 3, 0.1, 0.6, 60).CommGraph()
		}},
		// WordCount's shuffle edges carry rate fractions (e.g. .2) that
		// are not dyadic, so its recomputed sum is tolerance-checked.
		{"stream-wordcount", false, true, func(rng *rand.Rand) *graph.Graph {
			return stream.WordCount(rng, 4, 4, 0.1, 0.6, 64).CommGraph()
		}},
	}
}

// TestFingerprintPermutationInvariance is the tentpole property: for
// every generator family, random vertex relabellings either all
// canonicalize to the same fingerprint AND byte-identical canonical
// graph, or all refuse. The refusal decision is itself label-invariant
// because the work the budget counts is: every relabelling spends the
// same work.
func TestFingerprintPermutationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, tc := range generatorCases() {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.make(rng)
			base, work := canonicalize(g, budget(g))
			ok := base != nil
			if ok != tc.wantCanon {
				t.Fatalf("Canonicalize ok=%v, family expects %v", ok, tc.wantCanon)
			}
			for trial := 0; trial < 4; trial++ {
				perm := randPerm(rng, g.N())
				pg := Permute(g, perm)
				pf, pwork := canonicalize(pg, budget(pg))
				if pok := pf != nil; pok != ok {
					t.Fatalf("trial %d: refusal decision flipped under relabelling (ok=%v, was %v)", trial, pok, ok)
				}
				if pwork != work {
					t.Fatalf("trial %d: relabelling spent %d work units, the original %d", trial, pwork, work)
				}
				if !ok {
					continue
				}
				if pf.Fingerprint != base.Fingerprint {
					t.Fatalf("trial %d: fingerprint changed under relabelling", trial)
				}
				graphsIdentical(t, base.Graph, pf.Graph)
			}
		})
	}
}

// TestTranslatedPlacementCostIdentity is the cache-soundness half of
// the property battery: solving the canonical graph once and
// translating the placement back through each submission's own
// permutation must equal — bit for bit — what a fresh solve of that
// submission (canonicalization on, cold cache) would have returned.
// Both paths solve the same canonical graph, so the cached-hit answer
// and the fresh-miss answer are the same object: zero cost deviation by
// construction. The recomputed Equation (1) cost of the translated
// placement on the submission's own labelling is additionally checked
// against the canonical cost — bitwise for dyadic-weight families,
// within 1e-12 relative otherwise.
func TestTranslatedPlacementCostIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	H := hierarchy.MustNew([]int{4, 16}, []float64{8, 2, 0})
	sv := hgp.Solver{Trees: 2, Seed: 3, Workers: 1}
	for _, tc := range generatorCases() {
		if !tc.wantCanon {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			g := tc.make(rng)
			base, ok := Canonicalize(g)
			if !ok {
				t.Fatal("family expected to canonicalize")
			}
			// The "cached" solve: one solve of the canonical graph.
			cached, err := sv.Solve(base.Graph, H)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 3; trial++ {
				perm := randPerm(rng, g.N())
				pg := Permute(g, perm)
				pf, pok := Canonicalize(pg)
				if !pok {
					t.Fatal("relabelled copy must canonicalize")
				}
				// The "fresh" solve the relabelled submission would get on
				// a cold cache: its own canonicalization, then a solve of
				// its canonical graph.
				fresh, err := sv.Solve(pf.Graph, H)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(fresh.Cost) != math.Float64bits(cached.Cost) {
					t.Fatalf("trial %d: fresh cost %v != cached cost %v (must be bit-identical)", trial, fresh.Cost, cached.Cost)
				}
				for v := range fresh.Assignment {
					if fresh.Assignment[v] != cached.Assignment[v] {
						t.Fatalf("trial %d: canonical assignments diverge at vertex %d", trial, v)
					}
				}
				// Translate the cached canonical placement into the
				// submission's labels and re-evaluate it there.
				translated := pf.TranslateAssignment(cached.Assignment)
				if err := metrics.Assignment(translated).Validate(pg, H); err != nil {
					t.Fatalf("trial %d: translated placement invalid: %v", trial, err)
				}
				recomputed := metrics.CostLCA(pg, H, translated)
				if tc.exactCost {
					if math.Float64bits(recomputed) != math.Float64bits(cached.Cost) {
						t.Fatalf("trial %d: recomputed cost %v != canonical cost %v (dyadic weights must be exact)",
							trial, recomputed, cached.Cost)
					}
				} else if rel := math.Abs(recomputed-cached.Cost) / math.Max(1, math.Abs(cached.Cost)); rel > 1e-12 {
					t.Fatalf("trial %d: recomputed cost %v vs canonical %v (rel %g)", trial, recomputed, cached.Cost, rel)
				}
			}
		})
	}
}
