package experiments

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"time"

	"hierpart/internal/gen"
	"hierpart/internal/graph"
	"hierpart/internal/hgp"
	"hierpart/internal/hgpt"
	"hierpart/internal/hierarchy"
	"hierpart/internal/treedecomp"
)

// E26IncrementalRepartition measures what the PR 10 incremental stack —
// decomposition repair (treedecomp.Repair) plus dirty-table DP reuse
// (hgpt.TableCache via hgp.Solver.TreeCaches) — buys over a cold
// rebuild when a live graph takes a small batch of edge reweights.
// This is the offline twin of the daemon's /v1/graphs session path:
// the same repair call, the same warm caches, no HTTP in the way.
//
// For each (n, deltas) cell the experiment builds a community graph,
// solves it once to populate per-tree table caches, applies `deltas`
// random intra-community edge reweights, then times two ways of
// reaching the new placement:
//
//   - incremental: Repair the existing decomposition (edge reweights
//     keep every tree's structure verbatim and recompute only the
//     crossed boundary weights), derive certified per-tree cost
//     ceilings from the previous solve (hgp.WarmBoundsAfterRepair),
//     then re-solve with the warm caches and ceilings attached — clean
//     tables are served from cache and the dirty ancestor chain is
//     recomputed under a bound that prunes everything the previous
//     optimum proves unreachable;
//   - cold: BuildContext from scratch plus a cache-less solve, exactly
//     what the daemon does on a session's first request.
//
// Each timing is the median of `trials` repeats, and every repeat
// rebuilds its caches from scratch so a prior repeat's repopulated
// tables cannot flatter the warm path.
//
// Soundness is pinned per cell, not assumed: the repaired
// decomposition is also solved cold (fresh solver, no caches) and the
// warm assignment compared placement for placement — the `identical`
// column must read true everywhere, making the speedup a pure
// evaluation-order effect. Timing columns are machine-dependent; the
// identical column, the reweighted-node and table counts, and the
// shape of the speedup curve (falling as the delta batch grows) are the
// portable signal. `nodes reweighted` is the mean, over repeats, of the
// reused decomposition nodes whose boundary weight a reweighted edge
// forced repair to recompute.
func E26IncrementalRepartition(cfg Config) *Table {
	t := &Table{
		ID:    "E26",
		Title: "Incremental repartitioning: decomposition repair + dirty-table reuse vs cold rebuild",
		Columns: []string{"n", "deltas", "repair ms", "warm solve ms", "incremental ms",
			"cold ms", "speedup", "nodes reweighted", "tables reused", "tables dirty", "identical", "fallbacks"},
		Notes: "expected: identical=true and fallbacks=0 in every cell (bounded warm and cache-less cold DP " +
			"over the same repaired decomposition agree placement for placement, and the certified " +
			"ceiling never undershoots the optimum); single-edge reweight >= 10x over cold at n=256; " +
			"speedup falls as the delta batch grows, loosens the ceilings, and dirties more tables",
	}
	sizes := []int{64, 128, 256}
	deltaCounts := []int{1, 4, 16, 64}
	trials := 3
	if cfg.Quick {
		sizes = []int{48, 96}
		deltaCounts = []int{1, 8}
		trials = 1
	}
	h := hierarchy.NUMASockets(4, 4)
	ctx := context.Background()
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

	for _, n := range sizes {
		rng := rand.New(rand.NewSource(cfg.Seed + 26 + int64(n)))
		g0 := gen.Community(rng, 4, n/4, 0.5, 0.03, 8, 1)
		gen.EqualDemands(g0, 0.6*float64(h.Leaves())/float64(n))
		// Prune stays off: the portfolio's live bound cannot combine with
		// warm caches — the incremental path uses static certified
		// WarmBounds instead (the session path runs the same way).
		sv := hgp.Solver{Eps: 0.5, Trees: 2, Seed: cfg.Seed + 26, Workers: cfg.Workers}
		opts := sv.DecompOptions()

		for _, k := range deltaCounts {
			deltas := reweightDeltas(rng, g0, k)
			mutated := g0.Clone()
			if err := treedecomp.Apply(mutated, deltas); err != nil {
				t.AddRow(n, k, "apply: "+err.Error(), "", "", "", "", "", "", "", "", "")
				continue
			}

			var repairMS, warmMS, incMS, coldMS []float64
			var tabReused, tabDirty float64
			reweighted := 0
			identical := true
			fallbacks := 0
			failed := false
			for trial := 0; trial < trials && !failed; trial++ {
				// Fresh session state per repeat: base decomposition plus
				// caches populated by one untimed warm-up solve, mirroring
				// a session's first (cold) request.
				dec0, err := treedecomp.BuildContext(ctx, g0, opts)
				if err == nil {
					caches := make([]*hgpt.TableCache, len(dec0.Trees))
					for i := range caches {
						caches[i] = hgpt.NewTableCache()
					}
					svWarm := sv
					svWarm.TreeCaches = caches

					var base *hgp.Result
					if base, err = svWarm.SolveDecomposition(ctx, g0, h, dec0); err == nil {
						var rep *treedecomp.Decomposition
						var rstats *treedecomp.RepairStats
						t0 := time.Now()
						rep, rstats, err = treedecomp.Repair(ctx, mutated, dec0, deltas, opts, int64(trial))
						// Certified ceilings are part of the incremental path,
						// so their (trivial) derivation is timed with it.
						svWarm.WarmBounds = hgp.WarmBoundsAfterRepair(base.PerTreeDPCosts, h, rstats)
						rMS := ms(time.Since(t0))
						if err == nil {
							var warm *hgp.Result
							t0 = time.Now()
							warm, err = svWarm.SolveDecomposition(ctx, mutated, h, rep)
							wMS := ms(time.Since(t0))
							if err == nil {
								repairMS = append(repairMS, rMS)
								warmMS = append(warmMS, wMS)
								incMS = append(incMS, rMS+wMS)
								reweighted += rstats.NodesReweighted
								tabReused = float64(warm.TablesReused)
								tabDirty = float64(warm.TablesComputed)
								fallbacks += warm.BoundFallbacks

								// Cold leg: full rebuild plus cache-less solve on
								// the mutated graph.
								t0 = time.Now()
								var decC *treedecomp.Decomposition
								if decC, err = treedecomp.BuildContext(ctx, mutated, opts); err == nil {
									_, err = sv.SolveDecomposition(ctx, mutated, h, decC)
								}
								if err == nil {
									coldMS = append(coldMS, ms(time.Since(t0)))

									// Soundness probe, untimed: a cache-less solve
									// over the SAME repaired decomposition must
									// reproduce the warm placement bit for bit.
									if trial == 0 {
										var fresh *hgp.Result
										if fresh, err = sv.SolveDecomposition(ctx, mutated, h, rep); err == nil {
											identical = sameAssignment(warm.Assignment, fresh.Assignment) &&
												math.Abs(warm.Cost-fresh.Cost) == 0
										}
									}
								}
							}
						}
					}
				}
				if err != nil {
					t.AddRow(n, k, "trial: "+err.Error(), "", "", "", "", "", "", "", "", "")
					failed = true
				}
			}
			if failed {
				continue
			}
			inc := median(incMS)
			cold := median(coldMS)
			t.AddRow(n, k, median(repairMS), median(warmMS), inc, cold,
				cold/inc, float64(reweighted)/float64(len(repairMS)), tabReused, tabDirty, identical, fallbacks)
		}
	}
	return t
}

// reweightDeltas picks k distinct intra-community edges of g (falling
// back to any edge when fewer exist) and doubles-plus-one their weight.
// Intra-community edges have deep LCAs in the recursive-bisection
// decomposition, which is the workload repair is built for: a stream
// operator's traffic shifts inside its stage far more often than the
// stage topology itself changes.
func reweightDeltas(rng *rand.Rand, g *graph.Graph, k int) []treedecomp.Delta {
	block := g.N() / 4
	edges := g.Edges()
	var intra, inter []int
	for i, e := range edges {
		if e.U/block == e.V/block {
			intra = append(intra, i)
		} else {
			inter = append(inter, i)
		}
	}
	pool := append(intra, inter...)
	if k > len(pool) {
		k = len(pool)
	}
	rng.Shuffle(len(intra), func(i, j int) { intra[i], intra[j] = intra[j], intra[i] })
	rng.Shuffle(len(inter), func(i, j int) { inter[i], inter[j] = inter[j], inter[i] })
	picked := append(append([]int{}, intra...), inter...)[:k]
	out := make([]treedecomp.Delta, 0, k)
	for _, i := range picked {
		e := edges[i]
		out = append(out, treedecomp.Delta{
			Op: treedecomp.DeltaReweightEdge, U: e.U, V: e.V, Weight: e.Weight*2 + 1,
		})
	}
	return out
}

func sameAssignment(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64{}, xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}
