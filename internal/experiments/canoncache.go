package experiments

import (
	"context"
	"math"
	"math/rand"
	"time"

	"hierpart/internal/cache"
	"hierpart/internal/canon"
	"hierpart/internal/graph"
	"hierpart/internal/hgp"
	"hierpart/internal/hierarchy"
	"hierpart/internal/stream"
	"hierpart/internal/treedecomp"
)

// E25CanonCache measures what canonical-form fingerprinting buys the
// serving cache stack under the workload it was built for: a zipf-
// distributed multi-tenant population where each tenant resubmits its
// own streaming-topology instance under fresh vertex relabellings
// (autoscalers and schedulers renumber operators; the graph does not
// change). The experiment replays ONE request schedule through two
// copies of the daemon's cache stack — result LRU, then decomposition
// LRU, then a full build+solve — once keyed by each request's labelled
// form (canon=off, what a refused graph gets) and once by its canonical
// form (canon=on).
//
// A small identity fraction of the schedule resubmits instances with
// their original labelling, so the canon=off baseline's hit ratio is
// nonzero and the lift row is a finite ratio. Every warm hit is also
// re-solved from scratch through the same pipeline and the cost
// compared bit for bit: the max |Δcost| column pins the soundness
// claim that a cache hit is indistinguishable from a miss.
//
// Timing columns are machine-dependent; the hit ratios, the lift row,
// and the zero deviation column are the portable signal.
func E25CanonCache(cfg Config) *Table {
	t := &Table{
		ID:    "E25",
		Title: "Canonical fingerprinting under a zipf multi-tenant relabelled workload",
		Columns: []string{"canon", "tenants", "requests", "hits", "hit ratio",
			"fallbacks", "cold p50 ms", "warm p50 ms", "max |Δcost|"},
		Notes: "expected: canon=on collapses relabelled resubmissions onto shared canonical entries (hit ratio near 1, ≥5× the canon=off identity-only baseline), warm p50 ≪ cold p50, and max |Δcost| exactly 0 (every warm hit re-solved fresh and compared bit for bit)",
	}
	tenants := cfg.pick(8, 16)
	requests := cfg.pick(160, 600)
	h := hierarchy.NUMASockets(4, 4)

	// Tenant base instances: each tenant owns one instance of a rotating
	// streaming topology family, with its own weight/demand stream.
	base := make([]*graph.Graph, tenants)
	for tn := range base {
		trng := rand.New(rand.NewSource(cfg.Seed + 25 + 1000*int64(tn)))
		switch tn % 4 {
		case 0:
			base[tn] = stream.Pipeline(trng, 4, 3, 0.1, 0.4, 64).CommGraph()
		case 1:
			base[tn] = stream.Diamond(trng, 3, 0.1, 0.4, 64).CommGraph()
		case 2:
			base[tn] = stream.FanInAggregation(trng, 4, 2, 0.1, 0.4, 60).CommGraph()
		default:
			base[tn] = stream.WordCount(trng, 3, 3, 0.1, 0.4, 64).CommGraph()
		}
	}

	// One shared request schedule so both cache configurations see the
	// identical stream: (tenant, relabelling) pairs, zipf-hot tenants,
	// one in ten an identity resubmission (mirrors hgpload -workload
	// zipf, and keeps the canon=off hit ratio nonzero).
	type request struct {
		tenant int
		perm   []int // nil = identity resubmission
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 25))
	zipf := rand.NewZipf(rng, 1.3, 1, uint64(tenants-1))
	sched := make([]request, requests)
	for i := range sched {
		r := request{tenant: int(zipf.Uint64())}
		if rng.Float64() >= 0.1 {
			r.perm = rng.Perm(base[r.tenant].N())
		}
		sched[i] = r
	}

	sv := hgp.Solver{Eps: 0.5, Trees: 2, Seed: cfg.Seed + 25, Workers: cfg.Workers, Prune: cfg.Prune}
	opts := sv.DecompOptions()
	ctx := context.Background()
	// Nanosecond resolution: the warm path is an LRU get plus a slice
	// translation, well under a microsecond.
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

	var ratios [2]float64
	for mode, canonOn := range []bool{false, true} {
		results := cache.New(512)
		decomps := cache.New(256)
		var hits, fallbacks int
		var coldMS, warmMS []float64
		maxDev := 0.0
		fail := false

		for _, req := range sched {
			g := base[req.tenant]
			if req.perm != nil {
				g = canon.Permute(g, req.perm)
			}
			// The request's cache identity, as the daemon derives it: the
			// canonical form when canon is on and the graph canonicalizes,
			// otherwise the labelled form in the same fingerprint domain.
			var cn *canon.Form
			if canonOn {
				var ok bool
				if cn, ok = canon.Canonicalize(g); !ok {
					fallbacks++
				}
			}
			if cn == nil {
				cn = canon.Labelled(g)
			}
			gSolve := cn.Graph
			rkey := cache.ResultKeyCanon(cn.Fingerprint, h, opts, sv.Eps, sv.MaxStates)

			t0 := time.Now()
			if v, ok := results.Get(rkey); ok {
				// Warm path: exactly what the daemon serves — translate the
				// form-space assignment through THIS request's perm.
				res := v.(*hgp.Result)
				_ = cn.TranslateAssignment(res.Assignment)
				warmMS = append(warmMS, ms(time.Since(t0)))
				hits++
				// Soundness probe, outside the timed path: re-solve this
				// submission from scratch and demand a bit-identical cost.
				dec, err := treedecomp.BuildContext(ctx, gSolve, opts)
				if err == nil {
					var fresh *hgp.Result
					if fresh, err = sv.SolveDecomposition(ctx, gSolve, h, dec); err == nil {
						if dev := math.Abs(fresh.Cost - res.Cost); dev > maxDev {
							maxDev = dev
						}
					}
				}
				if err != nil {
					t.AddRow(onOff(canonOn), tenants, requests, "probe solve: "+err.Error(), "", "", "", "", "")
					fail = true
					break
				}
				continue
			}

			// Cold path: decomposition LRU, then a full build.
			dkey := cache.DecompKeyCanon(cn.Fingerprint, opts)
			var dec *treedecomp.Decomposition
			if v, ok := decomps.Get(dkey); ok {
				dec = v.(*cache.DecompEntry).Dec
			} else {
				dec = treedecomp.Build(gSolve, opts)
				decomps.Add(dkey, &cache.DecompEntry{Dec: dec, Perm: cn.Perm})
			}
			res, err := sv.SolveDecomposition(ctx, gSolve, h, dec)
			if err != nil {
				t.AddRow(onOff(canonOn), tenants, requests, "solve: "+err.Error(), "", "", "", "", "")
				fail = true
				break
			}
			results.Add(rkey, res)
			coldMS = append(coldMS, ms(time.Since(t0)))
		}
		if fail {
			continue
		}
		ratios[mode] = float64(hits) / float64(requests)
		coldP50, _ := pctPair(coldMS)
		warmP50, _ := pctPair(warmMS)
		t.AddRow(onOff(canonOn), tenants, requests, hits, ratios[mode],
			fallbacks, coldP50, warmP50, maxDev)
	}
	if ratios[0] > 0 && ratios[1] > 0 {
		t.AddRow("lift", tenants, requests, "", ratios[1]/ratios[0], "", "", "", "")
	}
	return t
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}
