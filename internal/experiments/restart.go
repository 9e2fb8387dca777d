package experiments

import (
	"context"
	"math/rand"
	"os"
	"sort"
	"time"

	"hierpart/internal/cache"
	"hierpart/internal/cache/diskstore"
	"hierpart/internal/canon"
	"hierpart/internal/gen"
	"hierpart/internal/graph"
	"hierpart/internal/hgp"
	"hierpart/internal/hierarchy"
	"hierpart/internal/telemetry"
	"hierpart/internal/treedecomp"
)

// E23WarmRestart quantifies what the durable decomposition cache buys a
// restarted daemon: the first-request latency when the embedding must be
// built from scratch (cold start) versus when it is reloaded from an
// on-disk snapshot and only the per-tree DPs run (warm restart), across
// the E5/E21 instance families. The expectation is that warm-restart
// first-request latency collapses to roughly the DP phase alone, since
// the snapshot load is a sequential read plus checksum while the embed
// phase it replaces is the pipeline's dominant cost.
//
// Timing rows are machine-dependent; the ratio column is the portable
// signal.
func E23WarmRestart(cfg Config) *Table {
	t := &Table{
		ID:    "E23",
		Title: "Cold-start vs. warm-restart first-request latency",
		Columns: []string{"family", "n", "trials", "cold p50 ms", "cold p99 ms",
			"warm p50 ms", "warm p99 ms", "cold/warm p50"},
		Notes: "expected: warm restarts skip the embed phase, so warm p50 ≈ DP-only latency and the cold/warm ratio grows with instance size; timing rows vary by machine, the ratio is the signal",
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 23))
	h := hierarchy.NUMASockets(4, 4)
	n := 32 * cfg.pick(1, 4)
	trials := cfg.pick(3, 9)

	families := []struct {
		name string
		make func() *graph.Graph
	}{
		{"community", func() *graph.Graph { return gen.Community(rng, 4, n/4, 0.5, 0.03, 8, 1) }},
		{"power-law", func() *graph.Graph { return gen.BarabasiAlbert(rng, n, 2, 4) }},
		{"grid", func() *graph.Graph { return gen.Grid(n/4, 4, 1) }},
	}

	dir, err := os.MkdirTemp("", "hgp-e23-*")
	if err != nil {
		t.Notes = "temp dir: " + err.Error()
		return t
	}
	defer os.RemoveAll(dir)

	for _, fam := range families {
		g := fam.make()
		gen.EqualDemands(g, 0.6*float64(h.Leaves())/float64(g.N()))
		sv := hgp.Solver{Eps: 0.5, Trees: 4, Seed: cfg.Seed + 23, Workers: cfg.Workers, Prune: cfg.Prune}
		opts := sv.DecompOptions()
		key := cache.DecompKeyCanon(canon.Labelled(g).Fingerprint, opts)

		// Snapshot once, exactly as the daemon's flusher would.
		store, err := diskstore.Open(dir, 0, telemetry.NewRegistry())
		if err != nil {
			t.AddRow(fam.name, g.N(), 0, "store: "+err.Error(), "", "", "", "")
			continue
		}
		seedDec := treedecomp.Build(g, opts)
		if err := store.Save(key, seedDec, nil); err != nil {
			t.AddRow(fam.name, g.N(), 0, "save: "+err.Error(), "", "", "", "")
			continue
		}

		var coldMS, warmMS []float64
		ctx := context.Background()
		fail := false
		for trial := 0; trial < trials; trial++ {
			// Cold start: the embedding is built before the DP can run.
			t0 := time.Now()
			dec, err := treedecomp.BuildContext(ctx, g, opts)
			if err == nil {
				_, err = sv.SolveDecomposition(ctx, g, h, dec)
			}
			if err != nil {
				t.AddRow(fam.name, g.N(), trial, "cold solve: "+err.Error(), "", "", "", "")
				fail = true
				break
			}
			coldMS = append(coldMS, float64(time.Since(t0).Microseconds())/1000)

			// Warm restart: a fresh store handle (page cache aside, the
			// restarted process's view), load, then the same DP.
			warmStore, err := diskstore.Open(dir, 0, telemetry.NewRegistry())
			if err == nil {
				t0 = time.Now()
				loaded, _, ok := warmStore.Load(key)
				if !ok {
					t.AddRow(fam.name, g.N(), trial, "", "", "snapshot missing", "", "")
					fail = true
					break
				}
				_, err = sv.SolveDecomposition(ctx, g, h, loaded)
			}
			if err != nil {
				t.AddRow(fam.name, g.N(), trial, "", "", "warm solve: "+err.Error(), "", "")
				fail = true
				break
			}
			warmMS = append(warmMS, float64(time.Since(t0).Microseconds())/1000)
		}
		if fail {
			continue
		}
		coldP50, coldP99 := pctPair(coldMS)
		warmP50, warmP99 := pctPair(warmMS)
		ratio := 0.0
		if warmP50 > 0 {
			ratio = coldP50 / warmP50
		}
		t.AddRow(fam.name, g.N(), trials, coldP50, coldP99, warmP50, warmP99, ratio)
	}
	return t
}

// pctPair returns the (p50, p99) of xs; p99 degrades to the max for
// small samples.
func pctPair(xs []float64) (p50, p99 float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	p99idx := (99*len(s) + 99) / 100 // nearest-rank: ceil(0.99 n)
	if p99idx > len(s) {
		p99idx = len(s)
	}
	return s[len(s)/2], s[p99idx-1]
}
