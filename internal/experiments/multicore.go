package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"hierpart/internal/gen"
	"hierpart/internal/hgp"
	"hierpart/internal/hierarchy"
	"hierpart/internal/metrics"
)

// e24Config is one cell of the E24 matrix: a worker budget crossed with
// the pruning mode. The budget picks how pruned trees run: one worker
// runs them one at a time, more race them under the shared atomic bound.
type e24Config struct {
	name    string
	workers int
	prune   bool
}

// E24MultiCoreMatrix is the multi-core bench matrix over the mixed
// 8-tree E21 portfolio (2 bisection + 2 min-cut + 4 FRT, prebuilt once
// per size so the matrix isolates the DP phase). Four configurations
// per size — the tree-parallel × node-parallel × prune cross that
// matters:
//
//	w=1 off      sequential baseline, no pruning
//	w=1 on       sequential incumbent pruning, trees one at a time
//	w=W off      full worker budget, no pruning
//	w=W racing   full budget, pruning, trees racing under the shared bound
//
// Repeats are interleaved across all four configurations to decorrelate
// machine drift; medians are reported. "racing speedup" is w=1 on
// divided by w=W racing (what the concurrent portfolio buys over the
// sequential mode). The placements are bit-identical across every cell
// (the concurrent identity battery); only wall-clock and the per-tree
// records differ. Numbers from a single-core host (see the
// report's gomaxprocs/num_cpu fields) show the racing overhead floor,
// not the scaling — CI's multi-core runner regenerates the real matrix.
//
// The last repeat of each pruning configuration also records per-tree
// outcomes (done/pruned/failed, wall time, abort depth fraction) into
// Table.Trees, which hgpbench -json emits as the `trees` field — the
// record of where the bound actually bit.
func E24MultiCoreMatrix(cfg Config) *Table {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	t := &Table{
		ID: "E24",
		Title: fmt.Sprintf("Multi-core portfolio matrix on the mixed 8-tree portfolio (W = %d, GOMAXPROCS = %d)",
			w, runtime.GOMAXPROCS(0)),
		Columns: []string{"n", "w=1 off", "w=1 on", "w=W off", "w=W racing", "racing speedup", "pruned"},
		Notes: "expected on a multi-core host (W >= 4): racing speedup >= 1.5 at n=256; " +
			"on a single core the racing column only shows the shared-bound overhead floor; " +
			"placements are bit-identical in every cell, so only timing columns move",
	}
	configs := []e24Config{
		{name: "w1-off", workers: 1},
		{name: "w1-on", workers: 1, prune: true},
		{name: "wW-off", workers: w},
		{name: "wW-on-racing", workers: w, prune: true},
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 52))
	h := hierarchy.NUMASockets(8, 8)
	sizes := []int{64, 128, 256}
	if cfg.Quick {
		sizes = []int{64}
	}
	reps := cfg.pick(1, 3)
	for _, n := range sizes {
		g := gen.Community(rng, 8, n/8, 0.3, 0.01, 10, 1)
		for v := 0; v < g.N(); v++ {
			d := 0.05 + 0.3*rng.Float64()
			g.SetDemand(v, quantUp(d, 8))
		}
		base := hgp.Solver{Eps: 0.5, Trees: 4, Seed: 3}
		dec := mixedPortfolio(base, g)

		durs := make(map[string][]time.Duration, len(configs))
		last := make(map[string]*hgp.Result, len(configs))
		var solveErr error
		for r := 0; r < reps && solveErr == nil; r++ {
			for _, c := range configs {
				sv := base
				sv.Workers = c.workers
				sv.Prune = c.prune
				start := time.Now()
				res, err := sv.SolveDecomposition(context.Background(), g, h, dec)
				el := time.Since(start)
				if err != nil {
					solveErr = fmt.Errorf("%s n=%d: %w", c.name, n, err)
					break
				}
				durs[c.name] = append(durs[c.name], el)
				last[c.name] = res
			}
		}
		if solveErr != nil {
			row := make([]interface{}, len(t.Columns))
			row[0] = n
			row[1] = "err: " + solveErr.Error()
			for i := 2; i < len(row); i++ {
				row[i] = "-"
			}
			t.AddRow(row...)
			continue
		}
		med := func(name string) time.Duration { return medianDuration(durs[name]) }
		racing := med("wW-on-racing")
		t.AddRow(n,
			med("w1-off").Round(time.Millisecond),
			med("w1-on").Round(time.Millisecond),
			med("wW-off").Round(time.Millisecond),
			racing.Round(time.Millisecond),
			metrics.Ratio(med("w1-on").Seconds(), racing.Seconds()),
			last["wW-on-racing"].TreesPruned)
		for _, name := range []string{"w1-on", "wW-on-racing"} {
			res := last[name]
			for i, ts := range res.TreeStats {
				t.Trees = append(t.Trees, TreeOutcome{
					Config: name, N: n, Tree: i,
					Outcome: ts.Outcome, WallMS: ts.WallMS, AbortFrac: ts.AbortFrac,
				})
			}
		}
	}
	return t
}
