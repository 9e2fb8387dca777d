// Command hgpbench runs the reproduction's experiment suite (E1–E26,
// F1–F2; see EXPERIMENTS.md) and prints the result tables.
//
// Usage:
//
//	hgpbench [-quick] [-seed N] [-only E5,E6] [-csv] [-workers N]
//	         [-prune] [-json out.json]
//	         [-budget 100ms] [-tier baseline]
//	         [-cpuprofile out.pprof] [-memprofile out.pprof]
//
// -workers bounds the solver's concurrency budget (0 = GOMAXPROCS).
// -prune turns on incumbent portfolio pruning in every pipeline solve;
// tables are identical either way (the pruning identity battery), only
// solve-time columns move. -json additionally writes the tables, with
// per-experiment wall-clock, as one machine-readable JSON document —
// the format benchmark baselines (BENCH_PR5.json, BENCH_PR6.json) are
// recorded in. The document's schema tag is hgpbench/2: relative to
// hgpbench/1 it adds the host's num_cpu and, for experiments that fill
// them (E24), per-tree portfolio outcome records under `trees`.
// Tables are identical at every worker count: each decomposition tree
// draws from its own sub-seeded RNG stream, so only -seed changes the
// numbers. (That per-seed stream changed when intra-solver parallelism
// landed — tables recorded before then differ for the same seed.)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"hierpart/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "run reduced instance sizes")
	seed := flag.Int64("seed", 1, "random seed (tables are reproducible per seed)")
	only := flag.String("only", "", "comma-separated experiment IDs to run (e.g. E5,F1); empty = all")
	csvOut := flag.Bool("csv", false, "emit CSV instead of aligned text")
	workers := flag.Int("workers", 0, "solver concurrency budget (0 = GOMAXPROCS for the pipeline); tables are identical at every worker count")
	prune := flag.Bool("prune", false, "incumbent portfolio pruning in pipeline solves; tables are identical either way, only solve-time columns move")
	jsonOut := flag.String("json", "", "also write results as machine-readable JSON to this file")
	budget := flag.Duration("budget", 0, "per-solve wall-clock budget for the E22 anytime ladder (0 = the default sweep)")
	tier := flag.String("tier", "", "restrict the E22 ladder to one rung: full_dp or baseline (empty = whole ladder)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hgpbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "hgpbench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memprofile == "" {
			return
		}
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hgpbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC() // settle allocations so the profile shows live heap
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "hgpbench:", err)
			os.Exit(1)
		}
	}()

	cfg := experiments.Config{Seed: *seed, Quick: *quick, Workers: *workers, Prune: *prune, Budget: *budget, Tier: *tier}
	want := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(strings.ToUpper(id)); id != "" {
			want[id] = true
		}
	}

	report := jsonReport{
		Schema: schemaVersion, Seed: *seed, Quick: *quick,
		Workers: *workers, Prune: *prune,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
	}
	ran := 0
	for _, r := range experiments.Registry {
		if len(want) > 0 && !want[r.ID] {
			continue
		}
		start := time.Now()
		tab := r.Run(cfg)
		wall := time.Since(start)
		if *csvOut {
			if err := tab.WriteCSV(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "hgpbench:", err)
				os.Exit(1)
			}
		} else {
			fmt.Print(tab.Format())
			fmt.Printf("   (%s in %s)\n\n", r.ID, wall.Round(time.Millisecond))
		}
		report.Experiments = append(report.Experiments, jsonExperiment{
			ID: tab.ID, Title: tab.Title, Columns: tab.Columns, Rows: tab.Rows,
			Notes: tab.Notes, WallMS: float64(wall.Microseconds()) / 1000,
			Trees: tab.Trees,
		})
		ran++
	}
	if ran == 0 {
		fmt.Fprintln(os.Stderr, "hgpbench: no experiments matched -only filter")
		os.Exit(2)
	}
	if *jsonOut != "" {
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "hgpbench:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonOut, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "hgpbench:", err)
			os.Exit(1)
		}
	}
}

// schemaVersion tags the -json document. Consumers (the CI bench jobs,
// recorded baselines like BENCH_PR5.json and BENCH_PR6.json) key on it;
// bump it only when the document shape changes, and record the delta in
// the package comment. hgpbench/2 added num_cpu and per-experiment
// `trees` records.
const schemaVersion = "hgpbench/2"

// jsonReport is the -json output document: the run's configuration plus
// every table it produced, with per-experiment wall-clock. Rows stay
// strings (exactly the cells the text table shows) so the document is
// stable across schema-free float formatting differences.
type jsonReport struct {
	Schema      string           `json:"schema"` // schemaVersion
	Seed        int64            `json:"seed"`
	Quick       bool             `json:"quick"`
	Workers     int              `json:"workers"`
	Prune       bool             `json:"prune"`
	GOMAXPROCS  int              `json:"gomaxprocs"`
	NumCPU      int              `json:"num_cpu"`
	Experiments []jsonExperiment `json:"experiments"`
}

type jsonExperiment struct {
	ID      string                    `json:"id"`
	Title   string                    `json:"title"`
	Columns []string                  `json:"columns"`
	Rows    [][]string                `json:"rows"`
	Notes   string                    `json:"notes,omitempty"`
	WallMS  float64                   `json:"wall_ms"`
	Trees   []experiments.TreeOutcome `json:"trees,omitempty"`
}
