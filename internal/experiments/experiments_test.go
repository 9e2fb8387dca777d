package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func quickCfg() Config { return Config{Seed: 1, Quick: true} }

func checkTable(t *testing.T, tab *Table) {
	t.Helper()
	if tab.ID == "" || tab.Title == "" || len(tab.Columns) == 0 {
		t.Fatalf("table metadata incomplete: %+v", tab)
	}
	if len(tab.Rows) == 0 {
		t.Fatalf("%s: no rows", tab.ID)
	}
	for i, r := range tab.Rows {
		if len(r) != len(tab.Columns) {
			t.Fatalf("%s row %d has %d cells, want %d: %v", tab.ID, i, len(r), len(tab.Columns), r)
		}
	}
	out := tab.Format()
	if !strings.Contains(out, tab.ID) || !strings.Contains(out, tab.Columns[0]) {
		t.Fatalf("%s: Format output malformed:\n%s", tab.ID, out)
	}
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cannot parse %q as float", s)
	}
	return v
}

func TestE1AllExact(t *testing.T) {
	tab := E1TreeDPOptimality(quickCfg())
	checkTable(t, tab)
	for _, r := range tab.Rows {
		if mean := parseF(t, r[2]); mean < 0.999 || mean > 1.001 {
			t.Fatalf("E1 %s: mean ratio %v, want 1.0", r[0], mean)
		}
		// "exact" column must be all trials.
		parts := strings.Split(r[4], "/")
		if parts[0] != parts[1] {
			t.Fatalf("E1 %s: not all exact: %s", r[0], r[4])
		}
	}
}

func TestE2Noise(t *testing.T) {
	tab := E2CostForms(quickCfg())
	checkTable(t, tab)
	for _, r := range tab.Rows {
		if d := parseF(t, r[2]); d > 1e-9 {
			t.Fatalf("E2 %s: rel diff %v above noise", r[0], d)
		}
	}
}

func TestE3AllWithinBound(t *testing.T) {
	tab := E3ViolationBound(quickCfg())
	checkTable(t, tab)
	for _, r := range tab.Rows {
		if r[5] != "true" {
			t.Fatalf("E3 row %v violates the bound", r)
		}
	}
}

func TestE4Rows(t *testing.T) {
	tab := E4ApproxRatio(quickCfg())
	checkTable(t, tab)
}

func TestE5BaselinesOrdering(t *testing.T) {
	tab := E5VsBaselines(quickCfg())
	checkTable(t, tab)
	for _, r := range tab.Rows {
		// Random should not beat HGP on any workload family.
		if ratio := parseF(t, r[8]); ratio < 0.99 {
			t.Fatalf("E5 %s: random ratio %v < 1", r[0], ratio)
		}
	}
}

func TestE6Throughput(t *testing.T) {
	tab := E6StreamThroughput(quickCfg())
	checkTable(t, tab)
	for _, r := range tab.Rows {
		if len(r) < 9 {
			t.Fatalf("E6 row short (solver error?): %v", r)
		}
		hgpTP := parseF(t, r[2])
		rndTP := parseF(t, r[6])
		if hgpTP < rndTP*0.9 {
			t.Fatalf("E6 %s: HGP λ %v well below random %v", r[0], hgpTP, rndTP)
		}
	}
}

func TestE7MinAboveOne(t *testing.T) {
	tab := E7TreeDistortion(quickCfg())
	checkTable(t, tab)
	for _, r := range tab.Rows {
		if min := parseF(t, r[3]); min < 1-1e-9 {
			t.Fatalf("E7 %s: min distortion %v < 1 breaks Proposition 1", r[0], min)
		}
	}
}

func TestE8Runs(t *testing.T) {
	tab := E8DPScaling(quickCfg())
	checkTable(t, tab)
}

func TestE9MonotoneBenefit(t *testing.T) {
	tab := E9CMSweep(quickCfg())
	checkTable(t, tab)
	first := parseF(t, tab.Rows[0][3])
	last := parseF(t, tab.Rows[len(tab.Rows)-1][3])
	if last < first {
		t.Fatalf("E9: benefit ratio fell from %v to %v as cm steepened", first, last)
	}
}

func TestE10AllAgree(t *testing.T) {
	tab := E10KBGPConsistency(quickCfg())
	checkTable(t, tab)
	for _, r := range tab.Rows {
		parts := strings.Split(r[2], "/")
		if parts[0] != parts[1] {
			t.Fatalf("E10 leaves=%s: %s agree", r[0], r[2])
		}
	}
}

func TestF1AllPreserved(t *testing.T) {
	tab := F1BadSetSplit(quickCfg())
	checkTable(t, tab)
	r := tab.Rows[0]
	parts := strings.Split(r[2], "/")
	if parts[0] != parts[1] {
		t.Fatalf("F1: only %s splits preserved", r[2])
	}
	found, _ := strconv.Atoi(parts[1])
	if found == 0 {
		t.Fatal("F1: no split cases found — experiment vacuous")
	}
}

func TestF2AllOK(t *testing.T) {
	tab := F2ActiveSets(quickCfg())
	checkTable(t, tab)
	for _, r := range tab.Rows {
		for _, col := range []string{r[2], r[3]} {
			parts := strings.Split(col, "/")
			if parts[0] != parts[1] {
				t.Fatalf("F2 %s: %v", r[0], r)
			}
		}
	}
}

func TestE11AblationShowsBothFailureModes(t *testing.T) {
	tab := E11AblationDP(quickCfg())
	checkTable(t, tab)
	// Row 0: corrected DP must be exact on every instance.
	parts := strings.Split(tab.Rows[0][2], "/")
	if parts[0] != parts[1] {
		t.Fatalf("corrected DP not exact: %v", tab.Rows[0])
	}
	// Literal Eq.(4) must undercount on at least one instance; the
	// no-zero-region variant must overcount on at least one.
	if tab.Rows[1][3] == "0" {
		t.Fatalf("literal Eq.(4) never undercounted: %v", tab.Rows[1])
	}
	if tab.Rows[2][4] == "0" {
		t.Fatalf("no-zero-regions never overcounted: %v", tab.Rows[2])
	}
}

func TestE12TreesMonotone(t *testing.T) {
	tab := E12AblationTrees(quickCfg())
	checkTable(t, tab)
	first := parseF(t, tab.Rows[0][1])
	last := parseF(t, tab.Rows[len(tab.Rows)-1][1])
	if last > first*1.001 {
		t.Fatalf("E12: mean cost rose from %v (1 tree) to %v (8 trees)", first, last)
	}
}

func TestE13Runs(t *testing.T) {
	tab := E13AblationRefinement(quickCfg())
	checkTable(t, tab)
	for _, r := range tab.Rows {
		if m := parseF(t, r[1]); m < 1-1e-9 {
			t.Fatalf("E13: mean distortion %v < 1", m)
		}
	}
}

func TestE14Congestion(t *testing.T) {
	tab := E14EmbeddingCongestion(quickCfg())
	checkTable(t, tab)
	for _, r := range tab.Rows {
		if c := parseF(t, r[3]); c <= 0 {
			t.Fatalf("E14 %s: min congestion %v", r[0], c)
		}
	}
}

func TestE15DESStability(t *testing.T) {
	tab := E15DESStability(quickCfg())
	checkTable(t, tab)
	for _, r := range tab.Rows {
		if len(r) < 7 {
			t.Fatalf("E15 row short: %v", r)
		}
		hgpLimit := parseF(t, r[2])
		rndLimit := parseF(t, r[5])
		if hgpLimit <= 0 {
			t.Fatalf("E15 %s: HGP stability limit %v", r[0], hgpLimit)
		}
		if hgpLimit < rndLimit*0.7 {
			t.Fatalf("E15 %s: HGP limit %v far below random %v", r[0], hgpLimit, rndLimit)
		}
	}
}

func TestE16FlowRefine(t *testing.T) {
	tab := E16AblationFlowRefine(quickCfg())
	checkTable(t, tab)
	// Per family: FM+flow mean distortion must not exceed FM-only.
	for i := 0; i+1 < len(tab.Rows); i += 2 {
		plain := parseF(t, tab.Rows[i][2])
		flow := parseF(t, tab.Rows[i+1][2])
		if flow > plain*1.05 {
			t.Fatalf("E16 %s: flow polish worsened distortion %v -> %v", tab.Rows[i][0], plain, flow)
		}
	}
}

func TestE17Strategy(t *testing.T) {
	tab := E17AblationStrategy(quickCfg())
	checkTable(t, tab)
	for i := 0; i+2 < len(tab.Rows); i += 3 {
		fmDist := parseF(t, tab.Rows[i][2])
		mcDist := parseF(t, tab.Rows[i+1][2])
		if mcDist > fmDist*1.2 {
			t.Fatalf("E17 %s: min-cut strategy distortion %v much worse than FM %v",
				tab.Rows[i][0], mcDist, fmDist)
		}
		if parseF(t, tab.Rows[i+1][4]) < parseF(t, tab.Rows[i][4]) {
			t.Fatalf("E17 %s: min-cut trees should be at least as deep", tab.Rows[i][0])
		}
		// The FRT row exists and its trees are structurally usable
		// (finite distortion, positive DP states).
		if parseF(t, tab.Rows[i+2][2]) < 1-1e-9 {
			t.Fatalf("E17 %s: FRT distortion below 1", tab.Rows[i][0])
		}
	}
}

func TestE18Dynamic(t *testing.T) {
	tab := E18DynamicRepartition(quickCfg())
	checkTable(t, tab)
	for _, r := range tab.Rows {
		if len(r) < 7 {
			t.Fatalf("E18 row short (solver error?): %v", r)
		}
		scratchCost := parseF(t, r[3])
		dynCost := parseF(t, r[4])
		if dynCost > scratchCost+1e-6 {
			t.Fatalf("E18 epoch %s: dynamic cost %v above scratch %v", r[0], dynCost, scratchCost)
		}
		if parseF(t, r[6]) > parseF(t, r[5])+1e-9 {
			t.Fatalf("E18 epoch %s: dynamic moved more than scratch", r[0])
		}
	}
}

func TestE19EpsSweep(t *testing.T) {
	tab := E19EpsSweep(quickCfg())
	checkTable(t, tab)
	// States must not shrink as ε gets finer (rows ordered coarse→fine).
	first := parseF(t, tab.Rows[0][3])
	last := parseF(t, tab.Rows[len(tab.Rows)-1][3])
	if last < first {
		t.Fatalf("E19: states shrank with finer ε: %v -> %v", first, last)
	}
	// The finest ε's violation must not exceed the coarsest's.
	if parseF(t, tab.Rows[len(tab.Rows)-1][2]) > parseF(t, tab.Rows[0][2])+1e-9 {
		t.Fatalf("E19: violation grew as ε shrank")
	}
}

func TestE20Pruning(t *testing.T) {
	tab := E20AblationPruning(quickCfg())
	checkTable(t, tab)
	for _, r := range tab.Rows {
		if r[7] != "true" {
			t.Fatalf("E20 row %v: pruning changed the optimum", r)
		}
		if parseF(t, r[2]) > parseF(t, r[3]) {
			t.Fatalf("E20 row %v: pruning increased states", r)
		}
	}
}

func TestE21AtScale(t *testing.T) {
	tab := E21AtScale(quickCfg())
	checkTable(t, tab)
	for _, r := range tab.Rows {
		if len(r) < 8 {
			t.Fatalf("E21 row short: %v", r)
		}
		if ratio := parseF(t, r[7]); ratio < 1 {
			t.Fatalf("E21 n=%s: random beat the pipeline (%v)", r[0], ratio)
		}
	}
}

func TestE22LadderNeverErrors(t *testing.T) {
	tab := E22AnytimeLadder(quickCfg())
	checkTable(t, tab)
	for _, r := range tab.Rows {
		// Every budget row must carry a real tier — the ladder's contract
		// is an answer at any budget, never an error row.
		switch r[1] {
		case "full_dp", "baseline":
		default:
			t.Fatalf("E22 budget %s: tier %q", r[0], r[1])
		}
		// The winning rung must sit inside the (1+eps) capacity guarantee
		// (eps = 0.25 here): feasibility-first selection must never let a
		// capacity-cheating rung through when a DP tier could finish.
		if v := parseF(t, r[7]); v > 1.25+1e-9 {
			t.Fatalf("E22 budget %s: violation %v beyond 1+eps", r[0], v)
		}
	}
}

func TestE24MultiCoreMatrix(t *testing.T) {
	tab := E24MultiCoreMatrix(quickCfg())
	checkTable(t, tab)
	for _, r := range tab.Rows {
		// Timing columns are machine-dependent; the invariants are that
		// every cell solved (no error rows), the ratio parses positive,
		// and the racing run pruned at least zero trees.
		if strings.HasPrefix(r[1], "err:") {
			t.Fatalf("E24 n=%s errored: %v", r[0], r)
		}
		if parseF(t, r[5]) <= 0 {
			t.Fatalf("E24 n=%s: non-positive speedup ratio: %v", r[0], r)
		}
		if parseF(t, r[6]) < 0 {
			t.Fatalf("E24 n=%s: negative pruned count: %v", r[0], r)
		}
	}
	// Per-tree outcome records: the w=1 and racing pruning configs
	// each contribute one record per portfolio tree (8), for every size.
	want := 2 * 8 * len(tab.Rows)
	if len(tab.Trees) != want {
		t.Fatalf("E24: %d tree records, want %d", len(tab.Trees), want)
	}
	for _, tr := range tab.Trees {
		switch tr.Outcome {
		case "done", "pruned", "failed":
		default:
			t.Fatalf("E24 tree record has outcome %q: %+v", tr.Outcome, tr)
		}
		if tr.WallMS < 0 || tr.AbortFrac < 0 || tr.AbortFrac > 1 {
			t.Fatalf("E24 tree record out of range: %+v", tr)
		}
		if tr.Outcome == "done" && tr.AbortFrac != 1 {
			t.Fatalf("E24 done tree with abort_frac %v: %+v", tr.AbortFrac, tr)
		}
	}
}

func TestE23WarmRestart(t *testing.T) {
	tab := E23WarmRestart(quickCfg())
	checkTable(t, tab)
	if len(tab.Rows) != 3 {
		t.Fatalf("E23: want one row per family, got %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		// Timings are machine-dependent; assert only that every trial
		// completed (no error text in the timing cells) and the latencies
		// are real measurements.
		if parseF(t, r[3]) <= 0 || parseF(t, r[5]) <= 0 {
			t.Fatalf("E23 %s: non-positive latency row %v", r[0], r)
		}
		if parseF(t, r[7]) <= 0 {
			t.Fatalf("E23 %s: cold/warm ratio must be positive: %v", r[0], r)
		}
	}
}

func TestE25CanonCache(t *testing.T) {
	tab := E25CanonCache(quickCfg())
	checkTable(t, tab)
	if len(tab.Rows) != 3 {
		t.Fatalf("E25: want off/on/lift rows, got %d: %v", len(tab.Rows), tab.Rows)
	}
	off, on, lift := tab.Rows[0], tab.Rows[1], tab.Rows[2]
	if off[0] != "off" || on[0] != "on" || lift[0] != "lift" {
		t.Fatalf("E25: unexpected row order: %v", tab.Rows)
	}
	// The acceptance bar: canonical fingerprinting lifts the hit ratio at
	// least 5x over the identity-only baseline, and a cache hit's cost is
	// bit-identical to a fresh solve (the |Δcost| cells print exactly 0).
	if r := parseF(t, lift[4]); r < 5 {
		t.Fatalf("E25: hit-ratio lift %v < 5", r)
	}
	if parseF(t, on[4]) <= parseF(t, off[4]) {
		t.Fatalf("E25: canon=on ratio %s not above canon=off %s", on[4], off[4])
	}
	for _, r := range [][]string{off, on} {
		if r[8] != "0" {
			t.Fatalf("E25 canon=%s: max |Δcost| = %q, want exactly 0", r[0], r[8])
		}
	}
}

func TestAllProducesEveryTable(t *testing.T) {
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19", "E20", "E21", "E22", "E23", "E24", "E25", "E26", "F1", "F2"}
	if len(Registry) != len(want) {
		t.Fatalf("Registry has %d experiments, want %d", len(Registry), len(want))
	}
	cfg := quickCfg()
	for i, id := range want {
		if Registry[i].ID != id {
			t.Fatalf("registry entry %d = %s, want %s", i, Registry[i].ID, id)
		}
		if tab := Registry[i].Run(cfg); tab.ID != id {
			t.Fatalf("registry entry %s produced table %s", id, tab.ID)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	tab := &Table{ID: "EX", Title: "x", Columns: []string{"a", "b"}}
	tab.AddRow(1, 2.5)
	var sb strings.Builder
	if err := tab.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "experiment,a,b\nEX,1,2.5\n"
	if sb.String() != want {
		t.Fatalf("csv = %q, want %q", sb.String(), want)
	}
}
