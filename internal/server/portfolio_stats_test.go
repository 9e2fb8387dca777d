package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"hierpart/internal/telemetry"
)

// The portfolio stats block (ISSUE 6 satellite): /v1/stats carries a
// `portfolio` object in JSON and the portfolio series in Prometheus
// text, pre-registered at zero so scrapers see them before the first
// solve.
func TestPortfolioStatsBlock(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := newTestServer(t, Config{Registry: reg, SolverWorkers: 4})

	// Before any solve: the block exists, everything is zero, and the
	// Prometheus series are already registered.
	var st StatsResponse
	if err := json.Unmarshal(getPath(s, "/v1/stats").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Portfolio.TreesPrunedTotal != 0 || st.Portfolio.ParallelSolvesTotal != 0 ||
		st.Portfolio.SequentialSolvesTotal != 0 {
		t.Fatalf("pre-solve portfolio block not zero: %+v", st.Portfolio)
	}
	prom := getPath(s, "/v1/stats?format=prometheus").Body.String()
	for _, want := range []string{
		"trees_pruned_total 0",
		"portfolio_parallel_trees 0",
		"portfolio_parallel_solves_total 0",
		"portfolio_sequential_solves_total 0",
	} {
		if !strings.Contains(prom, want) {
			t.Fatalf("prometheus output missing pre-registered %q:\n%s", want, prom)
		}
	}

	// One solve with a 4-worker budget over 2 trees: trees race two
	// abreast, so the solve counts as parallel and the gauge reports 2.
	if rec := postPartition(t, s.Handler(), testRequest()); rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body = %s", rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(getPath(s, "/v1/stats").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Portfolio.ParallelTrees != 2 {
		t.Fatalf("parallel_trees = %d, want 2 (4 workers over 2 trees)", st.Portfolio.ParallelTrees)
	}
	if st.Portfolio.ParallelSolvesTotal != 1 || st.Portfolio.SequentialSolvesTotal != 0 {
		t.Fatalf("solve counters = %d parallel / %d sequential, want 1 / 0",
			st.Portfolio.ParallelSolvesTotal, st.Portfolio.SequentialSolvesTotal)
	}
	prom = getPath(s, "/v1/stats?format=prometheus").Body.String()
	if !strings.Contains(prom, "portfolio_parallel_trees 2") {
		t.Fatalf("prometheus output missing portfolio_parallel_trees 2:\n%s", prom)
	}

	// A result-cache hit runs no portfolio: counters must not move.
	if rec := postPartition(t, s.Handler(), testRequest()); rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body = %s", rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(getPath(s, "/v1/stats").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Portfolio.ParallelSolvesTotal != 1 {
		t.Fatalf("result-cache hit moved parallel_solves_total to %d", st.Portfolio.ParallelSolvesTotal)
	}
}

// TestSingleWorkerPortfolioIsSequential: a single-worker budget runs
// the pruned portfolio one tree at a time, and the stats block counts
// the solve as sequential.
func TestSingleWorkerPortfolioIsSequential(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := newTestServer(t, Config{Registry: reg, SolverWorkers: 1})
	if rec := postPartition(t, s.Handler(), testRequest()); rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body = %s", rec.Code, rec.Body.String())
	}
	var st StatsResponse
	if err := json.Unmarshal(getPath(s, "/v1/stats").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Portfolio.ParallelTrees != 1 || st.Portfolio.SequentialSolvesTotal != 1 {
		t.Fatalf("portfolio block = %+v, want parallel_trees 1, sequential_solves_total 1", st.Portfolio)
	}
}
