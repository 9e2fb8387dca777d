package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"

	"hierpart/internal/server"
)

// genAll generates every workload's plan for seed and returns the
// sequence hash and the first request body of each.
func genAll(seed int64) (hashes []string, first [][]byte) {
	c := genColdLadder(seed, 2)
	r := genRelabelHits(seed)
	s := genSessionReweight(seed, 2)
	return []string{c.hash, r.hash, s.hash},
		[][]byte{c.ops[0].body, r.tenants[0].register, s.sessions[0].register}
}

func TestSameSeedSameSequence(t *testing.T) {
	h1, b1 := genAll(7)
	h2, b2 := genAll(7)
	for i := range h1 {
		if h1[i] != h2[i] || !bytes.Equal(b1[i], b2[i]) {
			t.Errorf("%s: same seed gave different op sequences", workloadNames[i])
		}
	}
}

func TestDifferentSeedDifferentInstances(t *testing.T) {
	h1, b1 := genAll(7)
	h2, b2 := genAll(8)
	for i := range h1 {
		if h1[i] == h2[i] || bytes.Equal(b1[i], b2[i]) {
			t.Errorf("%s: seeds 7 and 8 gave the same instances", workloadNames[i])
		}
	}
}

// TestSequenceShapeIsSeedIndependent pins the fixed schedules: sizes,
// families and batch sizes do not depend on the seed.
func TestSequenceShapeIsSeedIndependent(t *testing.T) {
	a, b := genColdLadder(1, 4), genColdLadder(2, 4)
	for i := range a.ops {
		if a.ops[i].family != b.ops[i].family {
			t.Fatalf("cold-ladder op %d: family %s vs %s", i, a.ops[i].family, b.ops[i].family)
		}
	}
	r1, r2 := genRelabelHits(1), genRelabelHits(2)
	for i := range r1.tenants {
		if r1.tenants[i].base.N() != r2.tenants[i].base.N() {
			t.Fatalf("tenant %d: n %d vs %d", i, r1.tenants[i].base.N(), r2.tenants[i].base.N())
		}
	}
	s1, s2 := genSessionReweight(1, 2), genSessionReweight(2, 2)
	for i := range s1.ops {
		if s1.ops[i].sess != s2.ops[i].sess || s1.ops[i].k != s2.ops[i].k {
			t.Fatalf("session op %d: routing differs across seeds", i)
		}
	}
}

func TestUnionAndSelfTimes(t *testing.T) {
	// op root [0,100); children a [10,40) and b [30,60) overlap; a has
	// a child [15,20).
	spans := []span{
		{name: "op", op: 3, parent: -1, start: 0, end: 100},
		{name: "a", op: 3, parent: 0, start: 10, end: 40},
		{name: "b", op: 3, parent: 0, start: 30, end: 60},
		{name: "c", op: 3, parent: 1, start: 15, end: 20},
	}
	layers, roots := reduce(spans)
	if r := roots[3]; r.wall != 100 || r.covered != 50 {
		t.Fatalf("root wall/covered = %d/%d, want 100/50", r.wall, r.covered)
	}
	want := map[string]layerTime{"a": {30, 25}, "b": {30, 30}, "c": {5, 5}}
	for n, w := range want {
		if got := *layers[3][n]; got != w {
			t.Errorf("%s: got %+v, want %+v", n, got, w)
		}
	}
	if got := unionLen([]interval{{0, 10}, {20, 30}, {5, 25}}, 0, 100); got != 30 {
		t.Errorf("unionLen = %d, want 30", got)
	}
	if got := unionLen([]interval{{-5, 10}, {90, 120}}, 0, 100); got != 20 {
		t.Errorf("clipped unionLen = %d, want 20", got)
	}
}

func TestPercentileCountsFailuresAsSlowest(t *testing.T) {
	xs := []float64{4, 1, 3, 2, math.Inf(1)}
	if got := percentile(xs, 0.5); got != 3 {
		t.Errorf("p50 = %g, want 3", got)
	}
	if got := percentile(xs, 0.9); !math.IsInf(got, 1) {
		t.Errorf("p90 = %g, want +Inf (a failure lies at or beyond it)", got)
	}
}

// TestReplayMatchesDaemon runs a short session-reweight sequence
// through the daemon and through the traced replay: the placements,
// costs and churn must agree, or the per-layer ledger would describe
// different work than the end-to-end run.
func TestReplayMatchesDaemon(t *testing.T) {
	const ops = 8
	w1, _ := newWorkload("session-reweight", 5, 1)
	srv, err := server.New(daemonConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	if err := w1.setup(h); err != nil {
		t.Fatal(err)
	}
	w2, _ := newWorkload("session-reweight", 5, 1)
	rp := newReplayer()
	if err := w2.(replayable).replaySetup(rp); err != nil {
		t.Fatal(err)
	}
	rp.tr = newTracer()
	for i := 0; i < ops; i++ {
		a := w1.do(h, i)
		b := w2.(replayable).replay(rp, i)
		var ra, rb server.GraphPartitionResponse
		if err := json.Unmarshal(a.resp, &ra); err != nil {
			t.Fatalf("op %d: daemon: %v (status %d)", i, err, a.status)
		}
		if err := json.Unmarshal(b.resp, &rb); err != nil {
			t.Fatalf("op %d: replay: %v (status %d)", i, err, b.status)
		}
		if ra.Cost != rb.Cost || ra.MovedTasks != rb.MovedTasks || ra.Version != rb.Version ||
			ra.TablesComputed != rb.TablesComputed {
			t.Errorf("op %d: daemon cost %g moved %d v%d computed %d; replay cost %g moved %d v%d computed %d",
				i, ra.Cost, ra.MovedTasks, ra.Version, ra.TablesComputed, rb.Cost, rb.MovedTasks, rb.Version, rb.TablesComputed)
		}
	}
}

// TestBenchmarkJSONListsTheMetrics keeps BENCHMARK.json and the
// program's metric lists in step.
func TestBenchmarkJSONListsTheMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found beside the benchmark")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for i, w := range spec.Workloads {
		if i >= len(workloadNames) || w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json has %q", i, w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestRelabelHitsRunsClean drives the two-client workload for a moment,
// untraced and traced, so the race detector sees the concurrent client,
// check and replay paths.
func TestRelabelHitsRunsClean(t *testing.T) {
	res, err := endToEndRun(io.Discard, "relabel-hits", 3, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("end-to-end: %+v", res)
	}
	res, err = tracedRun(io.Discard, "relabel-hits", 3, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Metrics["cache.result_hit_ratio"].Value != 1 {
		t.Errorf("traced: %+v", res)
	}
}
