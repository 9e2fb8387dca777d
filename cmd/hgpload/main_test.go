package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"hierpart/internal/canon"
	"hierpart/internal/graph"
	"hierpart/internal/instio"
)

func TestLatencyStats(t *testing.T) {
	if got := latencyStats(nil); len(got) != 0 {
		t.Fatalf("latencyStats(nil) = %v, want empty", got)
	}
	lat := make([]time.Duration, 100)
	for i, j := range rand.New(rand.NewSource(1)).Perm(100) {
		lat[i] = time.Duration(j+1) * time.Millisecond
	}
	got := latencyStats(lat)
	// Nearest-rank below: index ⌊p·(n−1)⌋ of the sorted latencies.
	want := map[string]float64{"p50": 50, "p90": 90, "p99": 99, "max": 100}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("latencyStats = %v, want %v", got, want)
	}
	for i := 1; i < len(lat); i++ {
		if lat[i] < lat[i-1] {
			t.Fatal("latencyStats must sort its argument in place")
		}
	}
}

// order rotates its starting endpoint on every call and moves cooled
// endpoints to the back instead of dropping them.
func TestEndpointPoolOrder(t *testing.T) {
	p := newEndpointPool([]string{"http://a", "http://b/", "http://c"}, time.Hour)
	if p.urls[1] != "http://b/v1/partition" {
		t.Fatalf("url = %q, want the base without its trailing slash", p.urls[1])
	}
	for _, want := range []string{"[0 1 2]", "[1 2 0]", "[2 0 1]", "[0 1 2]"} {
		if got := fmt.Sprint(p.order()); got != want {
			t.Fatalf("order() = %s, want %s", got, want)
		}
	}
	p.cool(1)
	for _, want := range []string{"[2 0 1]", "[2 0 1]", "[0 2 1]"} {
		if got := fmt.Sprint(p.order()); got != want {
			t.Fatalf("with b cooled, order() = %s, want %s", got, want)
		}
	}
}

// Every zipf body is one tenant's instance under a vertex relabelling
// (canonical fingerprints match), with the solver seed fixed at 1 so
// isomorphic submissions share one solver identity.
func TestZipfBodyRelabelsTenantInstance(t *testing.T) {
	w := newZipfWorkload(8, 1.3, 2, 500)
	fingerprint := func(g *graph.Graph) string {
		t.Helper()
		f, ok := canon.Canonicalize(g)
		if !ok {
			t.Fatal("tenant instance does not canonicalize")
		}
		return f.Fingerprint
	}
	tenants := map[string]bool{}
	for _, ti := range w.tenants {
		g, _, err := (&instio.Instance{Hierarchy: instio.HierarchySpec{Deg: []int{2, 4}, CM: []float64{8, 2, 0}},
			N: ti.n, Demands: ti.demands, Edges: ti.edges}).Materialize()
		if err != nil {
			t.Fatal(err)
		}
		tenants[fingerprint(g)] = true
	}
	relabelled := 0
	for i := 0; i < 50; i++ {
		var body struct {
			instio.Instance
			Seed      int64 `json:"seed"`
			Trees     int   `json:"trees"`
			TimeoutMS int   `json:"timeout_ms"`
		}
		raw := w.body()
		if err := json.Unmarshal(raw, &body); err != nil {
			t.Fatal(err)
		}
		if body.Seed != 1 || body.Trees != 2 || body.TimeoutMS != 500 {
			t.Fatalf("body %d: seed %d, trees %d, timeout_ms %d; want 1, 2, 500", i, body.Seed, body.Trees, body.TimeoutMS)
		}
		g, _, err := body.Materialize()
		if err != nil {
			t.Fatalf("body %d does not materialize: %v", i, err)
		}
		if !tenants[fingerprint(g)] {
			t.Fatalf("body %d is not a relabelling of any tenant's instance", i)
		}
		relabelled++
		for _, ti := range w.tenants {
			if fmt.Sprint(ti.edges) == fmt.Sprint(body.Edges) {
				relabelled-- // resubmitted under the tenant's own labels
				break
			}
		}
	}
	if relabelled == 0 {
		t.Fatal("no body was relabelled")
	}
}

// runLoad runs the built hgpload against a stub daemon that answers
// every request with status(n) for the n-th request (from 1), and
// returns the summary, the exit code and how many requests the stub saw.
func runLoad(t *testing.T, bin string, status func(n int64) int, args ...string) (Summary, int, int64) {
	t.Helper()
	var seen atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/partition" {
			t.Errorf("stub got %s %s", r.Method, r.URL.Path)
		}
		code := status(seen.Add(1))
		w.WriteHeader(code)
		if code == http.StatusOK {
			fmt.Fprint(w, `{"result_cache_hit": true, "canon_hit": false}`)
		} else {
			fmt.Fprint(w, `{"error": "boom", "code": "solve_failed"}`)
		}
	}))
	defer stub.Close()
	cmd := exec.Command(bin, append([]string{"-addr", stub.URL, "-duration", "300ms"}, args...)...)
	out, err := cmd.Output()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	var sum Summary
	if err := json.Unmarshal(out, &sum); err != nil {
		t.Fatalf("summary %q: %v", out, err)
	}
	return sum, code, seen.Load()
}

func TestBinaryModes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary; skipped with -short")
	}
	bin := filepath.Join(t.TempDir(), "hgpload")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building hgpload: %v\n%s", err, out)
	}
	ok := func(int64) int { return http.StatusOK }
	for _, mode := range [][]string{
		{"-mode", "closed", "-workers", "2"},
		{"-mode", "open", "-rate", "40"},
	} {
		sum, code, seen := runLoad(t, bin, ok, append(mode, "-strict")...)
		if code != 0 {
			t.Fatalf("%v: exit code %d on an all-200 run", mode, code)
		}
		if sum.Mode != mode[1] || seen == 0 || int64(sum.Requests) != seen || sum.OK != sum.Requests ||
			sum.Statuses["200"] != sum.OK || sum.ResultCacheHits != sum.OK || sum.ResultCacheHitRatio != 1 ||
			sum.Errors != 0 || sum.Unexpected != 0 || sum.LatencyMS["max"] <= 0 {
			t.Fatalf("%v: stub saw %d requests, summary %+v", mode, seen, sum)
		}
	}

	// One untagged 500 is an unexpected response, and -strict fails on it.
	firstFails := func(n int64) int {
		if n == 1 {
			return http.StatusInternalServerError
		}
		return http.StatusOK
	}
	sum, code, seen := runLoad(t, bin, firstFails, "-mode", "closed", "-workers", "1", "-strict")
	if code != 1 || sum.Unexpected != 1 || sum.Statuses["500"] != 1 || int64(sum.OK) != seen-1 {
		t.Fatalf("strict run over one 500: exit %d, stub saw %d, summary %+v", code, seen, sum)
	}
}
