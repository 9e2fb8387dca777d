package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hierpart/internal/canon"
	"hierpart/internal/graph"
	"hierpart/internal/hgp"
	"hierpart/internal/hierarchy"
	"hierpart/internal/instio"
	"hierpart/internal/telemetry"
)

// testRequest is a small 8-vertex instance: two chatty 4-cliques that a
// good partition puts on separate sockets.
func testRequest() PartitionRequest {
	var req PartitionRequest
	req.Hierarchy = instio.HierarchySpec{Deg: []int{2, 4}, CM: []float64{8, 2, 0}}
	req.N = 8
	req.Demands = []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5}
	for b := 0; b < 8; b += 4 {
		for i := b; i < b+4; i++ {
			for j := i + 1; j < b+4; j++ {
				req.Edges = append(req.Edges, [3]float64{float64(i), float64(j), 10})
			}
		}
	}
	req.Edges = append(req.Edges, [3]float64{0, 4, 1})
	req.Seed = 1
	req.Trees = 2
	// These unit tests pin down the no-degrade path's exact semantics
	// (single backend call, precise cache counters, 504 on deadline);
	// the ladder path has its own tests and the chaos battery.
	req.NoDegrade = true
	return req
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func postPartition(t *testing.T, h http.Handler, body any) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	switch b := body.(type) {
	case string:
		buf.WriteString(b)
	default:
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/partition", &buf))
	return rec
}

func decodeResponse(t *testing.T, rec *httptest.ResponseRecorder) PartitionResponse {
	t.Helper()
	var resp PartitionResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding %q: %v", rec.Body.String(), err)
	}
	return resp
}

func TestPartitionHappyPath(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := postPartition(t, s.Handler(), testRequest())
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body = %s", rec.Code, rec.Body.String())
	}
	resp := decodeResponse(t, rec)
	if len(resp.Assignment) != 8 {
		t.Fatalf("assignment has %d entries, want 8", len(resp.Assignment))
	}
	// The weak 0–4 edge is the only one that should cross sockets:
	// optimal cost is 1·cm(LCA). Whatever the tree draw, the two
	// cliques must land on distinct sockets (4 leaves per socket).
	socket := func(leaf int) int { return leaf / 4 }
	for _, pair := range [][2]int{{0, 1}, {0, 2}, {0, 3}, {4, 5}, {4, 6}, {4, 7}} {
		if socket(resp.Assignment[pair[0]]) != socket(resp.Assignment[pair[1]]) {
			t.Fatalf("clique split across sockets: %v", resp.Assignment)
		}
	}
	if resp.Cost <= 0 {
		t.Fatalf("cost = %v, want > 0", resp.Cost)
	}
	if resp.CacheHit {
		t.Fatal("first request cannot be a cache hit")
	}
	if len(resp.PerTreeCosts) != 2 {
		t.Fatalf("per_tree_costs has %d entries, want 2", len(resp.PerTreeCosts))
	}
}

// The acceptance-criteria test: a repeated graph must reuse the cached
// decomposition — hit counter up, decompose phase skipped — and return
// an identical placement.
func TestPartitionWarmCacheSkipsDecomposition(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := newTestServer(t, Config{Registry: reg, ResultCacheEntries: -1})

	first := decodeResponse(t, postPartition(t, s.Handler(), testRequest()))
	if first.CacheHit {
		t.Fatal("cold request must miss")
	}
	if reg.Counter("decomp_cache_misses_total").Value() != 1 {
		t.Fatal("cold request must count one miss")
	}

	rec := postPartition(t, s.Handler(), testRequest())
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body = %s", rec.Code, rec.Body.String())
	}
	warm := decodeResponse(t, rec)
	if !warm.CacheHit {
		t.Fatal("repeated graph must hit the decomposition cache")
	}
	if got := reg.Counter("decomp_cache_hits_total").Value(); got != 1 {
		t.Fatalf("cache-hit counter = %d, want 1", got)
	}
	if warm.DecomposeMS != 0 {
		t.Fatalf("decompose_ms = %v on a cache hit, want 0 (phase skipped)", warm.DecomposeMS)
	}
	// Decomposition reuse must not change the answer.
	if warm.Cost != first.Cost || fmt.Sprint(warm.Assignment) != fmt.Sprint(first.Assignment) {
		t.Fatalf("warm result diverged: %v vs %v", warm, first)
	}

	// A different seed is a different distribution: miss.
	req := testRequest()
	req.Seed = 2
	if decodeResponse(t, postPartition(t, s.Handler(), req)).CacheHit {
		t.Fatal("different seed must miss the cache")
	}
}

// Changing only DP parameters (eps) must still reuse the cached
// decomposition: the embed depends on the graph and build options only.
func TestPartitionCacheSharedAcrossEps(t *testing.T) {
	s := newTestServer(t, Config{})
	postPartition(t, s.Handler(), testRequest())
	req := testRequest()
	req.Eps = 0.25
	resp := decodeResponse(t, postPartition(t, s.Handler(), req))
	if !resp.CacheHit {
		t.Fatal("eps change must not invalidate the decomposition cache")
	}
}

// TestPartitionMalformed pins the rejections of malformed requests, and
// that POST /v1/graphs, which shares the decode and validation pipeline,
// rejects every applicable case with the same status and code.
func TestPartitionMalformed(t *testing.T) {
	s := newTestServer(t, Config{MaxVertices: 100, MaxEdges: 2})
	cases := []struct {
		name     string
		body     any
		code     int
		sessions bool // the case applies to POST /v1/graphs too
	}{
		{"invalid json", `{"n": `, http.StatusBadRequest, true},
		{"unknown field", `{"n": 1, "bogus": true}`, http.StatusBadRequest, true},
		{"empty graph", `{"hierarchy": {"deg": [2], "cm": [1, 0]}, "n": 0}`, http.StatusBadRequest, true},
		{"bad hierarchy (increasing cm)", `{"hierarchy": {"deg": [2], "cm": [0, 1]}, "n": 2}`, http.StatusBadRequest, true},
		{"edge out of range", `{"hierarchy": {"deg": [2], "cm": [1, 0]}, "n": 2, "edges": [[0, 5, 1]]}`, http.StatusBadRequest, true},
		{"negative eps", `{"hierarchy": {"deg": [2], "cm": [1, 0]}, "n": 2, "eps": -1}`, http.StatusBadRequest, true},
		{"negative timeout", `{"hierarchy": {"deg": [2], "cm": [1, 0]}, "n": 2, "timeout_ms": -1}`, http.StatusBadRequest, false},
		{"too many vertices", `{"hierarchy": {"deg": [2], "cm": [1, 0]}, "n": 500}`, http.StatusRequestEntityTooLarge, true},
		{"too many edges", `{"hierarchy": {"deg": [2], "cm": [1, 0]}, "n": 3, "edges": [[0,1,1],[1,2,1],[0,2,1]]}`, http.StatusRequestEntityTooLarge, true},
	}
	envelope := func(name string, rec *httptest.ResponseRecorder) apiError {
		t.Helper()
		var e apiError
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" || e.Code == "" {
			t.Fatalf("%s: error envelope missing: %s", name, rec.Body.String())
		}
		return e
	}
	for _, tc := range cases {
		rec := postPartition(t, s.Handler(), tc.body)
		if rec.Code != tc.code {
			t.Fatalf("%s: status = %d, want %d (body %s)", tc.name, rec.Code, tc.code, rec.Body.String())
		}
		want := envelope(tc.name, rec).Code
		if !tc.sessions {
			continue
		}
		srec := httptest.NewRecorder()
		s.Handler().ServeHTTP(srec, httptest.NewRequest(http.MethodPost, "/v1/graphs", strings.NewReader(tc.body.(string))))
		if got := envelope(tc.name+" (POST /v1/graphs)", srec).Code; srec.Code != tc.code || got != want {
			t.Fatalf("%s: POST /v1/graphs = %d %s, POST /v1/partition = %d %s", tc.name, srec.Code, got, tc.code, want)
		}
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/partition", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET status = %d, want 405", rec.Code)
	}
}

// Both routes that take solver parameters cap trees at maxTrees: a
// request for 65536 trees is 400 bad_request before any decomposition
// work, on the one-shot route and at session registration alike, while
// exactly maxTrees is served.
func TestTreesCeiling(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	partition, graphs := testRequest(), sessionCreateRequest()
	partition.TimeoutMS = 100
	// Through the ladder: its floor guarantees the 200 inside the
	// deadline, where a no_degrade DP of 64 trees may answer 504 on a
	// loaded host.
	partition.NoDegrade = false
	for _, trees := range []int{65536, maxTrees} {
		partition.Trees, graphs.Trees = trees, trees
		for _, c := range []struct {
			path string
			body any
			ok   int
		}{{"/v1/partition", partition, http.StatusOK}, {"/v1/graphs", graphs, http.StatusCreated}} {
			rec := doJSON(t, h, http.MethodPost, c.path, c.body)
			if trees == maxTrees {
				if rec.Code != c.ok {
					t.Fatalf("%s with %d trees: %d %s, want %d", c.path, trees, rec.Code, rec.Body.String(), c.ok)
				}
				continue
			}
			var e apiError
			if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Code != "bad_request" {
				t.Fatalf("%s with %d trees: %d %s, want 400 bad_request", c.path, trees, rec.Code, rec.Body.String())
			}
		}
	}
}

// blockingSolve stubs the solver backend with one that parks until
// release closes (or the context dies), so tests control solve timing.
func blockingSolve(started chan<- struct{}, release <-chan struct{}) solveFunc {
	return func(ctx context.Context, g *graph.Graph, H *hierarchy.Hierarchy, sv hgp.Solver, cn *canon.Form) (*hgp.Result, bool, time.Duration, time.Duration, error) {
		if started != nil {
			started <- struct{}{}
		}
		select {
		case <-release:
			return &hgp.Result{Assignment: make([]int, g.N()), PerTreeCosts: []float64{0}}, false, 0, 0, nil
		case <-ctx.Done():
			return nil, false, 0, 0, ctx.Err()
		}
	}
}

func TestPartitionDeadlineExceeded(t *testing.T) {
	s := newTestServer(t, Config{})
	s.solve = blockingSolve(nil, nil) // blocks until ctx expires

	req := testRequest()
	req.TimeoutMS = 30
	start := time.Now()
	rec := postPartition(t, s.Handler(), req)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %s)", rec.Code, rec.Body.String())
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("deadline response took %v, want prompt", el)
	}
	var e apiError
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Code != "deadline_exceeded" {
		t.Fatalf("error envelope = %s", rec.Body.String())
	}
}

// An expired deadline must also interrupt a real solve (not just the
// stub): full pipeline, tight budget, large-ish instance.
func TestPartitionDeadlineInterruptsRealSolve(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := newTestServer(t, Config{Registry: reg})
	var req PartitionRequest
	req.Hierarchy = instio.HierarchySpec{Deg: []int{4, 8, 8}, CM: []float64{16, 8, 2, 0}}
	req.N = 256
	for i := 0; i < 256; i++ {
		req.Demands = append(req.Demands, 0.2)
		if i > 0 {
			req.Edges = append(req.Edges, [3]float64{float64(i - 1), float64(i), 1})
			req.Edges = append(req.Edges, [3]float64{float64(i / 2), float64(i), 2})
		}
	}
	req.Trees = 8
	req.Eps = 0.1
	req.TimeoutMS = 1
	req.NoDegrade = true // a 1ms budget must 504, not degrade to the baseline tier
	start := time.Now()
	rec := postPartition(t, s.Handler(), req)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %s)", rec.Code, rec.Body.String())
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("interrupted solve took %v, want prompt return", el)
	}
	if reg.Counter("partition_ok_total").Value() != 0 {
		t.Fatal("solve must not have completed")
	}
}

func TestPartitionQueueFull(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: -1, Registry: reg})
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s.solve = blockingSolve(started, release)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rec := postPartition(t, s.Handler(), testRequest())
		if rec.Code != http.StatusOK {
			t.Errorf("occupant status = %d, body %s", rec.Code, rec.Body.String())
		}
	}()
	<-started // the slot is now held

	rec := postPartition(t, s.Handler(), testRequest())
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body %s)", rec.Code, rec.Body.String())
	}
	var e apiError
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Code != "queue_full" {
		t.Fatalf("error envelope = %s", rec.Body.String())
	}
	if reg.Counter("queue_rejections_total").Value() != 1 {
		t.Fatal("rejection must be counted")
	}

	close(release)
	wg.Wait()

	// With the slot free again, requests are admitted.
	s.solve = s.cachedSolve
	if rec := postPartition(t, s.Handler(), testRequest()); rec.Code != http.StatusOK {
		t.Fatalf("post-release status = %d", rec.Code)
	}
}

func TestShutdownDrainsInFlight(t *testing.T) {
	s := newTestServer(t, Config{})
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s.solve = blockingSolve(started, release)

	result := make(chan *httptest.ResponseRecorder, 1)
	go func() { result <- postPartition(t, s.Handler(), testRequest()) }()
	<-started // request is in flight

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.Shutdown(context.Background()) }()

	// Draining: new work is refused…
	deadline := time.After(2 * time.Second)
	for !s.isDraining() {
		select {
		case <-deadline:
			t.Fatal("server never started draining")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	if rec := postPartition(t, s.Handler(), testRequest()); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("during drain: status = %d, want 503", rec.Code)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "draining") {
		t.Fatalf("healthz during drain = %d %s", rec.Code, rec.Body.String())
	}

	// …and Shutdown has not returned while the solve is in flight.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned before in-flight request finished: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	// Release the solve: the in-flight request completes successfully,
	// then Shutdown returns.
	close(release)
	if rec := <-result; rec.Code != http.StatusOK {
		t.Fatalf("in-flight request status = %d, want 200 (drained, not killed)", rec.Code)
	}
	select {
	case err := <-shutdownDone:
		if err != nil {
			t.Fatalf("Shutdown = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Shutdown did not return after drain")
	}
}

func TestShutdownTimeout(t *testing.T) {
	s := newTestServer(t, Config{})
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s.solve = blockingSolve(started, release)
	body, err := json.Marshal(testRequest())
	if err != nil {
		t.Fatal(err)
	}
	go s.Handler().ServeHTTP(httptest.NewRecorder(),
		httptest.NewRequest(http.MethodPost, "/v1/partition", bytes.NewReader(body)))
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err == nil {
		t.Fatal("Shutdown must report a tripped drain deadline")
	}
	close(release)
}

func TestHealthz(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var h healthzResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil || h.Status != "ok" {
		t.Fatalf("body = %s", rec.Body.String())
	}
}

func TestStatsJSONAndPrometheus(t *testing.T) {
	reg := telemetry.NewRegistry()
	// Result caching off: this test pins the decomposition cache's exact
	// counters; the result_cache stats block has its own tests.
	s := newTestServer(t, Config{Registry: reg, ResultCacheEntries: -1})
	postPartition(t, s.Handler(), testRequest())
	postPartition(t, s.Handler(), testRequest())

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var st StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("decoding stats: %v (%s)", err, rec.Body.String())
	}
	if st.Cache == nil || st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Fatalf("cache stats = %+v, want 1 hit 1 miss", st.Cache)
	}
	if st.Metrics.Counters["partition_ok_total"] != 2 {
		t.Fatalf("counters = %v", st.Metrics.Counters)
	}
	if hs, ok := st.Metrics.Histograms["request_seconds"]; !ok || hs.Count != 2 {
		t.Fatalf("request_seconds histogram = %+v", st.Metrics.Histograms)
	}

	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats?format=prometheus", nil))
	out := rec.Body.String()
	for _, want := range []string{
		"# TYPE partition_ok_total counter",
		"partition_ok_total 2",
		"# TYPE request_seconds histogram",
		"request_seconds_count 2",
		"decomp_cache_hits_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestPprofEndpointMounted(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "goroutine") {
		t.Fatalf("pprof index = %d", rec.Code)
	}
}

// Concurrent identical requests through the real backend: exercises the
// cache and admission under the race detector.
func TestPartitionConcurrentRequests(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 2, MaxQueue: 64, ResultCacheEntries: -1})
	var wg sync.WaitGroup
	codes := make([]int, 8)
	for i := range codes {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes[i] = postPartition(t, s.Handler(), testRequest()).Code
		}()
	}
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("request %d: status = %d", i, c)
		}
	}
	if st := s.dec.Stats(); st.Hits == 0 {
		t.Fatal("concurrent identical requests should have produced cache hits")
	}
}
