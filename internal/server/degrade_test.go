package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hierpart/internal/faultinject"
	"hierpart/internal/telemetry"
)

func getPath(s *Server, target string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	return rec
}

// ladderRequest is testRequest with the degradation ladder left on.
func ladderRequest() PartitionRequest {
	req := testRequest()
	req.NoDegrade = false
	return req
}

// With an ample budget the ladder is invisible: the full pipeline wins,
// the response is not degraded, and the degradation block says so.
func TestPartitionLadderFullWins(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := newTestServer(t, Config{Registry: reg})
	rec := postPartition(t, s.Handler(), ladderRequest())
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body = %s", rec.Code, rec.Body.String())
	}
	resp := decodeResponse(t, rec)
	if resp.Degradation == nil {
		t.Fatal("ladder response missing degradation block")
	}
	if resp.Degradation.Tier != "full_dp" || resp.Degradation.Degraded {
		t.Fatalf("degradation = %+v, want undegraded full_dp", resp.Degradation)
	}
	if len(resp.Degradation.Tiers) != 2 {
		t.Fatalf("tier reports = %+v, want 2 entries", resp.Degradation.Tiers)
	}
	if got := reg.Counter(`degraded_total{tier="full_dp"}`).Value(); got != 0 {
		t.Fatalf("degraded counter = %d for an undegraded response", got)
	}
	// The ladder must return the same placement as the no-degrade path.
	direct := decodeResponse(t, postPartition(t, s.Handler(), testRequest()))
	if fmt.Sprint(resp.Assignment) != fmt.Sprint(direct.Assignment) {
		t.Fatalf("ladder full_dp placement %v != direct %v", resp.Assignment, direct.Assignment)
	}
}

// A cold ladder request builds exactly one decomposition: the full
// tier is the ladder's only DP rung, and the baseline builds none.
func TestColdLadderBuildsOneDecomposition(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := newTestServer(t, Config{Registry: reg})
	req := ladderRequest()
	req.Trees = 4
	rec := postPartition(t, s.Handler(), req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body = %s", rec.Code, rec.Body.String())
	}
	if got := reg.Counter("decomp_builds_total").Value(); got != 1 {
		t.Fatalf("decomp_builds_total = %d after one cold ladder request, want 1", got)
	}
	resp := decodeResponse(t, rec)
	if resp.Degradation == nil {
		t.Fatal("ladder response missing degradation block")
	}
	var names []string
	for _, tr := range resp.Degradation.Tiers {
		names = append(names, tr.Name)
	}
	if fmt.Sprint(names) != "[full_dp baseline]" {
		t.Fatalf("degradation.tiers = %v, want [full_dp baseline]", names)
	}
	if resp.Degradation.Tier != "full_dp" || resp.CacheHit {
		t.Fatalf("cold request: tier %s cache_hit %v, want a full_dp win that built its decomposition",
			resp.Degradation.Tier, resp.CacheHit)
	}

	// Only eps changed: a result-cache miss whose full tier reuses the
	// cached decomposition, and the winning tier's response says so.
	req.Eps = 0.25
	warm := decodeResponse(t, postPartition(t, s.Handler(), req))
	if warm.Degradation == nil || warm.Degradation.Tier != "full_dp" || !warm.CacheHit || warm.DecomposeMS != 0 {
		t.Fatalf("eps-only repeat: degradation %+v cache_hit %v decompose_ms %v, want a full_dp decomposition-cache hit",
			warm.Degradation, warm.CacheHit, warm.DecomposeMS)
	}
	if got := reg.Counter("decomp_builds_total").Value(); got != 1 {
		t.Fatalf("decomp_builds_total = %d after a decomposition-cache hit, want 1", got)
	}
}

// When the DP backend cannot finish inside the deadline, the baseline
// rung serves a valid placement with HTTP 200 instead of a 504.
func TestPartitionLadderDegradesToBaseline(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := newTestServer(t, Config{Registry: reg})
	s.solve = blockingSolve(nil, nil) // the DP tier hangs until its ctx dies

	req := ladderRequest()
	req.TimeoutMS = 100
	start := time.Now()
	rec := postPartition(t, s.Handler(), req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want degraded 200 (body %s)", rec.Code, rec.Body.String())
	}
	if el := time.Since(start); el > 3*time.Second {
		t.Fatalf("degraded response took %v, want roughly the deadline", el)
	}
	resp := decodeResponse(t, rec)
	if resp.Degradation == nil || resp.Degradation.Tier != "baseline" || !resp.Degradation.Degraded {
		t.Fatalf("degradation = %+v, want degraded baseline win", resp.Degradation)
	}
	if len(resp.Assignment) != 8 {
		t.Fatalf("assignment has %d entries, want 8", len(resp.Assignment))
	}
	if got := reg.Counter(`degraded_total{tier="baseline"}`).Value(); got != 1 {
		t.Fatalf(`degraded_total{tier="baseline"} = %d, want 1`, got)
	}
	// The per-tier counter must surface through /v1/stats in both formats.
	var st StatsResponse
	if err := json.Unmarshal(getPath(s, "/v1/stats").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Metrics.Counters[`degraded_total{tier="baseline"}`] != 1 {
		t.Fatalf("stats counters missing degraded tier: %v", st.Metrics.Counters)
	}
	prom := getPath(s, "/v1/stats?format=prometheus").Body.String()
	for _, want := range []string{
		"# TYPE degraded_total counter",
		`degraded_total{tier="baseline"} 1`,
	} {
		if !strings.Contains(prom, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, prom)
		}
	}
}

// An injected mid-DP panic that takes out every tree surfaces as a 500
// with the panic counter ticked — and the daemon keeps serving.
func TestPartitionSolverPanicIs500AndSurvivable(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := newTestServer(t, Config{Registry: reg})

	restore := faultinject.Activate(
		faultinject.New(7).On(faultinject.HgptTable, faultinject.Fault{Prob: 1, PanicMsg: "mid-DP"}))
	rec := postPartition(t, s.Handler(), testRequest())
	restore()
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500 (body %s)", rec.Code, rec.Body.String())
	}
	var e apiError
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Code != "solver_panic" {
		t.Fatalf("error envelope = %s, want solver_panic", rec.Body.String())
	}
	if reg.Counter("panics_total").Value() == 0 {
		t.Fatal("panic must be counted")
	}
	// The daemon survived: the same request now succeeds.
	if rec := postPartition(t, s.Handler(), testRequest()); rec.Code != http.StatusOK {
		t.Fatalf("post-panic status = %d, daemon did not recover", rec.Code)
	}
}

// A panic on the handler goroutine itself (not inside a solver pool) is
// caught by the recovery middleware.
func TestPartitionHandlerPanicCaughtByMiddleware(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := newTestServer(t, Config{Registry: reg})

	restore := faultinject.Activate(
		faultinject.New(8).On(faultinject.ServerSolve, faultinject.Fault{Prob: 1, Count: 1, PanicMsg: "handler bug"}))
	defer restore()
	rec := postPartition(t, s.Handler(), testRequest())
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500 (body %s)", rec.Code, rec.Body.String())
	}
	var e apiError
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Code != "internal_panic" {
		t.Fatalf("error envelope = %s, want internal_panic", rec.Body.String())
	}
	if got := reg.Counter("panics_total").Value(); got != 1 {
		t.Fatalf("panics_total = %d, want 1", got)
	}
	if rec := postPartition(t, s.Handler(), testRequest()); rec.Code != http.StatusOK {
		t.Fatalf("post-panic status = %d, daemon did not recover", rec.Code)
	}
}

// The singleflight satellite: N concurrent identical cache misses run
// exactly one decomposition build; every other request either coalesced
// onto that build or hit the LRU entry it inserted.
func TestPartitionSingleflightExactlyOneBuild(t *testing.T) {
	reg := telemetry.NewRegistry()
	// Result caching off so every request reaches the decomposition
	// layer this test is about.
	s := newTestServer(t, Config{Registry: reg, MaxConcurrent: 8, MaxQueue: 32, ResultCacheEntries: -1})

	// Slow the first build down so the whole herd is in flight while the
	// leader works; the exactly-one-build guarantee itself does not
	// depend on this timing, only the coalesced-vs-hit split does.
	restore := faultinject.Activate(
		faultinject.New(9).On(faultinject.TreedecompSplit,
			faultinject.Fault{Prob: 1, Count: 1, Delay: 300 * time.Millisecond}))
	defer restore()

	const n = 8
	var wg sync.WaitGroup
	codes := make([]int, n)
	for i := 0; i < n; i++ {
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
	if got := reg.Counter("decomp_builds_total").Value(); got != 1 {
		t.Fatalf("decomp_builds_total = %d, want exactly 1 for %d identical requests", got, n)
	}
	coalesced := reg.Counter("decomp_coalesced_total").Value()
	hits := reg.Counter("decomp_cache_hits_total").Value()
	if coalesced+hits != n-1 {
		t.Fatalf("coalesced (%d) + hits (%d) = %d, want %d non-leader requests accounted for",
			coalesced, hits, coalesced+hits, n-1)
	}
}

// A coalesced solve whose leader panics retires its singleflight call:
// the leader answers 500 internal_panic (one panics_total tick), a
// waiter gets 500 solve_failed, and the next identical request solves
// afresh instead of waiting out its deadline on the dead call.
func TestPartitionSingleflightPanicRetiresCall(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := newTestServer(t, Config{Registry: reg, MaxConcurrent: 4})
	restore := faultinject.Activate(faultinject.New(10).On(faultinject.CacheLookup,
		faultinject.Fault{Prob: 1, Count: 1, Delay: 200 * time.Millisecond, PanicMsg: "lookup bug"}))
	defer restore()

	req := testRequest()
	req.TimeoutMS = 1500
	var leader, waiter *httptest.ResponseRecorder
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); leader = postPartition(t, s.Handler(), req) }()
	for s.rflight.Stats().Leads == 0 {
		time.Sleep(time.Millisecond)
	}
	go func() { defer wg.Done(); waiter = postPartition(t, s.Handler(), req) }()
	wg.Wait()

	for _, c := range []struct {
		name string
		rec  *httptest.ResponseRecorder
		code string
	}{{"leader", leader, "internal_panic"}, {"waiter", waiter, "solve_failed"}} {
		var e apiError
		if c.rec.Code != http.StatusInternalServerError || json.Unmarshal(c.rec.Body.Bytes(), &e) != nil || e.Code != c.code {
			t.Fatalf("%s: %d %s, want 500 %s", c.name, c.rec.Code, c.rec.Body.String(), c.code)
		}
	}
	if got := s.rflight.Stats().Coalesced; got != 1 {
		t.Fatalf("coalesced = %d, want the waiter to have joined the leader's call", got)
	}
	if got := reg.Counter("panics_total").Value(); got != 1 {
		t.Fatalf("panics_total = %d, want 1", got)
	}
	if rec := postPartition(t, s.Handler(), req); rec.Code != http.StatusOK {
		t.Fatalf("repeat after the panic: %d %s, want 200", rec.Code, rec.Body.String())
	}
}
