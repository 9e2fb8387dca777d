package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"hierpart/internal/faultinject"
	"hierpart/internal/instio"
	"hierpart/internal/metrics"
	"hierpart/internal/telemetry"
)

// sessionCreateRequest is the session twin of testRequest: the same two
// chatty 4-cliques joined by one weak edge.
func sessionCreateRequest() GraphCreateRequest {
	var req GraphCreateRequest
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
	return req
}

func doJSON(t *testing.T, h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, &buf))
	return rec
}

func createSession(t *testing.T, h http.Handler, req GraphCreateRequest) GraphSessionResponse {
	t.Helper()
	rec := doJSON(t, h, http.MethodPost, "/v1/graphs", req)
	if rec.Code != http.StatusCreated {
		t.Fatalf("register: status = %d, body = %s", rec.Code, rec.Body.String())
	}
	var resp GraphSessionResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ID == "" || resp.Version != 1 {
		t.Fatalf("register: bad view %+v", resp)
	}
	return resp
}

func patchSession(t *testing.T, h http.Handler, id string, version int64, deltas ...GraphDelta) GraphSessionResponse {
	t.Helper()
	rec := doJSON(t, h, http.MethodPatch, "/v1/graphs/"+id, GraphPatchRequest{Version: version, Deltas: deltas})
	if rec.Code != http.StatusOK {
		t.Fatalf("patch: status = %d, body = %s", rec.Code, rec.Body.String())
	}
	var resp GraphSessionResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

func solveSession(t *testing.T, h http.Handler, id string, body any) GraphPartitionResponse {
	t.Helper()
	rec := doJSON(t, h, http.MethodPost, "/v1/graphs/"+id+"/partition", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("partition: status = %d, body = %s", rec.Code, rec.Body.String())
	}
	var resp GraphPartitionResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestSessionLifecycle(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	view := createSession(t, h, sessionCreateRequest())

	first := solveSession(t, h, view.ID, nil)
	if first.Incremental || first.ColdReason != coldFirstSolve {
		t.Fatalf("first solve: incremental=%v cold_reason=%q, want cold first_solve", first.Incremental, first.ColdReason)
	}
	if first.MovedTasks != 0 || first.MovedDemand != 0 {
		t.Fatalf("first solve reported churn: %+v", first)
	}
	if len(first.Assignment) != 8 {
		t.Fatalf("assignment has %d entries, want 8", len(first.Assignment))
	}

	// Reweight an intra-clique edge: a single structural delta whose
	// LCA sits deep in the decomposition tree, so repair keeps most
	// nodes and the DP reuses most tables.
	v2 := patchSession(t, h, view.ID, 1, GraphDelta{Op: "reweight_edge", U: 0, V: 1, Weight: 5})
	if v2.Version != 2 || v2.PendingDeltas != 1 || !v2.IncrementalReady {
		t.Fatalf("after patch: %+v", v2)
	}

	second := solveSession(t, h, view.ID, nil)
	if !second.Incremental || second.ColdReason != "" {
		t.Fatalf("second solve: incremental=%v cold_reason=%q, want incremental", second.Incremental, second.ColdReason)
	}
	if second.Version != 2 {
		t.Fatalf("second solve answered version %d, want 2", second.Version)
	}
	if second.TablesReused == 0 {
		t.Fatal("incremental solve reused no DP tables")
	}
	if second.DirtyTableFrac >= 1 {
		t.Fatalf("dirty_table_frac = %v, want < 1", second.DirtyTableFrac)
	}
	if second.RepairReusedFrac <= 0 {
		t.Fatalf("repair_reused_frac = %v, want > 0", second.RepairReusedFrac)
	}

	// The reported cost must be the Equation (1) cost of the reported
	// assignment on the patched graph.
	req := sessionCreateRequest()
	req.Edges[0][2] = 5 // the {0,1} edge is appended first
	g, H, err := req.Instance.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	got := metrics.CostLCA(g, H, metrics.Assignment(second.Assignment))
	if got != second.Cost {
		t.Fatalf("cost = %v, CostLCA of assignment = %v", second.Cost, got)
	}

	// Nothing changed since: the solve replays from the stored response.
	replay := solveSession(t, h, view.ID, nil)
	if !replay.Stored {
		t.Fatal("repeat solve at the same version was not a stored replay")
	}
	if fmt.Sprint(replay.Assignment) != fmt.Sprint(second.Assignment) {
		t.Fatalf("stored replay differs: %v vs %v", replay.Assignment, second.Assignment)
	}

	// Delete, then every route 404s.
	if rec := doJSON(t, h, http.MethodDelete, "/v1/graphs/"+view.ID, nil); rec.Code != http.StatusOK {
		t.Fatalf("delete: status = %d", rec.Code)
	}
	if rec := doJSON(t, h, http.MethodGet, "/v1/graphs/"+view.ID, nil); rec.Code != http.StatusNotFound {
		t.Fatalf("get after delete: status = %d", rec.Code)
	}
}

func TestSessionPatchConflict409(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := newTestServer(t, Config{Registry: reg})
	h := s.Handler()
	view := createSession(t, h, sessionCreateRequest())

	rec := doJSON(t, h, http.MethodPatch, "/v1/graphs/"+view.ID, GraphPatchRequest{
		Version: 7, Deltas: []GraphDelta{{Op: "reweight_edge", U: 0, V: 4, Weight: 3}},
	})
	if rec.Code != http.StatusConflict {
		t.Fatalf("stale patch: status = %d, body = %s", rec.Code, rec.Body.String())
	}
	var apiErr apiError
	if err := json.Unmarshal(rec.Body.Bytes(), &apiErr); err != nil || apiErr.Code != "version_conflict" {
		t.Fatalf("stale patch: body = %s", rec.Body.String())
	}
	if got := reg.Counter("session_conflicts_total").Value(); got != 1 {
		t.Fatalf("session_conflicts_total = %d, want 1", got)
	}

	// The conflict left the session untouched: the correctly-versioned
	// patch still applies.
	if rec := doJSON(t, h, http.MethodGet, "/v1/graphs/"+view.ID, nil); rec.Code != http.StatusOK {
		t.Fatal("session vanished after conflict")
	}
	v2 := patchSession(t, h, view.ID, 1, GraphDelta{Op: "reweight_edge", U: 0, V: 4, Weight: 3})
	if v2.Version != 2 {
		t.Fatalf("version = %d, want 2", v2.Version)
	}
}

func TestSessionPatchValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	view := createSession(t, h, sessionCreateRequest())

	cases := []struct {
		name   string
		deltas []GraphDelta
	}{
		{"unknown op", []GraphDelta{{Op: "frobnicate", U: 0}}},
		{"add existing edge", []GraphDelta{{Op: "add_edge", U: 0, V: 4, Weight: 1}}},
		{"remove missing edge", []GraphDelta{{Op: "remove_edge", U: 0, V: 7}}},
		{"vertex out of range", []GraphDelta{{Op: "reweight_vertex", U: 99, Weight: 1}}},
		{"negative demand", []GraphDelta{{Op: "add_vertex", Weight: -1}}},
		{"bad op after good op", []GraphDelta{
			{Op: "reweight_edge", U: 0, V: 4, Weight: 9},
			{Op: "remove_edge", U: 0, V: 7},
		}},
		{"empty batch", nil},
	}
	for _, tc := range cases {
		rec := doJSON(t, h, http.MethodPatch, "/v1/graphs/"+view.ID, GraphPatchRequest{Version: 1, Deltas: tc.deltas})
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, body = %s", tc.name, rec.Code, rec.Body.String())
		}
		// Bad batches are atomic: version never moved, even when the
		// batch's first delta was valid.
		var viewNow GraphSessionResponse
		got := doJSON(t, h, http.MethodGet, "/v1/graphs/"+view.ID, nil)
		if err := json.Unmarshal(got.Body.Bytes(), &viewNow); err != nil || viewNow.Version != 1 {
			t.Fatalf("%s: session moved to %+v", tc.name, viewNow)
		}
	}
}

func TestSessionNotFound(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	for _, probe := range []struct{ method, path string }{
		{http.MethodGet, "/v1/graphs/deadbeef"},
		{http.MethodDelete, "/v1/graphs/deadbeef"},
		{http.MethodPost, "/v1/graphs/deadbeef/partition"},
	} {
		rec := doJSON(t, h, probe.method, probe.path, nil)
		if rec.Code != http.StatusNotFound {
			t.Fatalf("%s %s: status = %d", probe.method, probe.path, rec.Code)
		}
	}
	rec := doJSON(t, h, http.MethodPatch, "/v1/graphs/deadbeef", GraphPatchRequest{
		Version: 1, Deltas: []GraphDelta{{Op: "reweight_vertex", U: 0, Weight: 1}},
	})
	if rec.Code != http.StatusNotFound {
		t.Fatalf("patch unknown: status = %d", rec.Code)
	}
}

// TestSessionPatchFaultLeavesSessionConsistent pins the session.patch
// fault point: an injected fault rejects the PATCH with 500 and the
// session keeps its version and graph exactly as they were.
func TestSessionPatchFaultLeavesSessionConsistent(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	view := createSession(t, h, sessionCreateRequest())

	injected := errors.New("injected patch fault")
	restore := faultinject.Activate(faultinject.New(1).
		On(faultinject.SessionPatch, faultinject.Fault{Prob: 1, Err: injected}))
	rec := doJSON(t, h, http.MethodPatch, "/v1/graphs/"+view.ID, GraphPatchRequest{
		Version: 1, Deltas: []GraphDelta{{Op: "reweight_edge", U: 0, V: 4, Weight: 5}},
	})
	restore()
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("faulted patch: status = %d, body = %s", rec.Code, rec.Body.String())
	}

	// Version unchanged, and the same patch (same optimistic version)
	// applies cleanly now that the fault is gone.
	v2 := patchSession(t, h, view.ID, 1, GraphDelta{Op: "reweight_edge", U: 0, V: 4, Weight: 5})
	if v2.Version != 2 {
		t.Fatalf("version = %d, want 2", v2.Version)
	}
}

// TestSessionRepairFaultFallsBackCold pins the decomp.repair fault
// point end to end: a mid-repair fault must degrade the solve to a
// cold rebuild of the same session version — a 200 with
// cold_reason=repair_failed, never an error, never a stale version.
func TestSessionRepairFaultFallsBackCold(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := newTestServer(t, Config{Registry: reg})
	h := s.Handler()
	view := createSession(t, h, sessionCreateRequest())
	solveSession(t, h, view.ID, nil) // warm: dec + tables exist
	patchSession(t, h, view.ID, 1, GraphDelta{Op: "reweight_edge", U: 0, V: 4, Weight: 4})

	injected := errors.New("injected repair fault")
	restore := faultinject.Activate(faultinject.New(1).
		On(faultinject.DecompRepair, faultinject.Fault{Prob: 1, Err: injected}))
	resp := solveSession(t, h, view.ID, nil)
	restore()
	if resp.Incremental || resp.ColdReason != coldRepairFailed {
		t.Fatalf("faulted repair: incremental=%v cold_reason=%q, want cold repair_failed", resp.Incremental, resp.ColdReason)
	}
	if resp.Version != 2 {
		t.Fatalf("faulted repair answered version %d, want 2", resp.Version)
	}
	if got := reg.Counter(`cold_fallbacks_total{reason="repair_failed"}`).Value(); got != 1 {
		t.Fatalf("cold_fallbacks_total{repair_failed} = %d, want 1", got)
	}

	// The fallback repaired the session's state wholesale: the next
	// patched solve is incremental again.
	patchSession(t, h, view.ID, 2, GraphDelta{Op: "reweight_edge", U: 0, V: 4, Weight: 6})
	after := solveSession(t, h, view.ID, nil)
	if !after.Incremental {
		t.Fatalf("post-fault solve not incremental: %+v", after)
	}
}

// TestSessionVertexChangeForcesCold: adding a vertex cannot be repaired
// (the leaf set changes), so the next solve runs cold under
// reason=vertex_change — and subsequent edge patches are incremental
// again.
func TestSessionVertexChangeForcesCold(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	view := createSession(t, h, sessionCreateRequest())
	solveSession(t, h, view.ID, nil)

	v2 := patchSession(t, h, view.ID, 1,
		GraphDelta{Op: "add_vertex", Weight: 0.25},
		GraphDelta{Op: "add_edge", U: 8, V: 0, Weight: 3})
	if v2.N != 9 || v2.IncrementalReady {
		t.Fatalf("after add_vertex: %+v", v2)
	}
	resp := solveSession(t, h, view.ID, nil)
	if resp.Incremental || resp.ColdReason != coldVertexChange {
		t.Fatalf("solve after add_vertex: incremental=%v cold_reason=%q", resp.Incremental, resp.ColdReason)
	}
	if len(resp.Assignment) != 9 {
		t.Fatalf("assignment has %d entries, want 9", len(resp.Assignment))
	}

	// remove_vertex detaches and zeroes — repairable, IDs stable.
	v3 := patchSession(t, h, view.ID, 2, GraphDelta{Op: "remove_vertex", U: 8})
	if v3.N != 9 || !v3.IncrementalReady {
		t.Fatalf("after remove_vertex: %+v", v3)
	}
	resp2 := solveSession(t, h, view.ID, nil)
	if !resp2.Incremental {
		t.Fatalf("solve after remove_vertex: %+v", resp2)
	}
}

// TestSessionMaxMigrationCapsMoves: the max_migration knob bounds churn
// against the previous placement, and moved accounting is reported.
func TestSessionMaxMigrationCapsMoves(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	view := createSession(t, h, sessionCreateRequest())
	solveSession(t, h, view.ID, nil)

	// Invert the structure: make the weak edge dominant so the optimal
	// placement changes substantially.
	deltas := []GraphDelta{{Op: "reweight_edge", U: 0, V: 4, Weight: 100}}
	patchSession(t, h, view.ID, 1, deltas...)

	uncapped := solveSession(t, h, view.ID, GraphPartitionRequest{})
	if uncapped.MovedTasks == 0 {
		t.Skip("structure change moved nothing; nothing to cap")
	}
	// Re-solve the same version with a tighter cap: allowed because the
	// migration knobs differ (no stored replay).
	capped := solveSession(t, h, view.ID, GraphPartitionRequest{MaxMigration: 1})
	if capped.Stored {
		t.Fatal("capped solve replayed the uncapped response")
	}
	if capped.MovedTasks > uncapped.MovedTasks {
		t.Fatalf("cap increased churn: %d > %d", capped.MovedTasks, uncapped.MovedTasks)
	}
}

func TestSessionEvictionLRU(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := newTestServer(t, Config{MaxSessions: 2, Registry: reg})
	h := s.Handler()
	a := createSession(t, h, sessionCreateRequest())
	b := createSession(t, h, sessionCreateRequest())
	// Touch a so b is the LRU victim when c arrives.
	if rec := doJSON(t, h, http.MethodGet, "/v1/graphs/"+a.ID, nil); rec.Code != http.StatusOK {
		t.Fatal("touch a")
	}
	c := createSession(t, h, sessionCreateRequest())

	if rec := doJSON(t, h, http.MethodGet, "/v1/graphs/"+b.ID, nil); rec.Code != http.StatusNotFound {
		t.Fatalf("b should have been evicted, got %d", rec.Code)
	}
	for _, id := range []string{a.ID, c.ID} {
		if rec := doJSON(t, h, http.MethodGet, "/v1/graphs/"+id, nil); rec.Code != http.StatusOK {
			t.Fatalf("session %s missing after eviction", id)
		}
	}
	if got := reg.Counter("session_evictions_total").Value(); got != 1 {
		t.Fatalf("session_evictions_total = %d, want 1", got)
	}
	if got := reg.Gauge("sessions_active").Value(); got != 2 {
		t.Fatalf("sessions_active = %d, want 2", got)
	}
}

func TestSessionsDisabled(t *testing.T) {
	s := newTestServer(t, Config{MaxSessions: -1})
	h := s.Handler()
	rec := doJSON(t, h, http.MethodPost, "/v1/graphs", sessionCreateRequest())
	if rec.Code != http.StatusNotFound {
		t.Fatalf("sessions disabled: POST /v1/graphs = %d, want 404", rec.Code)
	}
	stats := doJSON(t, h, http.MethodGet, "/v1/stats", nil)
	var resp StatsResponse
	if err := json.Unmarshal(stats.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Sessions.Enabled {
		t.Fatal("stats report sessions enabled with -max-sessions < 0")
	}
}

// TestSessionStatsBlock: the sessions block is always present and its
// counters track the lifecycle.
func TestSessionStatsBlock(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	view := createSession(t, h, sessionCreateRequest())
	solveSession(t, h, view.ID, nil)
	patchSession(t, h, view.ID, 1, GraphDelta{Op: "reweight_edge", U: 0, V: 4, Weight: 2})
	solveSession(t, h, view.ID, nil)

	var resp StatsResponse
	rec := doJSON(t, h, http.MethodGet, "/v1/stats", nil)
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	sb := resp.Sessions
	if !sb.Enabled || sb.Active != 1 || sb.RegistersTotal != 1 || sb.PatchesTotal != 1 {
		t.Fatalf("sessions block: %+v", sb)
	}
	if sb.IncrementalSolvesTotal != 1 || sb.ColdFallbacks[coldFirstSolve] != 1 {
		t.Fatalf("solve split: %+v", sb)
	}
	if sb.ReusedTablesTotal == 0 || sb.DirtyTablesTotal == 0 {
		t.Fatalf("table accounting: %+v", sb)
	}
}

// TestSessionWarmRestart: sessions survive an unclean restart via the
// StateDir snapshots — same ID, same version, same optimistic
// concurrency — and the first post-restart solve runs cold under
// reason=restart while still reporting churn against the pre-restart
// placement.
func TestSessionWarmRestart(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestServer(t, Config{StateDir: dir})
	h1 := s1.Handler()
	view := createSession(t, h1, sessionCreateRequest())
	before := solveSession(t, h1, view.ID, nil)
	patchSession(t, h1, view.ID, 1, GraphDelta{Op: "reweight_edge", U: 0, V: 4, Weight: 3})
	// No Shutdown: simulate SIGKILL. Session saves are synchronous, so
	// the snapshot is already durable.

	s2 := newTestServer(t, Config{StateDir: dir})
	h2 := s2.Handler()
	rec := doJSON(t, h2, http.MethodGet, "/v1/graphs/"+view.ID, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("session lost across restart: %d", rec.Code)
	}
	var reloaded GraphSessionResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &reloaded); err != nil {
		t.Fatal(err)
	}
	if reloaded.Version != 2 || reloaded.IncrementalReady {
		t.Fatalf("reloaded view: %+v", reloaded)
	}

	// Stale version still 409s after restart.
	stale := doJSON(t, h2, http.MethodPatch, "/v1/graphs/"+view.ID, GraphPatchRequest{
		Version: 1, Deltas: []GraphDelta{{Op: "reweight_vertex", U: 0, Weight: 1}},
	})
	if stale.Code != http.StatusConflict {
		t.Fatalf("stale patch after restart: %d", stale.Code)
	}

	resp := solveSession(t, h2, view.ID, nil)
	if resp.Incremental || resp.ColdReason != coldRestart {
		t.Fatalf("post-restart solve: incremental=%v cold_reason=%q", resp.Incremental, resp.ColdReason)
	}
	if resp.Version != 2 {
		t.Fatalf("post-restart solve answered version %d, want 2", resp.Version)
	}
	_ = before
	// And the session keeps working: patch + incremental solve.
	patchSession(t, h2, view.ID, 2, GraphDelta{Op: "reweight_edge", U: 0, V: 4, Weight: 5})
	after := solveSession(t, h2, view.ID, nil)
	if !after.Incremental {
		t.Fatalf("second post-restart solve not incremental: %+v", after)
	}
}

// TestSessionConcurrentChurn hammers one session with concurrent
// patches (retrying on 409), solves, reads, and a competing register
// stream under -race. Invariant: every accepted patch bumps the
// version exactly once, and the final version equals 1 + accepted.
func TestSessionConcurrentChurn(t *testing.T) {
	s := newTestServer(t, Config{MaxSessions: 4})
	h := s.Handler()
	view := createSession(t, h, sessionCreateRequest())

	var wg sync.WaitGroup
	var mu sync.Mutex
	accepted := 0
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			version := int64(1)
			for i := 0; i < 6; i++ {
				weight := float64(2 + w + i)
				rec := doJSON(t, h, http.MethodPatch, "/v1/graphs/"+view.ID, GraphPatchRequest{
					Version: version,
					Deltas:  []GraphDelta{{Op: "reweight_edge", U: 0, V: 4, Weight: weight}},
				})
				switch rec.Code {
				case http.StatusOK:
					var v GraphSessionResponse
					_ = json.Unmarshal(rec.Body.Bytes(), &v)
					version = v.Version
					mu.Lock()
					accepted++
					mu.Unlock()
				case http.StatusConflict:
					var g GraphSessionResponse
					got := doJSON(t, h, http.MethodGet, "/v1/graphs/"+view.ID, nil)
					_ = json.Unmarshal(got.Body.Bytes(), &g)
					version = g.Version
				default:
					t.Errorf("patch: unexpected status %d: %s", rec.Code, rec.Body.String())
					return
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				rec := doJSON(t, h, http.MethodPost, "/v1/graphs/"+view.ID+"/partition", nil)
				if rec.Code != http.StatusOK {
					t.Errorf("partition: status %d: %s", rec.Code, rec.Body.String())
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			other := createSession(t, h, sessionCreateRequest())
			doJSON(t, h, http.MethodDelete, "/v1/graphs/"+other.ID, nil)
		}
	}()
	wg.Wait()

	var final GraphSessionResponse
	rec := doJSON(t, h, http.MethodGet, "/v1/graphs/"+view.ID, nil)
	if err := json.Unmarshal(rec.Body.Bytes(), &final); err != nil {
		t.Fatal(err)
	}
	if final.Version != int64(1+accepted) {
		t.Fatalf("final version %d, want 1+%d accepted patches", final.Version, accepted)
	}
}

// TestSessionWarmBoundedSolve pins the certified-bound fast path: a
// reweight-only patch lets every tree solve under a cost ceiling
// derived from the previous solve (warm_bounded_trees == trees, no
// fallbacks), while a structural or demand-touching batch invalidates
// the certificate and solves unbounded — still incremental, still
// correct, just without the pruning accelerator.
func TestSessionWarmBoundedSolve(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	view := createSession(t, h, sessionCreateRequest())

	first := solveSession(t, h, view.ID, nil)
	if first.WarmBoundedTrees != 0 {
		t.Fatalf("first (cold) solve reported warm bounds: %+v", first)
	}

	// Reweight-only batch: both trees certified.
	patchSession(t, h, view.ID, 1,
		GraphDelta{Op: "reweight_edge", U: 0, V: 1, Weight: 5},
		GraphDelta{Op: "reweight_edge", U: 4, V: 5, Weight: 12})
	second := solveSession(t, h, view.ID, nil)
	if !second.Incremental {
		t.Fatalf("reweight solve not incremental: %+v", second)
	}
	if second.WarmBoundedTrees != 2 {
		t.Fatalf("warm_bounded_trees = %d, want 2", second.WarmBoundedTrees)
	}
	if second.BoundFallbacks != 0 {
		t.Fatalf("certified bound fell back %d times, want 0", second.BoundFallbacks)
	}
	// The bounded placement must cost exactly its own CostLCA on the
	// patched graph (the response invariant the lifecycle test pins for
	// the unbounded path).
	req := sessionCreateRequest()
	req.Edges[0][2] = 5
	req.Edges[6][2] = 12 // {4,5} is the 7th edge appended (after clique 0's six)
	g, H, err := req.Instance.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if got := metrics.CostLCA(g, H, metrics.Assignment(second.Assignment)); got != second.Cost {
		t.Fatalf("cost = %v, CostLCA of assignment = %v", second.Cost, got)
	}

	// Structural delta in the batch: no certificate, unbounded solve.
	patchSession(t, h, view.ID, 2,
		GraphDelta{Op: "reweight_edge", U: 2, V: 3, Weight: 7},
		GraphDelta{Op: "add_edge", U: 1, V: 5, Weight: 2})
	third := solveSession(t, h, view.ID, nil)
	if !third.Incremental {
		t.Fatalf("structural solve not incremental: %+v", third)
	}
	if third.WarmBoundedTrees != 0 {
		t.Fatalf("structural batch still warm-bounded: %+v", third)
	}

	// Demand change: feasibility of the previous family is no longer
	// guaranteed, so again no certificate.
	patchSession(t, h, view.ID, 3, GraphDelta{Op: "reweight_vertex", U: 0, Weight: 0.25})
	fourth := solveSession(t, h, view.ID, nil)
	if !fourth.Incremental || fourth.WarmBoundedTrees != 0 {
		t.Fatalf("demand batch: incremental=%v warm_bounded_trees=%d, want incremental unbounded",
			fourth.Incremental, fourth.WarmBoundedTrees)
	}

	// Back to pure reweights: the certificate chains off the previous
	// bounded solve's exact optimum.
	patchSession(t, h, view.ID, 4, GraphDelta{Op: "reweight_edge", U: 0, V: 1, Weight: 9})
	fifth := solveSession(t, h, view.ID, nil)
	if fifth.WarmBoundedTrees != 2 || fifth.BoundFallbacks != 0 {
		t.Fatalf("chained reweight solve: %+v", fifth)
	}

	stats := s.sessionsStats()
	if stats.WarmBoundedSolvesTotal != 2 {
		t.Fatalf("warm_bounded_solves_total = %d, want 2", stats.WarmBoundedSolvesTotal)
	}
	if stats.BoundFallbacksTotal != 0 {
		t.Fatalf("bound_fallbacks_total = %d, want 0", stats.BoundFallbacksTotal)
	}
}

// TestSessionSolverPanicMapsLikeOneShot: a contained solver panic in a
// session solve answers exactly as on POST /v1/partition — 500
// solver_panic with panics_total ticked — and the session then solves.
func TestSessionSolverPanicMapsLikeOneShot(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := newTestServer(t, Config{Registry: reg})
	h := s.Handler()
	view := createSession(t, h, sessionCreateRequest())

	restore := faultinject.Activate(
		faultinject.New(7).On(faultinject.HgptTable, faultinject.Fault{Prob: 1, PanicMsg: "mid-DP"}))
	rec := doJSON(t, h, http.MethodPost, "/v1/graphs/"+view.ID+"/partition", nil)
	restore()
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500 (body %s)", rec.Code, rec.Body.String())
	}
	var e apiError
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Code != "solver_panic" {
		t.Fatalf("error envelope = %s, want solver_panic", rec.Body.String())
	}
	if got := reg.Counter("panics_total").Value(); got != 1 {
		t.Fatalf("panics_total = %d, want 1", got)
	}
	if resp := solveSession(t, h, view.ID, nil); resp.Incremental || resp.ColdReason != coldFirstSolve {
		t.Fatalf("post-panic solve: incremental=%v cold_reason=%q, want cold first_solve", resp.Incremental, resp.ColdReason)
	}
}

// TestSessionSolveSheds: the session solve route sheds through the same
// admission as /v1/partition — 429 queue_full when every solve slot and
// the waiting room are taken (here by a one-shot solve), 503 draining
// once the daemon drains — each with its shed_reason.
func TestSessionSolveSheds(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: -1, Registry: reg})
	h := s.Handler()
	view := createSession(t, h, sessionCreateRequest())
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s.solve = blockingSolve(started, release)
	done := make(chan struct{})
	go func() {
		defer close(done)
		postPartition(t, h, testRequest())
	}()
	<-started

	path := "/v1/graphs/" + view.ID + "/partition"
	rec := doJSON(t, h, http.MethodPost, path, nil)
	if rec.Code != http.StatusTooManyRequests || !strings.Contains(rec.Body.String(), `"shed_reason": "queue_full"`) {
		t.Fatalf("session solve with no free slot = %d %s, want 429 queue_full", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 must carry a Retry-After header")
	}
	close(release)
	<-done

	s.Drain()
	rec = doJSON(t, h, http.MethodPost, path, nil)
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), `"shed_reason": "draining"`) {
		t.Fatalf("session solve while draining = %d %s, want 503 draining", rec.Code, rec.Body.String())
	}
	if got := reg.Counter(`shed_total{reason="draining"}`).Value(); got != 1 {
		t.Fatalf("shed_total{reason=draining} = %d, want 1", got)
	}
}
