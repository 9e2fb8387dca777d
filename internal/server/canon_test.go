package server

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"hierpart/internal/cache"
	"hierpart/internal/canon"
	"hierpart/internal/metrics"
	"hierpart/internal/telemetry"
)

// permutedRequest relabels testRequest's instance through perm: vertex
// v becomes perm[v]. The result is isomorphic — exactly the relabelled
// resubmission the canonical fingerprint exists to catch.
func permutedRequest(perm []int) PartitionRequest {
	base := testRequest()
	var req PartitionRequest
	req.Hierarchy = base.Hierarchy
	req.N = base.N
	req.Demands = make([]float64, base.N)
	for v, d := range base.Demands {
		req.Demands[perm[v]] = d
	}
	for _, e := range base.Edges {
		req.Edges = append(req.Edges, [3]float64{float64(perm[int(e[0])]), float64(perm[int(e[1])]), e[2]})
	}
	req.Seed, req.Trees, req.NoDegrade = base.Seed, base.Trees, base.NoDegrade
	return req
}

// checkTranslated materializes the request's own instance and verifies
// the response's assignment is a valid placement there whose recomputed
// Equation (1) cost equals the response cost BIT FOR BIT (the test
// instance's weights and cost multipliers are dyadic, so summation
// order cannot move an ulp).
func checkTranslated(t *testing.T, req PartitionRequest, resp PartitionResponse) {
	t.Helper()
	g, H, err := req.Instance.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if err := metrics.Assignment(resp.Assignment).Validate(g, H); err != nil {
		t.Fatalf("translated assignment invalid on the submission's own labels: %v", err)
	}
	if got := metrics.CostLCA(g, H, resp.Assignment); math.Float64bits(got) != math.Float64bits(resp.Cost) {
		t.Fatalf("recomputed cost %v != response cost %v (must be bit-identical)", got, resp.Cost)
	}
}

func getStats(t *testing.T, h http.Handler) StatsResponse {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("stats status = %d", rec.Code)
	}
	var st StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestCanonCrossUserResultCacheHit is the tentpole end to end: with
// Canon on (as under hgpd), a relabelled resubmission of a solved instance is answered
// from the full-result cache (canon_hit true), its assignment is
// translated back through its own permutation, and its cost is
// bit-identical to the first submission's — both are the same
// canonical-space solve.
func TestCanonCrossUserResultCacheHit(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := newTestServer(t, Config{Canon: true, Registry: reg})

	first := testRequest()
	rec := postPartition(t, s.Handler(), first)
	if rec.Code != http.StatusOK {
		t.Fatalf("first status = %d, body = %s", rec.Code, rec.Body.String())
	}
	resp1 := decodeResponse(t, rec)
	if resp1.CanonHit || resp1.ResultCacheHit {
		t.Fatalf("first submission must be a cold miss: %+v", resp1)
	}
	checkTranslated(t, first, resp1)

	perm := rand.New(rand.NewSource(5)).Perm(first.N)
	second := permutedRequest(perm)
	rec = postPartition(t, s.Handler(), second)
	if rec.Code != http.StatusOK {
		t.Fatalf("second status = %d, body = %s", rec.Code, rec.Body.String())
	}
	resp2 := decodeResponse(t, rec)
	if !resp2.ResultCacheHit {
		t.Fatalf("relabelled resubmission must hit the result cache: %+v", resp2)
	}
	if !resp2.CanonHit {
		t.Fatal("result-cache hit through the canonical key must set canon_hit")
	}
	if math.Float64bits(resp2.Cost) != math.Float64bits(resp1.Cost) {
		t.Fatalf("costs diverge across relabelling: %v vs %v", resp2.Cost, resp1.Cost)
	}
	checkTranslated(t, second, resp2)

	if got := reg.Counter("canon_attempts_total").Value(); got != 2 {
		t.Fatalf("canon_attempts_total = %d, want 2", got)
	}
	if got := reg.Counter("canon_ok_total").Value(); got != 2 {
		t.Fatalf("canon_ok_total = %d, want 2", got)
	}
	if got := reg.Counter("canon_fallback_total").Value(); got != 0 {
		t.Fatalf("canon_fallback_total = %d, want 0", got)
	}
	if got := reg.Counter("canon_hits_total").Value(); got != 1 {
		t.Fatalf("canon_hits_total = %d, want 1", got)
	}

	st := getStats(t, s.Handler())
	if !st.Canon.Enabled || st.Canon.AttemptsTotal != 2 || st.Canon.OKTotal != 2 ||
		st.Canon.FallbackTotal != 0 || st.Canon.CanonHitsTotal != 1 {
		t.Fatalf("stats canon block = %+v", st.Canon)
	}
}

// With the result cache disabled, the relabelled resubmission still
// reuses the expensive artifact: the canonical-space decomposition.
func TestCanonDecompCacheHit(t *testing.T) {
	s := newTestServer(t, Config{Canon: true, ResultCacheEntries: -1})

	first := testRequest()
	rec := postPartition(t, s.Handler(), first)
	if rec.Code != http.StatusOK {
		t.Fatalf("first status = %d, body = %s", rec.Code, rec.Body.String())
	}
	resp1 := decodeResponse(t, rec)
	if resp1.CacheHit || resp1.CanonHit {
		t.Fatalf("first submission must be a cold miss: %+v", resp1)
	}

	perm := rand.New(rand.NewSource(6)).Perm(first.N)
	second := permutedRequest(perm)
	rec = postPartition(t, s.Handler(), second)
	if rec.Code != http.StatusOK {
		t.Fatalf("second status = %d, body = %s", rec.Code, rec.Body.String())
	}
	resp2 := decodeResponse(t, rec)
	if !resp2.CacheHit {
		t.Fatalf("relabelled resubmission must hit the decomposition cache: %+v", resp2)
	}
	if !resp2.CanonHit {
		t.Fatal("decomposition hit through the canonical key must set canon_hit")
	}
	if math.Float64bits(resp2.Cost) != math.Float64bits(resp1.Cost) {
		t.Fatalf("costs diverge across relabelling: %v vs %v", resp2.Cost, resp1.Cost)
	}
	checkTranslated(t, second, resp2)
}

// With Canon off every request is keyed by its labelled form:
// relabelled submissions miss (their labelled fingerprints differ),
// canon_hit never appears, and the stats block reports disabled with
// zero counters.
func TestCanonOffRelabelledMisses(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := newTestServer(t, Config{Registry: reg})

	first := testRequest()
	if rec := postPartition(t, s.Handler(), first); rec.Code != http.StatusOK {
		t.Fatalf("first status = %d", rec.Code)
	}
	perm := rand.New(rand.NewSource(7)).Perm(first.N)
	rec := postPartition(t, s.Handler(), permutedRequest(perm))
	if rec.Code != http.StatusOK {
		t.Fatalf("second status = %d", rec.Code)
	}
	resp := decodeResponse(t, rec)
	if resp.CanonHit || resp.ResultCacheHit || resp.CacheHit {
		t.Fatalf("canon off: relabelled resubmission must miss every cache: %+v", resp)
	}
	if got := reg.Counter("canon_attempts_total").Value(); got != 0 {
		t.Fatalf("canon_attempts_total = %d, want 0 with canon off", got)
	}
	st := getStats(t, s.Handler())
	if st.Canon.Enabled || st.Canon.AttemptsTotal != 0 {
		t.Fatalf("stats canon block = %+v, want disabled zeros", st.Canon)
	}
}

// A graph that refuses to canonicalize (C16: its stable partition is
// one 16-vertex class, over the class cap) is keyed by its labelled
// form in the canonical domain — the request still succeeds, its
// entries sit under the labelled fingerprint's keys with no stored
// permutation, identical resubmissions still hit, and canon_hit stays
// false because the hit was not label-invariant.
func TestCanonFallbackServesLabelSensitive(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := newTestServer(t, Config{Canon: true, Registry: reg})

	var req PartitionRequest
	req.Hierarchy = testRequest().Hierarchy
	req.N = 16
	req.Demands = make([]float64, 16)
	for v := 0; v < 16; v++ {
		req.Demands[v] = 0.25
		req.Edges = append(req.Edges, [3]float64{float64(v), float64((v + 1) % 16), 1})
	}
	req.Seed, req.Trees, req.NoDegrade = 1, 2, true

	rec := postPartition(t, s.Handler(), req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body = %s", rec.Code, rec.Body.String())
	}
	if got := reg.Counter("canon_fallback_total").Value(); got != 1 {
		t.Fatalf("canon_fallback_total = %d, want 1", got)
	}
	g, H, err := req.Instance.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	sv := solverFor(req, s.cfg)
	fp := canon.Labelled(g).Fingerprint
	if _, ok := s.results.Peek(cache.ResultKeyCanon(fp, H, sv.DecompOptions(), sv.Eps, sv.MaxStates)); !ok {
		t.Fatal("the result must sit under the labelled form's result key")
	}
	v, ok := s.dec.Peek(cache.DecompKeyCanon(fp, sv.DecompOptions()))
	if !ok {
		t.Fatal("the decomposition must sit under the labelled form's key")
	}
	if perm := v.(*cache.DecompEntry).Perm; perm != nil {
		t.Fatalf("a labelled entry must store no permutation, got %v", perm)
	}

	rec = postPartition(t, s.Handler(), req)
	if rec.Code != http.StatusOK {
		t.Fatalf("repeat status = %d", rec.Code)
	}
	resp := decodeResponse(t, rec)
	if !resp.ResultCacheHit {
		t.Fatal("identical resubmission must still hit through the labelled form's key")
	}
	if resp.CanonHit {
		t.Fatal("a labelled form's hit must not claim canon_hit")
	}
}
