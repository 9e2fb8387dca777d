package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"hierpart/internal/instio"
	"hierpart/internal/telemetry"
)

// heavyRequest is a 32-vertex no-degrade instance big enough that a real
// solve costs visible wall-clock: four dense 8-cliques joined by a weak
// ring, so the decomposition and DP both do real work.
func heavyRequest() PartitionRequest {
	var req PartitionRequest
	req.Hierarchy = instio.HierarchySpec{Deg: []int{2, 4}, CM: []float64{8, 2, 0}}
	req.N = 32
	for i := 0; i < 32; i++ {
		req.Demands = append(req.Demands, 0.1)
	}
	for b := 0; b < 32; b += 8 {
		for i := b; i < b+8; i++ {
			for j := i + 1; j < b+8; j++ {
				req.Edges = append(req.Edges, [3]float64{float64(i), float64(j), 10})
			}
		}
	}
	for b := 0; b < 32; b += 8 {
		req.Edges = append(req.Edges, [3]float64{float64(b), float64((b + 8) % 32), 1})
	}
	req.Seed = 1
	req.Trees = 3
	req.NoDegrade = true
	return req
}

// The acceptance criterion for the result cache: a repeat of an
// identical request is answered from memory — marked result_cache_hit,
// bit-identical to the cold answer, with zero decompose/solve time and
// at least a 10x wall-clock win.
func TestResultCacheWarmRepeatIsTenTimesFaster(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := newTestServer(t, Config{Registry: reg})

	req := heavyRequest()
	coldStart := time.Now()
	coldRec := postPartition(t, s.Handler(), req)
	coldDur := time.Since(coldStart)
	if coldRec.Code != http.StatusOK {
		t.Fatalf("cold status = %d, body = %s", coldRec.Code, coldRec.Body.String())
	}
	cold := decodeResponse(t, coldRec)
	if cold.ResultCacheHit {
		t.Fatal("cold request must not be a result-cache hit")
	}

	// Min over a few repeats: the point is the steady-state warm cost,
	// not one unlucky scheduler hiccup on a loaded box.
	warmDur := time.Hour
	var warm PartitionResponse
	for i := 0; i < 3; i++ {
		warmStart := time.Now()
		warmRec := postPartition(t, s.Handler(), req)
		d := time.Since(warmStart)
		if warmRec.Code != http.StatusOK {
			t.Fatalf("warm status = %d, body = %s", warmRec.Code, warmRec.Body.String())
		}
		warm = decodeResponse(t, warmRec)
		if !warm.ResultCacheHit {
			t.Fatalf("warm repeat %d not served from the result cache", i)
		}
		if d < warmDur {
			warmDur = d
		}
	}

	// The cached answer is the cold answer, verbatim.
	if fmt.Sprint(warm.Assignment) != fmt.Sprint(cold.Assignment) {
		t.Fatalf("warm assignment %v != cold %v", warm.Assignment, cold.Assignment)
	}
	if warm.Cost != cold.Cost || warm.TreeCost != cold.TreeCost || warm.TreeIndex != cold.TreeIndex {
		t.Fatalf("warm (cost %v, tree_cost %v, tree %d) != cold (%v, %v, %d)",
			warm.Cost, warm.TreeCost, warm.TreeIndex, cold.Cost, cold.TreeCost, cold.TreeIndex)
	}
	// A hit never touched the decomposition cache or the DP.
	if warm.CacheHit || warm.DecomposeMS != 0 || warm.SolveMS != 0 {
		t.Fatalf("warm hit reports cache_hit=%v decompose_ms=%v solve_ms=%v, want false/0/0",
			warm.CacheHit, warm.DecomposeMS, warm.SolveMS)
	}

	if coldDur < 10*warmDur {
		t.Fatalf("warm repeat %v is only %.1fx faster than cold %v, want >= 10x",
			warmDur, float64(coldDur)/float64(warmDur), coldDur)
	}

	if got := reg.Counter("result_cache_hits_total").Value(); got != 3 {
		t.Fatalf("result_cache_hits_total = %d, want 3", got)
	}
	if got := reg.Counter("result_cache_misses_total").Value(); got != 1 {
		t.Fatalf("result_cache_misses_total = %d, want 1", got)
	}
	if got := reg.Counter("result_cache_inserts_total").Value(); got != 1 {
		t.Fatalf("result_cache_inserts_total = %d, want 1", got)
	}
}

// Any parameter that shapes the answer must miss the cache; a repeat of
// each changed request then hits its own entry.
func TestResultCacheInvalidation(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := newTestServer(t, Config{Registry: reg})

	warmUp := func(req PartitionRequest) {
		if rec := postPartition(t, s.Handler(), req); rec.Code != http.StatusOK {
			t.Fatalf("status = %d, body = %s", rec.Code, rec.Body.String())
		}
	}
	warmUp(testRequest())

	variants := map[string]PartitionRequest{}
	base := testRequest()
	v := base
	v.Eps = 0.7
	variants["eps"] = v
	v = base
	v.Trees = 3
	variants["trees"] = v
	v = base
	v.Seed = 99
	variants["seed"] = v
	v = base
	v.FMPasses = 2
	variants["fm_passes"] = v
	v = base
	v.MaxStates = 1_000_000
	variants["max_states"] = v
	v = base
	v.Hierarchy = instio.HierarchySpec{Deg: []int{2, 4}, CM: []float64{16, 2, 0}}
	variants["hierarchy_cm"] = v

	for name, req := range variants {
		resp := decodeResponse(t, postPartition(t, s.Handler(), req))
		if resp.ResultCacheHit {
			t.Fatalf("changed %s must miss the result cache", name)
		}
		resp = decodeResponse(t, postPartition(t, s.Handler(), req))
		if !resp.ResultCacheHit {
			t.Fatalf("repeat of changed %s must hit the result cache", name)
		}
	}

	// And the unchanged base request still hits its original entry.
	resp := decodeResponse(t, postPartition(t, s.Handler(), testRequest()))
	if !resp.ResultCacheHit {
		t.Fatal("unchanged repeat must hit the result cache")
	}
}

// A degraded ladder answer never enters the result cache: the next
// caller with a working backend gets the full-quality solve, not a
// replay of the baseline placement.
func TestResultCacheSkipsDegradedResults(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := newTestServer(t, Config{Registry: reg})

	real := s.solve
	s.solve = blockingSolve(nil, nil) // the DP tier hangs until its ctx dies
	req := ladderRequest()
	req.TimeoutMS = 100
	rec := postPartition(t, s.Handler(), req)
	if rec.Code != http.StatusOK {
		t.Fatalf("degraded status = %d, body = %s", rec.Code, rec.Body.String())
	}
	resp := decodeResponse(t, rec)
	if resp.Degradation == nil || !resp.Degradation.Degraded {
		t.Fatalf("degradation = %+v, want a degraded baseline win", resp.Degradation)
	}
	if got := reg.Counter("result_cache_inserts_total").Value(); got != 0 {
		t.Fatalf("degraded result was inserted into the result cache (inserts = %d)", got)
	}

	// Backend restored: the identical request must re-solve, not hit.
	s.solve = real
	req.TimeoutMS = 0
	resp = decodeResponse(t, postPartition(t, s.Handler(), req))
	if resp.ResultCacheHit {
		t.Fatal("repeat after a degraded answer must not be a result-cache hit")
	}
	if resp.Degradation == nil || resp.Degradation.Tier != "full_dp" || resp.Degradation.Degraded {
		t.Fatalf("degradation = %+v, want undegraded full_dp", resp.Degradation)
	}
	if got := reg.Counter("result_cache_inserts_total").Value(); got != 1 {
		t.Fatalf("result_cache_inserts_total = %d, want 1 after the full-quality solve", got)
	}
	// Now the full-quality answer is cached.
	if resp = decodeResponse(t, postPartition(t, s.Handler(), req)); !resp.ResultCacheHit {
		t.Fatal("repeat of the full-quality solve must hit")
	}
}

// The result_cache stats block and its counters surface through
// /v1/stats in both output formats.
func TestResultCacheStatsBlock(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := newTestServer(t, Config{Registry: reg})
	for i := 0; i < 2; i++ {
		if rec := postPartition(t, s.Handler(), testRequest()); rec.Code != http.StatusOK {
			t.Fatalf("status = %d, body = %s", rec.Code, rec.Body.String())
		}
	}

	var st StatsResponse
	if err := json.Unmarshal(getPath(s, "/v1/stats").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.ResultCache == nil {
		t.Fatal("stats missing result_cache block")
	}
	if st.ResultCache.Hits != 1 || st.ResultCache.Misses != 1 || st.ResultCache.Len != 1 {
		t.Fatalf("result_cache stats = %+v, want 1 hit / 1 miss / 1 entry", st.ResultCache)
	}
	if st.ResultCache.Capacity != 256 {
		t.Fatalf("result_cache capacity = %d, want the 256 default", st.ResultCache.Capacity)
	}
	if st.ResultCache.HitRatio != 0.5 {
		t.Fatalf("result_cache hit_ratio = %v, want 0.5", st.ResultCache.HitRatio)
	}
	if st.Metrics.Counters["result_cache_hits_total"] != 1 ||
		st.Metrics.Counters["result_cache_misses_total"] != 1 ||
		st.Metrics.Counters["result_cache_inserts_total"] != 1 {
		t.Fatalf("result-cache counters missing from metrics: %v", st.Metrics.Counters)
	}
	prom := getPath(s, "/v1/stats?format=prometheus").Body.String()
	for _, want := range []string{
		"result_cache_hits_total 1",
		"result_cache_misses_total 1",
		"result_cache_inserts_total 1",
	} {
		if !strings.Contains(prom, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, prom)
		}
	}

	// Disabled cache: no block, no counters ticked.
	s2 := newTestServer(t, Config{Registry: telemetry.NewRegistry(), ResultCacheEntries: -1})
	if rec := postPartition(t, s2.Handler(), testRequest()); rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body = %s", rec.Code, rec.Body.String())
	}
	var st2 StatsResponse
	if err := json.Unmarshal(getPath(s2, "/v1/stats").Body.Bytes(), &st2); err != nil {
		t.Fatal(err)
	}
	if st2.ResultCache != nil {
		t.Fatalf("disabled result cache still reports a stats block: %+v", st2.ResultCache)
	}
}

// Identical concurrent misses coalesce onto one solve: every
// non-leader is accounted for as either coalesced (joined the flight)
// or a hit (arrived after the leader populated the cache).
func TestResultCacheCoalescesConcurrentRepeats(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := newTestServer(t, Config{Registry: reg, MaxConcurrent: 8, MaxQueue: 32})

	started := make(chan struct{}, 16)
	release := make(chan struct{})
	s.solve = blockingSolve(started, release)

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
	// Let the leader enter the solve and the rest of the herd pile up in
	// the flight, then release everyone at once.
	<-started
	time.Sleep(100 * time.Millisecond)
	close(release)
	wg.Wait()

	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("request %d: status = %d", i, c)
		}
	}
	// Drain the started channel: total sends = number of real solves.
	solves := 1
	for {
		select {
		case <-started:
			solves++
			continue
		default:
		}
		break
	}
	coalesced := reg.Counter("result_coalesced_total").Value()
	hits := reg.Counter("result_cache_hits_total").Value()
	if int(coalesced+hits)+solves != n {
		t.Fatalf("coalesced (%d) + hits (%d) + solves (%d) = %d, want %d requests accounted for",
			coalesced, hits, solves, int(coalesced+hits)+solves, n)
	}
	if solves != 1 {
		t.Fatalf("backend solved %d times for %d identical concurrent requests, want 1", solves, n)
	}
}
