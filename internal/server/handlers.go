package server

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"hierpart/internal/anytime"
	"hierpart/internal/cache"
	"hierpart/internal/canon"
	"hierpart/internal/faultinject"
	"hierpart/internal/graph"
	"hierpart/internal/hgp"
	"hierpart/internal/hierarchy"
	"hierpart/internal/instio"
	"hierpart/internal/telemetry"
)

// PartitionRequest is the POST /v1/partition body: an instio.Instance
// (graph + hierarchy + cost multipliers) plus solver parameters and an
// optional per-request deadline. Zero-valued solver fields take the
// hgp.Solver defaults (Eps 0.5, Trees 4, FMPasses 4).
type PartitionRequest struct {
	instio.Instance
	Eps        float64 `json:"eps,omitempty"`
	Trees      int     `json:"trees,omitempty"`
	Seed       int64   `json:"seed,omitempty"`
	FMPasses   int     `json:"fm_passes,omitempty"`
	FlowRefine bool    `json:"flow_refine,omitempty"`
	MaxStates  int     `json:"max_states,omitempty"`
	// TimeoutMS bounds this request's wall-clock budget; 0 uses the
	// server default, values above the server maximum are clamped.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// NoDegrade opts this request out of the degradation ladder: only
	// the full pipeline runs, and a missed deadline is a 504 rather
	// than a degraded 200. Use it when a lower-quality placement is
	// worse than no placement (e.g. offline jobs that will simply
	// retry with a bigger budget).
	NoDegrade bool `json:"no_degrade,omitempty"`
}

// PartitionResponse is the POST /v1/partition success body.
type PartitionResponse struct {
	// Assignment places every graph vertex on a hierarchy leaf.
	Assignment []int `json:"assignment"`
	// Cost is the Equation (1) objective of the placement on G.
	Cost float64 `json:"cost"`
	// TreeCost is the winning tree's Equation (3) cost (≥ Cost for
	// normalized cm, Proposition 1).
	TreeCost float64 `json:"tree_cost"`
	// TreeIndex identifies the winning decomposition tree.
	TreeIndex int `json:"tree_index"`
	// PerTreeCosts is the mapped cost of every tree's solution; null
	// marks a tree that produced no cost — either its solve failed (NaN
	// in hgp.Result.PerTreeCosts) or the portfolio's incumbent bound
	// pruned it (+Inf); neither sentinel is representable in JSON.
	// TreesPruned says how many nulls are prunes rather than failures.
	PerTreeCosts []*float64 `json:"per_tree_costs"`
	// TreesPruned counts trees skipped by portfolio pruning (their
	// finished placements provably could not have won); omitted when
	// zero.
	TreesPruned int `json:"trees_pruned,omitempty"`
	// Violation is the per-level relative capacity violation.
	Violation []float64 `json:"violation"`
	// States is the total DP state count across trees.
	States int `json:"states"`
	// CacheHit reports whether the decomposition came from the LRU —
	// when true the embed phase was skipped entirely.
	CacheHit bool `json:"cache_hit"`
	// ResultCacheHit reports that the entire solve was answered from the
	// full-result cache: no admission, no decomposition, no DP. CacheHit
	// is false on such responses (the decomposition cache was never
	// consulted), and DecomposeMS/SolveMS are 0.
	ResultCacheHit bool `json:"result_cache_hit,omitempty"`
	// PeerFetchHit reports that the answer's expensive artifact came
	// over the wire from its cluster owner instead of local work: the
	// decomposition (CacheHit false — the local LRU missed) or, with
	// ResultCacheHit true, the entire result. Bodies are bit-identical
	// to the locally produced equivalent; this flag is observability,
	// not a quality marker. Coalesced waiters behind a fetching request
	// do not set it.
	PeerFetchHit bool `json:"peer_fetch_hit,omitempty"`
	// CanonHit reports that this request canonicalized (-canon) and was
	// answered from a cache keyed by the label-invariant fingerprint —
	// either a decomposition hit (CacheHit) or a full-result hit
	// (ResultCacheHit). The hit may have been written by a different
	// user's isomorphic submission; the assignment was translated back
	// through this request's own permutation.
	CanonHit bool `json:"canon_hit,omitempty"`
	// ElapsedMS, DecomposeMS, SolveMS are wall-clock phase timings;
	// DecomposeMS is 0 on a cache hit. For a ladder response they
	// describe the winning tier (0/0 for a baseline win — that tier
	// has no decompose or DP phase).
	ElapsedMS   float64 `json:"elapsed_ms"`
	DecomposeMS float64 `json:"decompose_ms"`
	SolveMS     float64 `json:"solve_ms"`
	// Degradation reports how the anytime ladder resolved this request;
	// omitted when the request opted out with no_degrade.
	Degradation *DegradationResponse `json:"degradation,omitempty"`
}

// DegradationResponse is the `degradation` block of a ladder response:
// which tier produced the placement, whether that is a degradation from
// the full pipeline, and the per-tier post-mortems.
type DegradationResponse struct {
	// Tier names the rung that produced the returned placement:
	// "full_dp" or "baseline".
	Tier string `json:"tier"`
	// Degraded is true when the caller got anything less than the full
	// pipeline's complete answer.
	Degraded bool `json:"degraded"`
	// Partial marks a full_dp result assembled from the trees that
	// finished before the deadline (TreesDone of them) rather than all
	// requested trees.
	Partial   bool `json:"partial,omitempty"`
	TreesDone int  `json:"trees_done,omitempty"`
	// Tiers holds one report per ladder rung, in tier order.
	Tiers []anytime.TierReport `json:"tiers"`
}

func (s *Server) handlePartition(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "POST required")
		return
	}
	if !s.enter(w, drainingMsg) {
		return
	}
	defer s.inflight.Done()
	start := time.Now()
	s.reg.Counter("partition_requests_total").Inc()

	var req PartitionRequest
	if !s.decode(w, r, &req, false) {
		return
	}
	g, H, sv, ok := s.prepare(w, &req.Instance, hgp.Solver{
		Eps: req.Eps, Trees: req.Trees, Seed: req.Seed,
		FMPasses: req.FMPasses, FlowRefine: req.FlowRefine, MaxStates: req.MaxStates,
	}, req.TimeoutMS)
	if !ok {
		return
	}

	// Canonicalization: map the submission to its canonical vertex
	// ordering so every cache below keys on the label-invariant
	// fingerprint and the solver runs in canonical space. A refusal
	// (large automorphism class, exhausted tie-break budget) falls back
	// to the label-sensitive keys — a missed cross-user hit, never a
	// wrong one.
	var cn *canon.Form
	gSolve := g
	if s.cfg.Canon {
		s.reg.Counter("canon_attempts_total").Inc()
		if f, ok := canon.Canonicalize(g); ok {
			s.reg.Counter("canon_ok_total").Inc()
			cn = f
			gSolve = f.Graph
		} else {
			s.reg.Counter("canon_fallback_total").Inc()
		}
	}

	// Result-cache precheck, before any admission cost is paid: a repeat
	// of a completed full-quality solve is served straight from memory —
	// no breaker probe, no queue slot, no decomposition, no DP. The key
	// (cache.ResultKey, or cache.ResultKeyCanon once canonicalized)
	// covers everything that shapes the returned placement; Workers is
	// excluded because results are bit-identical at every worker count.
	var rkey string
	if s.results != nil {
		if cn != nil {
			rkey = cache.ResultKeyCanon(cn.Fingerprint, H, sv.DecompOptions(), sv.Eps, sv.MaxStates)
		} else {
			rkey = cache.ResultKey(g, H, sv.DecompOptions(), sv.Eps, sv.MaxStates)
		}
		if v, ok := s.results.Get(rkey); ok {
			s.reg.Counter("result_cache_hits_total").Inc()
			s.writePartitionOK(w, start, v.(*hgp.Result), false, true, false, 0, 0, nil, cn)
			return
		}
		s.reg.Counter("result_cache_misses_total").Inc()
		// Cluster mode: the key's owner may have solved this exact
		// request already. A validated peer result is inserted locally
		// (repeat requests here become plain result-cache hits) and
		// rendered through the same path as a local result-cache hit,
		// so the body is bit-identical to one. Any failure — miss,
		// dead owner, corrupt frame — falls through to a local solve.
		// The fetch runs inside the singleflight group (keyed apart from
		// the solve coalescing below) so a miss storm on one key costs
		// the owner one network round trip, not N concurrent fetches
		// each paying its attempts against a slow peer.
		if s.cluster != nil {
			v, shared, ferr := s.rflight.Do(r.Context(), rkey+"|peerfetch", func() (any, error) {
				res, ok := s.cluster.fetchResult(r.Context(), rkey)
				if !ok {
					return (*hgp.Result)(nil), nil
				}
				s.results.Add(rkey, res)
				return res, nil
			})
			if ferr == nil {
				if res, _ := v.(*hgp.Result); res != nil {
					// Coalesced waiters share the fetched result, but only
					// the fetching request reports peer_fetch_hit —
					// mirroring the decomposition path's attribution.
					s.writePartitionOK(w, start, res, false, true, !shared, 0, 0, nil, cn)
					return
				}
			}
		}
	}

	a := s.admit(w, r, start, req.TimeoutMS, req.NoDegrade)
	if a == nil {
		return
	}
	defer s.release(a)
	ctx, pfm := withPeerFetchMark(a.ctx)

	if err := faultinject.Fire(ctx, faultinject.ServerSolve); err != nil {
		s.reg.Counter("partition_errors_total").Inc()
		s.writeError(w, http.StatusInternalServerError, "solve_failed", err.Error())
		return
	}

	runSolve := func() (*solveOutcome, error) {
		oc := &solveOutcome{}
		if req.NoDegrade {
			res, hit, dd, sd, serr := s.solve(ctx, gSolve, H, sv, cn)
			if serr != nil {
				return nil, serr
			}
			oc.res, oc.cacheHit, oc.decompDur, oc.solveDur = res, hit, dd, sd
		} else {
			ladderOpts := anytime.Options{Solver: sv}
			if a.mode == modeFloor {
				// Breaker open: run only the ladder's floor rung. The baseline
				// tier allocates no DP tables, so serving it degrades quality
				// instead of deepening the memory pressure that tripped us.
				floor := anytime.TierBaseline
				ladderOpts.Only = &floor
				s.reg.Counter("breaker_floor_served_total").Inc()
			}
			// The ladder path: the full pipeline and the heuristic baseline
			// race under the request's deadline; the best feasible placement
			// available wins. The full tier runs through s.solve so it shares
			// the decomposition cache and singleflight group. Its cache
			// outcome and phase timings are reported when it wins; a
			// baseline win has neither phase.
			var phaseMu sync.Mutex
			var fullHit bool
			var fullDecomp, fullSolve time.Duration
			ladderOpts.SolveDP = func(ctx context.Context, g *graph.Graph, H *hierarchy.Hierarchy, sv hgp.Solver) (*hgp.Result, error) {
				r, hit, d, sd, serr := s.solve(ctx, g, H, sv, cn)
				phaseMu.Lock()
				fullHit, fullDecomp, fullSolve = hit, d, sd
				phaseMu.Unlock()
				return r, serr
			}
			out, serr := anytime.Solve(ctx, gSolve, H, ladderOpts)
			if serr != nil {
				return nil, serr
			}
			oc.res = out.Result
			if out.Tier == anytime.TierFullDP {
				phaseMu.Lock()
				oc.cacheHit, oc.decompDur, oc.solveDur = fullHit, fullDecomp, fullSolve
				phaseMu.Unlock()
			}
			oc.degResp = &DegradationResponse{
				Tier:      out.Tier.String(),
				Degraded:  out.Degraded,
				Partial:   oc.res.Partial,
				TreesDone: oc.res.TreesDone,
				Tiers:     out.Reports[:],
			}
			if out.Degraded {
				s.reg.Counter(fmt.Sprintf("degraded_total{tier=%q}", out.Tier.String())).Inc()
			}
			oc.degraded = out.Degraded || out.Tier != anytime.TierFullDP
		}
		// Only complete full-pipeline results enter the result cache: a
		// degraded or partial placement must not be replayed to callers
		// who would have gotten the full answer.
		if s.results != nil && !oc.degraded && !oc.res.Partial {
			s.results.Add(rkey, oc.res)
			s.reg.Counter("result_cache_inserts_total").Inc()
			if s.cluster != nil {
				// Replicate the full-quality result to the key's
				// remote replicas (the fan-out skips self) so the next
				// submission of this request anywhere in the cluster
				// finds it where routing looks. Degraded and partial
				// results never travel, for the same reason they never
				// enter the local result cache.
				s.cluster.pushResult(rkey, oc.res)
			}
		}
		return oc, nil
	}

	var oc *solveOutcome
	var err error
	if s.results != nil && a.mode != modeFloor {
		// Coalesce identical concurrent misses, keyed per degradation
		// mode (a no-degrade caller must never be handed a ladder
		// outcome, and vice versa). Every waiter holds its own admission
		// slot; only the DP work is shared.
		sfKey := rkey + "|ladder"
		if req.NoDegrade {
			sfKey = rkey + "|nd"
		}
		var v any
		var shared bool
		v, shared, err = s.rflight.Do(ctx, sfKey, func() (any, error) { return runSolve() })
		if err == nil {
			oc = v.(*solveOutcome)
			if shared {
				s.reg.Counter("result_coalesced_total").Inc()
			}
		}
	} else {
		oc, err = runSolve()
	}
	s.settle(a, err == nil)
	if err != nil {
		s.writeSolveError(w, ctx, start, err)
		return
	}
	s.writePartitionOK(w, start, oc.res, oc.cacheHit, false, pfm.hit.Load(), oc.decompDur, oc.solveDur, oc.degResp, cn)
}

// solveOutcome bundles one completed solve so identical concurrent
// requests can share it through the singleflight group.
type solveOutcome struct {
	res                 *hgp.Result
	cacheHit            bool
	decompDur, solveDur time.Duration
	degResp             *DegradationResponse
	degraded            bool
}

// writePartitionOK renders a successful solve. NaN per-tree costs
// (errored trees) and +Inf (pruned trees) both become null — neither is
// representable in JSON; TreesPruned carries the distinction. The solve
// latency histogram only sees real solves: a result-cache hit did no
// solving and would drag the distribution toward zero.
//
// With a canonical form (cn non-nil) res lives in canonical space —
// possibly shared with other requests through the caches — so the
// assignment is translated back through this request's own permutation
// into a FRESH slice before rendering; the cached result is never
// mutated. Cost, violations, and per-tree costs are label-invariant
// and pass through untouched.
func (s *Server) writePartitionOK(w http.ResponseWriter, start time.Time, res *hgp.Result, cacheHit, resultHit, peerFetch bool, decompDur, solveDur time.Duration, degResp *DegradationResponse, cn *canon.Form) {
	perTree := make([]*float64, len(res.PerTreeCosts))
	for i, c := range res.PerTreeCosts {
		if !math.IsNaN(c) && !math.IsInf(c, 1) {
			c := c
			perTree[i] = &c
		}
	}
	assignment := res.Assignment
	canonHit := false
	if cn != nil {
		assignment = cn.TranslateAssignment(res.Assignment)
		// A peer fetch under -canon is a cache hit keyed by the
		// label-invariant fingerprint — the owner's entry may have been
		// written by a different user's isomorphic submission — so it
		// counts as a canon hit like any local one.
		if cacheHit || resultHit || peerFetch {
			canonHit = true
			s.reg.Counter("canon_hits_total").Inc()
		}
	}
	elapsed := time.Since(start)
	s.reg.Counter("partition_ok_total").Inc()
	s.reg.Counter("http_status_200_total").Inc()
	s.reg.Histogram("request_seconds").Observe(elapsed.Seconds())
	if !resultHit {
		s.reg.Histogram("solve_seconds").Observe(solveDur.Seconds())
	}
	writeJSON(w, http.StatusOK, PartitionResponse{
		Assignment:     assignment,
		Cost:           res.Cost,
		TreeCost:       res.TreeCost,
		TreeIndex:      res.TreeIndex,
		PerTreeCosts:   perTree,
		TreesPruned:    res.TreesPruned,
		Violation:      res.Violation,
		States:         res.States,
		CacheHit:       cacheHit,
		ResultCacheHit: resultHit,
		PeerFetchHit:   peerFetch,
		CanonHit:       canonHit,
		ElapsedMS:      float64(elapsed.Microseconds()) / 1000,
		DecomposeMS:    float64(decompDur.Microseconds()) / 1000,
		SolveMS:        float64(solveDur.Microseconds()) / 1000,
		Degradation:    degResp,
	})
}

// healthzResponse is the GET /v1/healthz body.
type healthzResponse struct {
	Status        string  `json:"status"` // "ok" or "draining"
	UptimeSeconds float64 `json:"uptime_seconds"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "GET required")
		return
	}
	st, code := "ok", http.StatusOK
	if s.isDraining() {
		st, code = "draining", http.StatusServiceUnavailable
	}
	writeJSON(w, code, healthzResponse{Status: st, UptimeSeconds: s.uptime()})
}

// StatsResponse is the GET /v1/stats JSON body.
type StatsResponse struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Queue         struct {
		Depth       int64 `json:"depth"`
		Concurrency int   `json:"concurrency"` // configured ceiling (MaxConcurrent)
		Capacity    int   `json:"capacity"`    // waiting room beyond Concurrency
		Ceiling     int   `json:"ceiling"`     // current (AIMD-adjusted) ceiling
		InUse       int   `json:"in_use"`      // solve slots held right now
		Waiting     int   `json:"waiting"`     // waiting-room occupancy
		Adaptive    bool  `json:"adaptive"`
	} `json:"queue"`
	Breaker   *breakerStats  `json:"breaker,omitempty"`   // omitted when the breaker is disabled
	Snapshots *snapshotStats `json:"snapshots,omitempty"` // omitted when the cache is memory-only
	Cache     *cache.Stats   `json:"cache,omitempty"`     // omitted when caching is disabled
	// ResultCache is the full-result cache's accounting; omitted when
	// disabled. Hits here are whole solves never run.
	ResultCache *cache.Stats `json:"result_cache,omitempty"`
	// Portfolio is the tree-portfolio accounting: incumbent pruning and
	// tree-level concurrency across all solves. Always present.
	Portfolio portfolioBlock `json:"portfolio"`
	// Canon is the canonical-fingerprinting accounting. Always present;
	// Enabled mirrors the -canon flag and the counters stay zero while
	// it is off.
	Canon canonBlock `json:"canon"`
	// Cluster is the shard-group accounting: membership health and
	// fetch/push outcome totals. Always present; with
	// clustering off only {"enabled": false} is rendered, so dashboards
	// key on one shape everywhere.
	Cluster clusterStats `json:"cluster"`
	// Sessions is the graph-session (incremental repartitioning)
	// accounting: active sessions, patch/conflict totals, and the
	// incremental-vs-cold solve split. Always present; Enabled is false
	// when -max-sessions is negative.
	Sessions sessionsBlock      `json:"sessions"`
	Metrics  telemetry.Snapshot `json:"metrics"`
}

// canonBlock is the `canon` block of /v1/stats. Attempts split into ok
// (canonicalized; label-invariant keys used) and fallback (refused;
// label-sensitive keys used). HitsTotal counts responses answered from
// a canonically-keyed cache — the cross-user reuse the fingerprint
// exists to create.
type canonBlock struct {
	Enabled        bool  `json:"enabled"`
	AttemptsTotal  int64 `json:"attempts_total"`
	OKTotal        int64 `json:"ok_total"`
	FallbackTotal  int64 `json:"fallback_total"`
	CanonHitsTotal int64 `json:"hits_total"`
}

// portfolioBlock is the `portfolio` block of /v1/stats. The counters
// aggregate over real solves only (result-cache hits run no portfolio);
// ParallelTrees is the most recent solve's tree-level worker count.
type portfolioBlock struct {
	TreesPrunedTotal      int64 `json:"trees_pruned_total"`
	ParallelTrees         int64 `json:"parallel_trees"`
	ParallelSolvesTotal   int64 `json:"parallel_solves_total"`
	SequentialSolvesTotal int64 `json:"sequential_solves_total"`
}

// breakerStats is the `breaker` block of /v1/stats.
type breakerStats struct {
	State             string  `json:"state"` // "closed", "open", or "half_open"
	Trips             int64   `json:"trips"`
	RetryAfterSeconds float64 `json:"retry_after_seconds,omitempty"` // cooldown remaining when open
}

// snapshotStats is the `snapshots` block of /v1/stats: the on-disk
// durability of the decomposition cache.
type snapshotStats struct {
	Entries          int     `json:"entries"`
	Bytes            int64   `json:"bytes"`
	Pending          int     `json:"pending"` // staged, not yet flushed
	LastFlushAgeSecs float64 `json:"last_flush_age_seconds,omitempty"`
}

func breakerStateName(state int) string {
	switch state {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half_open"
	default:
		return "closed"
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "GET required")
		return
	}
	// Mirror cache accounting into gauges so both output formats (and
	// any scraper) see it.
	if s.dec != nil {
		cs := s.dec.Stats()
		s.reg.Gauge("decomp_cache_len").Set(int64(cs.Len))
		s.reg.Gauge("decomp_cache_evictions").Set(cs.Evictions)
	}
	ceiling, inUse, waiting := s.lim.snapshot()
	s.reg.Gauge("limiter_ceiling").Set(int64(ceiling))
	s.reg.Gauge("limiter_in_use").Set(int64(inUse))
	s.reg.Gauge("limiter_waiting").Set(int64(waiting))
	s.publishBreakerGauges()
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.reg.WritePrometheus(w)
		return
	}
	resp := StatsResponse{UptimeSeconds: s.uptime(), Metrics: s.reg.Snapshot()}
	resp.Queue.Depth = s.queued.Load()
	resp.Queue.Concurrency = s.cfg.MaxConcurrent
	resp.Queue.Capacity = s.cfg.MaxQueue
	resp.Queue.Ceiling, resp.Queue.InUse, resp.Queue.Waiting = s.lim.snapshot()
	resp.Queue.Adaptive = s.cfg.Adaptive
	if s.brk != nil {
		state, trips, retry := s.brk.snapshot()
		resp.Breaker = &breakerStats{
			State: breakerStateName(state), Trips: trips,
			RetryAfterSeconds: retry.Seconds(),
		}
	}
	if s.store != nil {
		ds := s.store.Stats()
		resp.Snapshots = &snapshotStats{
			Entries: ds.Entries, Bytes: ds.Bytes, Pending: ds.Pending,
		}
		if !ds.LastFlush.IsZero() {
			resp.Snapshots.LastFlushAgeSecs = time.Since(ds.LastFlush).Seconds()
		}
	}
	if s.dec != nil {
		cs := s.dec.Stats()
		resp.Cache = &cs
	}
	if s.results != nil {
		rs := s.results.Stats()
		resp.ResultCache = &rs
	}
	resp.Portfolio = portfolioBlock{
		TreesPrunedTotal:      s.reg.Counter("trees_pruned_total").Value(),
		ParallelTrees:         s.reg.Gauge("portfolio_parallel_trees").Value(),
		ParallelSolvesTotal:   s.reg.Counter("portfolio_parallel_solves_total").Value(),
		SequentialSolvesTotal: s.reg.Counter("portfolio_sequential_solves_total").Value(),
	}
	resp.Canon = canonBlock{
		Enabled:        s.cfg.Canon,
		AttemptsTotal:  s.reg.Counter("canon_attempts_total").Value(),
		OKTotal:        s.reg.Counter("canon_ok_total").Value(),
		FallbackTotal:  s.reg.Counter("canon_fallback_total").Value(),
		CanonHitsTotal: s.reg.Counter("canon_hits_total").Value(),
	}
	if s.cluster != nil {
		resp.Cluster = s.cluster.stats()
	}
	resp.Sessions = s.sessionsStats()
	writeJSON(w, http.StatusOK, resp)
}
