package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hierpart/internal/cache"
	"hierpart/internal/cache/diskstore"
	"hierpart/internal/canon"
	"hierpart/internal/faultinject"
	"hierpart/internal/graph"
	"hierpart/internal/hgp"
	"hierpart/internal/hierarchy"
	"hierpart/internal/telemetry"
	"hierpart/internal/treedecomp"
)

// Config tunes the daemon. The zero value is serviceable: defaults are
// filled in by New.
type Config struct {
	// MaxConcurrent is the number of solves running simultaneously.
	// Zero means GOMAXPROCS.
	MaxConcurrent int
	// MaxQueue is how many admitted requests may wait for a solve slot
	// beyond the MaxConcurrent running ones; past that the daemon sheds
	// load with 429. Zero means 64; negative means no waiting room.
	MaxQueue int
	// DefaultTimeout applies when a request carries no timeout_ms.
	// Zero means 30s.
	DefaultTimeout time.Duration
	// MaxTimeout caps the per-request deadline regardless of what the
	// request asks for. Zero means 5m.
	MaxTimeout time.Duration
	// CacheEntries bounds the decomposition LRU. Zero means 128;
	// negative disables caching.
	CacheEntries int
	// ResultCacheEntries bounds the full-result LRU: a repeat request
	// (same instance, hierarchy, and solver parameters) is answered from
	// memory, skipping decomposition AND the DP. Zero means 256;
	// negative disables. Workers is deliberately not part of the key —
	// results are bit-identical at every worker count — so retuning
	// concurrency never cools this cache. Results are memory-only (no
	// StateDir snapshotting): they are cheap to recompute from a warm
	// decomposition cache, and small enough that holding them on disk
	// buys little.
	ResultCacheEntries int
	// Canon enables canonical-form graph fingerprinting (hgpd -canon):
	// each submission is mapped to its canonical vertex ordering
	// (internal/canon), both caches key on the label-invariant
	// fingerprint, the solver runs in canonical space, and the placement
	// is translated back through the request's own permutation before
	// answering. Isomorphic submissions from different users then share
	// cache entries. Graphs that refuse to canonicalize (large
	// automorphism classes, exhausted search budget) fall back to the
	// label-sensitive keys, counted by canon_fallback_total.
	Canon bool
	// SolverWorkers is the per-solve concurrency budget
	// (hgp.Solver.Workers). Zero means GOMAXPROCS.
	SolverWorkers int
	// MaxStates caps the DP state budget per request; requests may ask
	// for less but never more. Zero means 50 million (a guard against
	// pathological instances, not a tuning knob).
	MaxStates int
	// MaxVertices rejects oversized graphs at decode time with 413.
	// Zero means 100000.
	MaxVertices int
	// MaxEdges rejects oversized edge lists at decode time with 413,
	// before any admission cost is paid. Zero means 2 million.
	MaxEdges int
	// StateDir, when non-empty, makes the decomposition cache durable:
	// entries are snapshotted to this directory by a background flusher
	// and loaded back on startup, so a killed-and-restarted daemon
	// serves its first repeat request from a warm cache. Requires
	// caching to be enabled.
	StateDir string
	// SnapshotInterval is how often the background flusher writes staged
	// cache entries to StateDir. Zero means 2s.
	SnapshotInterval time.Duration
	// Adaptive enables the AIMD concurrency limiter: the solve ceiling
	// starts at MaxConcurrent and moves with observed solve latency vs.
	// deadline headroom (halve under deadline pressure, +1 per
	// ceiling-worth of headroomy completions). Off, the ceiling is
	// pinned at MaxConcurrent.
	Adaptive bool
	// MaxHeapBytes arms the memory-pressure circuit breaker: when the
	// live heap exceeds it the daemon serves only the degradation
	// ladder's floor tier (shedding no-degrade requests and session
	// solves with 503) until pressure subsides, probing half-open after
	// BreakerCooldown. Zero disables the breaker.
	MaxHeapBytes int64
	// BreakerCooldown is how long the breaker stays open before a
	// half-open probe. Zero means 2s.
	BreakerCooldown time.Duration
	// Peers, when non-empty, turns on cluster mode: the full static
	// membership of the shard group as base URLs (including this
	// daemon's own, which must equal Self). Every cache key is homed on
	// its top-Replication peers under rendezvous hashing; non-replicas
	// fetch from them on a local miss and push locally built entries
	// to them. Requires caching (CacheEntries > 0).
	Peers []string
	// Self is this daemon's own entry in Peers — the base URL other
	// peers reach it at.
	Self string
	// PeerSecret, when non-empty, authenticates the internal /v1/peer/*
	// surface: every request against it must carry the secret in the
	// X-Hgpd-Peer-Secret header (compared in constant time; wrong or
	// missing is 403), and this daemon's own peer clients attach it to
	// every fetch, push, and health poll. All members of a shard group
	// must share one value. Empty leaves the surface unauthenticated —
	// acceptable ONLY when the listen address is unreachable by
	// untrusted clients: the peer PUT endpoints accept cache entries
	// under any key (keys are hashes of the originating request, so a
	// receiver cannot tie a payload back to its key), and a hostile
	// writer could poison answers served cluster-wide.
	PeerSecret string
	// PeerTimeout bounds each attempt of a peer fetch, push or repair
	// pull (a call makes at most two). Zero means 2s.
	PeerTimeout time.Duration
	// PeerHealthInterval is how often the health poller gossips
	// /v1/peer/health; a clean poll is the only thing that restores a
	// demoted peer. Zero means 1s.
	PeerHealthInterval time.Duration
	// Replication is R, the number of peers that home each cache key —
	// its top-R rendezvous-hash owners, clamped to the cluster size.
	// Fetches walk the replicas in rank order (any live one serves);
	// pushes fan out to every routable one. Zero means 1: single
	// ownership, the pre-replication behavior, bit-identical routing
	// included.
	Replication int
	// RepairInterval is how often the anti-entropy sweep exchanges key
	// digests with peers (GET /v1/peer/keys) and pulls entries this
	// daemon should replicate but lacks; the sweep also runs at startup
	// and whenever a peer recovers. Zero or negative means 30s — repair
	// is the only path that restocks a replica, so it cannot be off.
	RepairInterval time.Duration
	// MaxSessions bounds the graph-session LRU (the /v1/graphs
	// incremental repartitioning surface): registrations beyond it evict
	// the least recently used session (and its snapshot). Zero means 64;
	// negative disables sessions (the /v1/graphs routes are not
	// registered). Sessions are snapshotted under StateDir/sessions when
	// StateDir is set, and reloaded on startup — reloaded sessions solve
	// cold once (decompositions and warm DP tables are not persisted).
	MaxSessions int
	// Registry receives the daemon's metrics. Nil means
	// telemetry.Default.
	Registry *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 64
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 128
	}
	if c.ResultCacheEntries == 0 {
		c.ResultCacheEntries = 256
	}
	if c.MaxStates <= 0 {
		c.MaxStates = 50_000_000
	}
	if c.MaxVertices <= 0 {
		c.MaxVertices = 100_000
	}
	if c.MaxEdges <= 0 {
		c.MaxEdges = 2_000_000
	}
	if c.SnapshotInterval <= 0 {
		c.SnapshotInterval = 2 * time.Second
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	if c.PeerTimeout <= 0 {
		c.PeerTimeout = 2 * time.Second
	}
	if c.PeerHealthInterval <= 0 {
		c.PeerHealthInterval = time.Second
	}
	if c.Replication <= 0 {
		c.Replication = 1
	}
	if c.RepairInterval <= 0 {
		c.RepairInterval = 30 * time.Second
	}
	if c.MaxSessions == 0 {
		c.MaxSessions = 64
	}
	if c.MaxSessions < 0 {
		c.MaxSessions = 0
	}
	if c.Registry == nil {
		c.Registry = telemetry.Default
	}
	return c
}

// Server is the daemon state: admission limiter, circuit breaker,
// decomposition cache (and its on-disk snapshot store), metrics
// registry, and drain bookkeeping.
type Server struct {
	cfg Config
	reg *telemetry.Registry
	dec *cache.LRU // nil when caching is disabled
	// results holds full solve results by cache.ResultKey; nil when
	// disabled. A hit skips admission, decomposition, and the DP.
	results *cache.LRU
	// flight coalesces concurrent decomposition builds for the same
	// cache key: a miss storm runs one build, not N.
	flight cache.Group
	// rflight coalesces concurrent identical solves (same result key and
	// degradation mode): a repeat storm behind a cold result cache runs
	// one solve, not N.
	rflight cache.Group
	// lim gates solves: concurrency ceiling (AIMD-adaptive when
	// cfg.Adaptive) plus a deadline-ordered waiting room.
	lim *limiter
	// brk is the memory-pressure circuit breaker; nil when disabled.
	brk *breaker
	// store snapshots cache entries to cfg.StateDir; nil when the cache
	// is memory-only.
	store *diskstore.Store
	// sessions is the graph-session LRU (/v1/graphs) of *session
	// values; nil when sessions are disabled. sessStore persists session
	// snapshots under StateDir/sessions; nil when memory-only.
	sessions  *cache.LRU
	sessStore *diskstore.SessionStore
	// cluster is the shard-group state (ring, peer clients, health
	// poller); nil outside cluster mode.
	cluster *cluster
	start   time.Time
	mux     *http.ServeMux

	queued atomic.Int64

	// drainMu orders the draining flag against the in-flight WaitGroup:
	// handlers take the read side to (check draining, Add) atomically,
	// Shutdown takes the write side to (set draining) before Wait, so
	// Add can never race Wait.
	drainMu  sync.RWMutex
	draining bool
	inflight sync.WaitGroup

	// solve is the solving backend; tests stub it to control timing.
	solve solveFunc
}

// solveFunc runs one partition solve. g is the graph to solve — the
// request's canonical form when cn is non-nil, the submission as-is
// otherwise; cn only selects the cache-key family (label-invariant vs
// label-sensitive). It reports the result, whether the decomposition
// came from the cache, and the decompose/solve phase durations.
type solveFunc func(ctx context.Context, g *graph.Graph, H *hierarchy.Hierarchy, s hgp.Solver, cn *canon.Form) (res *hgp.Result, cacheHit bool, decompose, solve time.Duration, err error)

// New builds a Server. Call Handler to obtain its http.Handler. The
// error is non-nil only when Config.StateDir cannot be prepared (or is
// set with caching disabled); a damaged snapshot inside a healthy
// directory is skipped, never fatal.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		reg:   cfg.Registry,
		lim:   newLimiter(cfg.MaxConcurrent, cfg.MaxQueue, cfg.Adaptive),
		brk:   newBreaker(cfg.MaxHeapBytes, cfg.BreakerCooldown),
		start: time.Now(),
		mux:   http.NewServeMux(),
	}
	if cfg.CacheEntries > 0 {
		s.dec = cache.New(cfg.CacheEntries)
	}
	if cfg.ResultCacheEntries > 0 {
		s.results = cache.New(cfg.ResultCacheEntries)
	}
	if cfg.StateDir != "" {
		if s.dec == nil {
			return nil, fmt.Errorf("server: StateDir requires caching (CacheEntries > 0)")
		}
		store, err := diskstore.Open(cfg.StateDir, cfg.CacheEntries, s.reg)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		s.store = store
		s.warmStart()
		store.StartFlusher(cfg.SnapshotInterval)
	}
	s.reg.Gauge("limiter_ceiling").Set(int64(cfg.MaxConcurrent))
	// Pre-register the portfolio metrics so they appear (at zero) in the
	// Prometheus text and /v1/stats before the first pruned solve runs —
	// scrapers should never see a series pop into existence mid-flight.
	s.reg.Counter("trees_pruned_total")
	s.reg.Counter("portfolio_parallel_solves_total")
	s.reg.Counter("portfolio_sequential_solves_total")
	s.reg.Gauge("portfolio_parallel_trees")
	// Same for the canonicalization series: present at zero from the
	// first scrape, whether or not -canon is set.
	s.reg.Counter("canon_attempts_total")
	s.reg.Counter("canon_ok_total")
	s.reg.Counter("canon_fallback_total")
	s.reg.Counter("canon_hits_total")
	if len(cfg.Peers) > 0 {
		if s.dec == nil {
			return nil, fmt.Errorf("server: cluster mode requires caching (CacheEntries > 0)")
		}
		cl, err := newCluster(cfg)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		s.cluster = cl
		// The internal peer surface exists only in cluster mode: a
		// single-node daemon exposes no routes that replay cache
		// internals.
		s.mux.HandleFunc("GET /v1/peer/decomp/{key}", s.handlePeerDecompGet)
		s.mux.HandleFunc("PUT /v1/peer/decomp/{key}", s.handlePeerDecompPut)
		s.mux.HandleFunc("GET /v1/peer/result/{key}", s.handlePeerResultGet)
		s.mux.HandleFunc("PUT /v1/peer/result/{key}", s.handlePeerResultPut)
		s.mux.HandleFunc("GET /v1/peer/health", s.handlePeerHealth)
		s.mux.HandleFunc("GET /v1/peer/keys", s.handlePeerKeys)
		// The repair loop reads the server's caches, so it starts only
		// after both sides exist.
		cl.startMaintenance(s)
	}
	s.registerSessionMetrics()
	if cfg.MaxSessions > 0 {
		s.sessions = cache.New(cfg.MaxSessions)
		if cfg.StateDir != "" {
			ss, err := diskstore.OpenSessions(filepath.Join(cfg.StateDir, "sessions"))
			if err != nil {
				return nil, fmt.Errorf("server: %w", err)
			}
			s.sessStore = ss
			// Reload persisted sessions (lexicographic ID order). A
			// payload the store validated but the server cannot
			// materialize is dropped and counted alongside the store's
			// own skips.
			skipped, _ := ss.LoadAll(func(id string, payload []byte) {
				if !s.restoreSession(id, payload) {
					_ = ss.Delete(id)
					s.reg.Counter("session_snapshot_errors_total").Inc()
				}
			})
			s.reg.Gauge("session_snapshots_skipped").Set(int64(skipped))
		}
		s.mux.HandleFunc("POST /v1/graphs", s.handleGraphCreate)
		s.mux.HandleFunc("GET /v1/graphs/{id}", s.handleGraphGet)
		s.mux.HandleFunc("DELETE /v1/graphs/{id}", s.handleGraphDelete)
		s.mux.HandleFunc("PATCH /v1/graphs/{id}", s.handleGraphPatch)
		s.mux.HandleFunc("POST /v1/graphs/{id}/partition", s.handleGraphPartition)
	}
	s.solve = s.cachedSolve
	s.mux.HandleFunc("/v1/partition", s.handlePartition)
	s.mux.HandleFunc("/v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s, nil
}

// warmStart loads the snapshot store into the decomposition LRU, oldest
// first so the LRU's recency order matches the snapshot generation's.
// Invalid entries were already skipped (and counted) by the store.
func (s *Server) warmStart() {
	type kv struct {
		key   string
		entry *cache.DecompEntry
	}
	var entries []kv
	if err := s.store.LoadAll(s.cfg.CacheEntries, func(key string, d *treedecomp.Decomposition, perm []int) {
		entries = append(entries, kv{key, &cache.DecompEntry{Dec: d, Perm: perm}})
	}); err != nil {
		return
	}
	for i := len(entries) - 1; i >= 0; i-- {
		s.dec.Add(entries[i].key, entries[i].entry)
	}
	s.reg.Gauge("snapshot_warm_entries").Set(int64(len(entries)))
}

// Handler returns the daemon's http.Handler: the route mux wrapped in
// panic recovery, so a panicking handler produces a 500 (and a
// panics_total tick) instead of killing the connection — and, combined
// with the recover containment inside the solver pools, a panicking
// solve never kills the daemon.
func (s *Server) Handler() http.Handler { return s.recoverPanics(s.mux) }

func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				if rec == http.ErrAbortHandler {
					panic(rec) // net/http's own abort sentinel; not ours to swallow
				}
				s.reg.Counter("panics_total").Inc()
				s.writeError(w, http.StatusInternalServerError, "internal_panic",
					fmt.Sprintf("internal panic: %v", rec))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// Drain flips the daemon into draining mode: /v1/healthz reports
// "draining" (so load balancers stop routing here) and new partition
// requests are refused with 503. In-flight solves continue.
func (s *Server) Drain() {
	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()
}

// Shutdown drains the daemon and blocks until every in-flight solve has
// finished or ctx expires, then flushes and closes the snapshot store
// (staged cache entries survive a graceful restart even when the
// flusher's interval never elapsed). It does not close listeners — pair
// it with http.Server.Shutdown, which stops accepting connections.
func (s *Server) Shutdown(ctx context.Context) error {
	s.Drain()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	var drainErr error
	select {
	case <-done:
	case <-ctx.Done():
		drainErr = fmt.Errorf("server: shutdown: %w", ctx.Err())
	}
	if s.cluster != nil {
		// Stops the health poller and waits out in-flight owner-ward
		// pushes; entries this daemon built still reach their owners.
		s.cluster.close()
	}
	if s.store != nil {
		if err := s.store.Close(); err != nil && drainErr == nil {
			drainErr = err
		}
	}
	return drainErr
}

func (s *Server) isDraining() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	return s.draining
}

// cachedSolve is the production solve backend: look the decomposition
// up in the LRU by canonical key, build (and insert) on a miss —
// coalescing concurrent identical misses into one build via the
// singleflight group — then run the per-tree DPs on it. With a
// canonical form (cn non-nil) the LRU and snapshot store key on the
// label-invariant fingerprint and g is the canonical graph, so
// isomorphic submissions share one entry; the stored DecompEntry
// carries the writing request's permutation as provenance.
func (s *Server) cachedSolve(ctx context.Context, g *graph.Graph, H *hierarchy.Hierarchy, sv hgp.Solver, cn *canon.Form) (*hgp.Result, bool, time.Duration, time.Duration, error) {
	if err := faultinject.Fire(ctx, faultinject.CacheLookup); err != nil {
		return nil, false, 0, 0, err
	}
	opts := sv.DecompOptions()
	var (
		dec       *treedecomp.Decomposition
		cacheHit  bool
		decompDur time.Duration
	)
	if s.dec != nil {
		var key string
		if cn != nil {
			key = cache.DecompKeyCanon(cn.Fingerprint, opts)
		} else {
			key = cache.DecompKey(g, opts)
		}
		if v, ok := s.dec.Get(key); ok {
			dec = v.(*cache.DecompEntry).Dec
			cacheHit = true
			s.reg.Counter("decomp_cache_hits_total").Inc()
		} else {
			s.reg.Counter("decomp_cache_misses_total").Inc()
			t0 := time.Now()
			v, shared, err := s.flight.Do(ctx, key, func() (any, error) {
				// Cluster mode: before paying for a build, walk the
				// key's replicas (rank order, skipping self) for a
				// copy. The fetch sits INSIDE the singleflight closure
				// so a miss storm coalesces into one network round
				// trip, exactly as it coalesces into one build. Any
				// fetch outcome other than a validated hit falls
				// through to the local build — the cluster
				// accelerates, never gates.
				if s.cluster != nil {
					if entry, ok := s.cluster.fetchDecomp(ctx, key); ok {
						s.dec.Add(key, entry)
						if s.store != nil {
							// Persist the fetched entry locally too: a
							// restart of THIS daemon warm-starts with
							// it, and if the owner later dies this
							// daemon serves its keys from disk.
							s.store.Enqueue(key, entry.Dec, entry.Perm)
						}
						markPeerFetch(ctx)
						return entry.Dec, nil
					}
				}
				built, err := treedecomp.BuildContext(ctx, g, opts)
				if err != nil {
					return nil, err
				}
				s.reg.Counter("decomp_builds_total").Inc()
				var perm []int
				if cn != nil {
					perm = cn.Perm
				}
				entry := &cache.DecompEntry{Dec: built, Perm: perm}
				s.dec.Add(key, entry)
				if s.store != nil {
					// Stage for the background flusher: the expensive
					// build outlives this process.
					s.store.Enqueue(key, built, perm)
				}
				if s.cluster != nil {
					// Replicate the freshly built entry to the key's
					// remote replica set in the background (the fan-out
					// skips self, so this is a no-op when this daemon is
					// the sole replica). Without the push, whichever
					// replica routing consults next would rebuild the
					// same decomposition and "one build per key
					// cluster-wide" would not hold; a replica that is
					// down right now gets its copy via repair instead.
					s.cluster.pushDecomp(key, entry)
				}
				return built, nil
			})
			if err != nil {
				return nil, false, 0, 0, err
			}
			decompDur = time.Since(t0)
			dec = v.(*treedecomp.Decomposition)
			if shared {
				s.reg.Counter("decomp_coalesced_total").Inc()
			}
		}
	} else {
		t0 := time.Now()
		built, err := treedecomp.BuildContext(ctx, g, opts)
		if err != nil {
			return nil, false, 0, 0, err
		}
		decompDur = time.Since(t0)
		dec = built
	}

	t0 := time.Now()
	res, err := sv.SolveDecomposition(ctx, g, H, dec)
	if err != nil {
		return nil, cacheHit, decompDur, time.Since(t0), err
	}
	s.publishPortfolioMetrics(res)
	return res, cacheHit, decompDur, time.Since(t0), nil
}

// publishPortfolioMetrics mirrors one completed solve's portfolio
// outcome into the registry (the `portfolio` block of /v1/stats and
// the Prometheus text): how many trees the incumbent bound pruned,
// and whether trees ran concurrently (ParallelTrees > 1) or one at a
// time. Result-cache hits never pass through here — these series count
// real solves only.
func (s *Server) publishPortfolioMetrics(res *hgp.Result) {
	if res.TreesPruned > 0 {
		s.reg.Counter("trees_pruned_total").Add(int64(res.TreesPruned))
	}
	s.reg.Gauge("portfolio_parallel_trees").Set(int64(res.ParallelTrees))
	if res.ParallelTrees > 1 {
		s.reg.Counter("portfolio_parallel_solves_total").Inc()
	} else {
		s.reg.Counter("portfolio_sequential_solves_total").Inc()
	}
}

func (s *Server) uptime() float64 { return time.Since(s.start).Seconds() }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// apiError is the uniform error envelope of every non-2xx response.
// ShedReason is present only on load-shedding responses (429/503/504):
// a machine-readable tag clients can branch on without parsing Error.
type apiError struct {
	Error      string `json:"error"`
	Code       string `json:"code"`
	ShedReason string `json:"shed_reason,omitempty"`
}

func (s *Server) writeError(w http.ResponseWriter, status int, code, msg string) {
	s.reg.Counter(fmt.Sprintf("http_status_%d_total", status)).Inc()
	writeJSON(w, status, apiError{Error: msg, Code: code})
}

// writeShed emits a load-shedding response: the uniform error envelope
// plus shed_reason, a Retry-After hint (whole seconds, rounded up) when
// one is known, and a shed_total{reason=...} tick.
func (s *Server) writeShed(w http.ResponseWriter, status int, code, reason, msg string, retryAfter time.Duration) {
	s.reg.Counter(fmt.Sprintf("shed_total{reason=%q}", reason)).Inc()
	s.reg.Counter(fmt.Sprintf("http_status_%d_total", status)).Inc()
	if retryAfter > 0 {
		secs := int64((retryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeJSON(w, status, apiError{Error: msg, Code: code, ShedReason: reason})
}

// localKeys reports this daemon's cache key inventory for the
// anti-entropy digest exchange: decomposition keys are the union of
// the LRU and the snapshot store (an entry evicted from memory but
// still on disk is servable, so it belongs in the digest), result keys
// come from the memory-only result cache. Slices are always non-nil so
// the JSON body renders arrays, not nulls.
func (s *Server) localKeys() peerKeysView {
	view := peerKeysView{Decomp: []string{}, Result: []string{}}
	seen := map[string]bool{}
	if s.dec != nil {
		for _, k := range s.dec.Keys() {
			seen[k] = true
			view.Decomp = append(view.Decomp, k)
		}
	}
	if s.store != nil {
		for _, k := range s.store.Keys() {
			if !seen[k] {
				view.Decomp = append(view.Decomp, k)
			}
		}
	}
	if s.results != nil {
		view.Result = append(view.Result, s.results.Keys()...)
	}
	return view
}

// hasDecompLocal reports whether this daemon already holds key's
// decomposition in memory or on disk — the repair sweep's "missing?"
// predicate.
func (s *Server) hasDecompLocal(key string) bool {
	if s.dec != nil {
		if _, ok := s.dec.Peek(key); ok {
			return true
		}
	}
	return s.store != nil && s.store.Has(key)
}

// storeDecompLocal lands a repair-pulled decomposition entry exactly
// where an accepted peer push lands one: the LRU and the snapshot
// store.
func (s *Server) storeDecompLocal(key string, v any) {
	entry := v.(*cache.DecompEntry)
	s.dec.Add(key, entry)
	if s.store != nil {
		s.store.Enqueue(key, entry.Dec, entry.Perm)
	}
}

func (s *Server) hasResultLocal(key string) bool {
	if s.results == nil {
		// No result cache: report "have" so repair never pulls what it
		// could not store.
		return true
	}
	_, ok := s.results.Peek(key)
	return ok
}

func (s *Server) storeResultLocal(key string, v any) {
	if s.results != nil {
		s.results.Add(key, v.(*hgp.Result))
	}
}

// ReloadPeers atomically replaces the cluster membership (hgpd calls
// this on SIGHUP or a -peers-file change). Validation failures leave
// the old membership in force; Self must remain a member.
func (s *Server) ReloadPeers(peers []string) error {
	if s.cluster == nil {
		return fmt.Errorf("server: not in cluster mode")
	}
	return s.cluster.reload(peers)
}

// publishBreakerGauges mirrors the breaker into the registry so both
// stats formats see its state transitions as they happen.
func (s *Server) publishBreakerGauges() {
	if s.brk == nil {
		return
	}
	state, trips, _ := s.brk.snapshot()
	s.reg.Gauge("breaker_state").Set(int64(state))
	s.reg.Gauge("breaker_trips").Set(trips)
}
