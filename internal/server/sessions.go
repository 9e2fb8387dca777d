package server

import (
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"hierpart/internal/dynamic"
	"hierpart/internal/faultinject"
	"hierpart/internal/graph"
	"hierpart/internal/hgp"
	"hierpart/internal/hgpt"
	"hierpart/internal/hierarchy"
	"hierpart/internal/instio"
	"hierpart/internal/metrics"
	"hierpart/internal/treedecomp"
)

// Graph sessions: the incremental repartitioning surface.
//
// POST /v1/graphs registers a graph once; PATCH /v1/graphs/{id} applies
// small deltas under optimistic versioning; POST /v1/graphs/{id}/partition
// solves the current version incrementally — decomposition repair
// (treedecomp.Repair) rebuilds only the dirty subtrees, the per-tree DP
// reuses every clean table (hgpt.TableCache), and the new placement is
// reconciled against the previous one (dynamic.Diff) so callers see how
// many tasks actually moved. Any fault on the incremental path degrades
// to a cold solve of the same graph version — never an error, never a
// stale answer — counted by cold_fallbacks_total{reason=...}.

// Cold-fallback reasons. Every session solve is either incremental
// (incremental_solves_total) or cold under exactly one of these.
const (
	// coldFirstSolve: the session has never been solved — there is
	// nothing to repair yet.
	coldFirstSolve = "first_solve"
	// coldRestart: the session was reloaded from a snapshot after a
	// restart; decompositions and warm DP tables are deliberately not
	// persisted, so the first post-restart solve rebuilds them.
	coldRestart = "restart"
	// coldVertexChange: a patch added a vertex. Repair requires a
	// stable vertex set, so the next solve rebuilds from scratch.
	coldVertexChange = "vertex_change"
	// coldRepairFailed: treedecomp.Repair returned an error (including
	// an injected decomp.repair fault) — the decomposition is rebuilt
	// whole and the solve proceeds as if the session were fresh.
	coldRepairFailed = "repair_failed"
	// coldSolveFailed: the DP over the repaired decomposition failed;
	// retried once over a from-scratch decomposition.
	coldSolveFailed = "solve_failed"
)

// coldReasons enumerates the label values above so the stats handler
// and metric pre-registration can render every series at zero before
// the first fallback happens.
var coldReasons = []string{coldFirstSolve, coldRestart, coldVertexChange, coldRepairFailed, coldSolveFailed}

// session is one registered graph and everything its incremental solves
// accumulate: the current decomposition, the per-tree warm DP tables,
// the deltas applied since the decomposition was last repaired, and the
// last placement (the "old" side of the migration diff).
//
// session.mu serializes patches and solves on one session — a
// hgpt.TableCache is owned by one solve at a time, and a solve must see
// a consistent (graph, version, pending) triple. The session LRU's own
// mutex is never held across a solve.
type session struct {
	mu sync.Mutex

	id string
	// Registration-time parameters, immutable afterwards. sv never has
	// TreeCaches set — the solve path attaches the session's caches to
	// a copy. Prune stays off: the incumbent-bounded portfolio makes DP
	// tables timing-dependent, which would break warm-table soundness.
	spec instio.HierarchySpec
	sv   hgp.Solver

	version int64 // bumped by every accepted PATCH; starts at 1
	g       *graph.Graph
	H       *hierarchy.Hierarchy

	dec     *treedecomp.Decomposition // nil until the first solve (or after restart)
	caches  []*hgpt.TableCache        // one per decomposition tree
	pending []treedecomp.Delta        // deltas since dec was produced
	// needCold forces the next solve to rebuild from scratch (reason in
	// coldReason); set by vertex additions and snapshot reloads.
	needCold   bool
	coldReason string

	lastAssign       metrics.Assignment // placement of the last solve, post-diff
	lastSolveVersion int64              // version lastAssign solved; 0 = never
	// lastDPCosts is the per-tree relaxed DP optimum of the last solve
	// over dec (hgp.Result.PerTreeDPCosts). After a reweight-only
	// repair these certify per-tree warm-solve cost ceilings
	// (hgp.WarmBoundsAfterRepair): the bounded DP prunes everything the
	// previous optimum proves unreachable and still returns the exact
	// new optimum. Reset alongside dec; not persisted (the first
	// post-restart solve is cold anyway).
	lastDPCosts   []float64
	lastResp      *GraphPartitionResponse
	lastMaxMig    int // migration knobs lastResp was computed with
	lastMigWeight float64

	// gone flips when the session is evicted or deleted so a solve that
	// raced the eviction does not resurrect the snapshot file.
	gone atomic.Bool
}

// maxLoad is the per-leaf budget the migration diff must respect: the
// same 1+eps the solver itself guarantees.
func (sess *session) maxLoad() float64 {
	eps := sess.sv.Eps
	if eps == 0 {
		eps = 0.5
	}
	return 1 + eps
}

// lookupSession returns the session named by the request path, marking
// it most recently used, or answers 404 and returns nil.
func (s *Server) lookupSession(w http.ResponseWriter, r *http.Request) *session {
	v, _ := s.sessions.Get(r.PathValue("id"))
	sess, ok := v.(*session)
	if !ok {
		s.writeError(w, http.StatusNotFound, "not_found", "no such graph session")
	}
	return sess
}

// addSession stores a new session in the LRU and drops the session it
// evicts, snapshot included.
func (s *Server) addSession(sess *session) {
	if old := s.sessions.Add(sess.id, sess); old != nil {
		s.dropSession(old.(*session), true)
	}
	s.reg.Gauge("sessions_active").Set(int64(s.sessions.Len()))
}

// newSessionID draws 8 random bytes as hex — the session namespace is
// per-daemon and unguessable IDs double as a (weak) handle secret.
func newSessionID() string {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("server: session id entropy: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// sessionSnap is the JSON payload persisted per session (framed and
// committed by diskstore.SessionStore). It carries exactly what a
// restart needs to resume PATCH/solve semantics: the graph, the
// version, the solver parameters, and the last placement. The
// decomposition and warm DP tables are rebuilt by the first
// post-restart solve (a cold fallback, reason "restart").
type sessionSnap struct {
	ID               string               `json:"id"`
	Version          int64                `json:"version"`
	Hierarchy        instio.HierarchySpec `json:"hierarchy"`
	N                int                  `json:"n"`
	Demands          []float64            `json:"demands"`
	Edges            [][3]float64         `json:"edges"`
	Eps              float64              `json:"eps"`
	Trees            int                  `json:"trees"`
	Seed             int64                `json:"seed"`
	FMPasses         int                  `json:"fm_passes"`
	FlowRefine       bool                 `json:"flow_refine"`
	MaxStates        int                  `json:"max_states"`
	LastAssign       []int                `json:"last_assign,omitempty"`
	LastSolveVersion int64                `json:"last_solve_version,omitempty"`
}

// saveSession persists one session's snapshot synchronously (sess.mu
// held by the caller). Persistence is durability, not correctness: a
// failed save is counted and the session keeps serving from memory.
func (s *Server) saveSession(sess *session) {
	if s.sessStore == nil || sess.gone.Load() {
		return
	}
	snap := sessionSnap{
		ID: sess.id, Version: sess.version, Hierarchy: sess.spec,
		N:   sess.g.N(),
		Eps: sess.sv.Eps, Trees: sess.sv.Trees, Seed: sess.sv.Seed,
		FMPasses: sess.sv.FMPasses, FlowRefine: sess.sv.FlowRefine,
		MaxStates:        sess.sv.MaxStates,
		LastAssign:       sess.lastAssign,
		LastSolveVersion: sess.lastSolveVersion,
	}
	for v := 0; v < sess.g.N(); v++ {
		snap.Demands = append(snap.Demands, sess.g.Demand(v))
	}
	for _, e := range sess.g.Edges() {
		snap.Edges = append(snap.Edges, [3]float64{float64(e.U), float64(e.V), e.Weight})
	}
	payload, err := json.Marshal(snap)
	if err == nil {
		err = s.sessStore.Save(sess.id, payload)
	}
	if err != nil {
		s.reg.Counter("session_snapshot_errors_total").Inc()
	}
}

// dropSession finalizes an evicted or deleted session: marks it gone
// (so a racing solve stops persisting it) and removes its snapshot.
func (s *Server) dropSession(sess *session, evicted bool) {
	sess.gone.Store(true)
	if evicted {
		s.reg.Counter("session_evictions_total").Inc()
	}
	if s.sessStore != nil {
		_ = s.sessStore.Delete(sess.id)
	}
}

// restoreSession rebuilds one session from its snapshot payload during
// warm start. Invalid payloads are skipped (counted by the caller);
// restored sessions are cold (needCold, reason "restart") but keep
// their version and last placement, so the first post-restart solve
// still reports migration churn against the pre-restart placement.
// Their max_states is clamped to the current ceiling, as at
// registration.
func (s *Server) restoreSession(id string, payload []byte) bool {
	var snap sessionSnap
	if err := json.Unmarshal(payload, &snap); err != nil || snap.ID != id || snap.Version < 1 {
		return false
	}
	g, H, err := materialize(&instio.Instance{Hierarchy: snap.Hierarchy, N: snap.N, Demands: snap.Demands, Edges: snap.Edges})
	if err != nil {
		return false
	}
	sess := &session{
		id: id, spec: snap.Hierarchy,
		sv: s.solver(hgp.Solver{
			Eps: snap.Eps, Trees: snap.Trees, Seed: snap.Seed,
			FMPasses: snap.FMPasses, FlowRefine: snap.FlowRefine, MaxStates: snap.MaxStates,
		}),
		version: snap.Version, g: g, H: H,
		needCold: true, coldReason: coldRestart,
		lastSolveVersion: snap.LastSolveVersion,
	}
	if len(snap.LastAssign) == g.N() {
		sess.lastAssign = metrics.Assignment(snap.LastAssign)
	} else {
		sess.lastSolveVersion = 0
	}
	s.addSession(sess)
	return true
}

// GraphCreateRequest is the POST /v1/graphs body: the instance to
// register plus the solver parameters every subsequent solve of this
// session will use (fixed at registration so warm DP tables stay valid
// across solves).
type GraphCreateRequest struct {
	instio.Instance
	Eps        float64 `json:"eps,omitempty"`
	Trees      int     `json:"trees,omitempty"`
	Seed       int64   `json:"seed,omitempty"`
	FMPasses   int     `json:"fm_passes,omitempty"`
	FlowRefine bool    `json:"flow_refine,omitempty"`
	MaxStates  int     `json:"max_states,omitempty"`
}

// GraphSessionResponse describes a session: returned by registration
// (201), PATCH (200), and GET (200).
type GraphSessionResponse struct {
	ID      string `json:"id"`
	Version int64  `json:"version"`
	N       int    `json:"n"`
	M       int    `json:"m"`
	// IncrementalReady reports whether the next solve can take the
	// incremental path (a decomposition exists and no patch forced a
	// cold rebuild).
	IncrementalReady bool `json:"incremental_ready"`
	// PendingDeltas counts structural deltas awaiting the next repair.
	PendingDeltas int `json:"pending_deltas"`
	// LastSolveVersion is the version the last solve answered; 0 when
	// the session has never been solved.
	LastSolveVersion int64 `json:"last_solve_version"`
}

func sessionView(sess *session) GraphSessionResponse {
	return GraphSessionResponse{
		ID: sess.id, Version: sess.version,
		N: sess.g.N(), M: sess.g.M(),
		IncrementalReady: sess.dec != nil && !sess.needCold,
		PendingDeltas:    len(sess.pending),
		LastSolveVersion: sess.lastSolveVersion,
	}
}

func (s *Server) handleGraphCreate(w http.ResponseWriter, r *http.Request) {
	if !s.enter(w, drainingMsg) {
		return
	}
	defer s.inflight.Done()
	var req GraphCreateRequest
	if !s.decode(w, r, &req, false) {
		return
	}
	g, H, sv, ok := s.prepare(w, &req.Instance, hgp.Solver{
		Eps: req.Eps, Trees: req.Trees, Seed: req.Seed,
		FMPasses: req.FMPasses, FlowRefine: req.FlowRefine, MaxStates: req.MaxStates,
	}, 0)
	if !ok {
		return
	}
	sess := &session{id: newSessionID(), spec: req.Hierarchy, sv: sv, version: 1, g: g, H: H}
	s.addSession(sess)
	s.reg.Counter("session_registers_total").Inc()
	sess.mu.Lock()
	s.saveSession(sess)
	view := sessionView(sess)
	sess.mu.Unlock()
	writeJSON(w, http.StatusCreated, view)
}

func (s *Server) handleGraphGet(w http.ResponseWriter, r *http.Request) {
	sess := s.lookupSession(w, r)
	if sess == nil {
		return
	}
	sess.mu.Lock()
	view := sessionView(sess)
	sess.mu.Unlock()
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleGraphDelete(w http.ResponseWriter, r *http.Request) {
	v, ok := s.sessions.Remove(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, "not_found", "no such graph session")
		return
	}
	sess := v.(*session)
	s.dropSession(sess, false)
	s.reg.Gauge("sessions_active").Set(int64(s.sessions.Len()))
	writeJSON(w, http.StatusOK, map[string]any{"deleted": true, "id": sess.id})
}

// GraphDelta is one mutation in a PATCH body. Ops: "add_edge" (u, v,
// weight), "remove_edge" (u, v), "reweight_edge" (u, v, weight),
// "reweight_vertex" (u, weight = new demand), "add_vertex" (weight =
// demand; forces the next solve cold), "remove_vertex" (u; implemented
// as detach-and-zero so vertex IDs stay stable and the delta remains
// repairable).
type GraphDelta struct {
	Op     string  `json:"op"`
	U      int     `json:"u"`
	V      int     `json:"v,omitempty"`
	Weight float64 `json:"weight,omitempty"`
}

// GraphPatchRequest is the PATCH /v1/graphs/{id} body. Version must
// equal the session's current version — optimistic concurrency; a
// mismatch is 409 and the session is untouched.
type GraphPatchRequest struct {
	Version int64        `json:"version"`
	Deltas  []GraphDelta `json:"deltas"`
}

// expandDelta translates one wire delta into treedecomp deltas against
// the current scratch graph. add_vertex returns (nil, true, nil): it is
// applied directly and forces a cold rebuild.
func expandDelta(g *graph.Graph, d GraphDelta) ([]treedecomp.Delta, bool, error) {
	switch d.Op {
	case "add_edge":
		return []treedecomp.Delta{{Op: treedecomp.DeltaAddEdge, U: d.U, V: d.V, Weight: d.Weight}}, false, nil
	case "remove_edge":
		return []treedecomp.Delta{{Op: treedecomp.DeltaRemoveEdge, U: d.U, V: d.V}}, false, nil
	case "reweight_edge":
		return []treedecomp.Delta{{Op: treedecomp.DeltaReweightEdge, U: d.U, V: d.V, Weight: d.Weight}}, false, nil
	case "reweight_vertex":
		return []treedecomp.Delta{{Op: treedecomp.DeltaReweightVertex, U: d.U, Weight: d.Weight}}, false, nil
	case "add_vertex":
		if d.Weight < 0 {
			return nil, false, fmt.Errorf("add_vertex: negative demand %g", d.Weight)
		}
		return nil, true, nil
	case "remove_vertex":
		if d.U < 0 || d.U >= g.N() {
			return nil, false, fmt.Errorf("remove_vertex: vertex %d out of range", d.U)
		}
		// Detach-and-zero: drop every incident edge and zero the demand.
		// The vertex ID survives (assignments keep their length, repair
		// keeps its stable leaf set); an isolated zero-demand vertex is
		// placement-neutral.
		var out []treedecomp.Delta
		for _, u := range g.SortedNeighbors(d.U) {
			out = append(out, treedecomp.Delta{Op: treedecomp.DeltaRemoveEdge, U: d.U, V: u})
		}
		out = append(out, treedecomp.Delta{Op: treedecomp.DeltaReweightVertex, U: d.U, Weight: 0})
		return out, false, nil
	default:
		return nil, false, fmt.Errorf("unknown op %q", d.Op)
	}
}

func (s *Server) handleGraphPatch(w http.ResponseWriter, r *http.Request) {
	if !s.enter(w, drainingMsg) {
		return
	}
	defer s.inflight.Done()
	var req GraphPatchRequest
	if !s.decode(w, r, &req, false) {
		return
	}
	if len(req.Deltas) == 0 {
		s.writeError(w, http.StatusBadRequest, "bad_request", "no deltas")
		return
	}
	sess := s.lookupSession(w, r)
	if sess == nil {
		return
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if req.Version != sess.version {
		s.reg.Counter("session_conflicts_total").Inc()
		s.writeError(w, http.StatusConflict, "version_conflict",
			fmt.Sprintf("request targets version %d, session is at version %d", req.Version, sess.version))
		return
	}
	if err := faultinject.Fire(r.Context(), faultinject.SessionPatch); err != nil {
		// An injected (or real) patch fault leaves the session exactly as
		// it was: same version, same graph, snapshot untouched.
		s.writeError(w, http.StatusInternalServerError, "patch_failed", err.Error())
		return
	}

	// All deltas apply to a scratch clone and swap in atomically: a bad
	// delta anywhere in the batch rejects the whole PATCH with the
	// session unchanged.
	scratch := sess.g.Clone()
	var repairDeltas []treedecomp.Delta
	vertexChange := false
	for i, d := range req.Deltas {
		expanded, addVertex, err := expandDelta(scratch, d)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "bad_delta",
				fmt.Sprintf("delta #%d: %v", i, err))
			return
		}
		if addVertex {
			scratch.AddVertex(d.Weight)
			vertexChange = true
			continue
		}
		if err := treedecomp.Apply(scratch, expanded); err != nil {
			s.writeError(w, http.StatusBadRequest, "bad_delta",
				fmt.Sprintf("delta #%d: %v", i, err))
			return
		}
		repairDeltas = append(repairDeltas, expanded...)
	}

	sess.g = scratch
	sess.version++
	if vertexChange {
		sess.needCold = true
		sess.coldReason = coldVertexChange
		sess.pending = nil // repair can't run across a vertex-set change
	} else if !sess.needCold {
		sess.pending = append(sess.pending, repairDeltas...)
	}
	s.reg.Counter("session_patches_total").Inc()
	s.saveSession(sess)
	writeJSON(w, http.StatusOK, sessionView(sess))
}

// GraphPartitionRequest is the optional POST /v1/graphs/{id}/partition
// body. MaxMigration caps how many tasks may change leaves relative to
// the previous placement (0 = unlimited); MigrationWeight charges each
// moved unit of demand against communication-cost gains during the
// reconciliation refinement.
type GraphPartitionRequest struct {
	TimeoutMS       int     `json:"timeout_ms,omitempty"`
	MaxMigration    int     `json:"max_migration,omitempty"`
	MigrationWeight float64 `json:"migration_weight,omitempty"`
}

// GraphPartitionResponse is the session solve's success body.
type GraphPartitionResponse struct {
	GraphID string `json:"graph_id"`
	Version int64  `json:"version"`
	// Assignment places every vertex on a hierarchy leaf; Cost is its
	// Equation (1) objective, Violation the per-level relative capacity
	// violation.
	Assignment []int     `json:"assignment"`
	Cost       float64   `json:"cost"`
	Violation  []float64 `json:"violation"`
	States     int       `json:"states"`
	// Incremental reports that this solve took the repair path:
	// decomposition repaired in place, warm DP tables consulted. When
	// false ColdReason says why the solve ran cold.
	Incremental bool   `json:"incremental"`
	ColdReason  string `json:"cold_reason,omitempty"`
	// Stored marks a replay of the previous solve: the session version
	// has not changed since, so the stored placement is returned without
	// any solving.
	Stored bool `json:"stored,omitempty"`
	// TablesReused / TablesComputed count warm DP table hits vs tables
	// built this solve; DirtyTableFrac = computed / (computed + reused).
	TablesReused   int     `json:"tables_reused"`
	TablesComputed int     `json:"tables_computed"`
	DirtyTableFrac float64 `json:"dirty_table_frac"`
	// RepairReusedFrac is the fraction of decomposition nodes served
	// from the previous generation by the repair (incremental only).
	RepairReusedFrac float64 `json:"repair_reused_frac,omitempty"`
	// WarmBoundedTrees counts trees this solve ran under a certified
	// cost ceiling from the previous solve (reweight-only incremental
	// path); BoundFallbacks counts trees whose ceiling proved too tight
	// and were re-solved unbounded (expected 0 — the certificate is an
	// upper bound by construction).
	WarmBoundedTrees int `json:"warm_bounded_trees,omitempty"`
	BoundFallbacks   int `json:"bound_fallbacks,omitempty"`
	// MovedTasks / MovedDemand measure churn against the previous
	// placement after reconciliation (0 on a first solve).
	MovedTasks  int     `json:"moved_tasks"`
	MovedDemand float64 `json:"moved_demand"`
	// ElapsedMS is wall clock for the whole request; RepairMS covers
	// decomposition repair (or the cold rebuild), SolveMS the DP.
	ElapsedMS float64 `json:"elapsed_ms"`
	RepairMS  float64 `json:"repair_ms"`
	SolveMS   float64 `json:"solve_ms"`
}

// handleGraphPartition solves a session's current version. It runs
// through the same admission as /v1/partition and is gated by the memory
// breaker like a no_degrade request (a session solve has no floor tier):
// 503 breaker_open while the breaker is open, and a half-open session
// solve is the probe.
func (s *Server) handleGraphPartition(w http.ResponseWriter, r *http.Request) {
	if !s.enter(w, drainingMsg) {
		return
	}
	defer s.inflight.Done()
	start := time.Now()
	sess := s.lookupSession(w, r)
	if sess == nil {
		return
	}
	var req GraphPartitionRequest
	if !s.decode(w, r, &req, true) {
		return
	}
	if req.TimeoutMS < 0 || req.MaxMigration < 0 || req.MigrationWeight < 0 {
		s.writeError(w, http.StatusBadRequest, "bad_request", "negative parameter")
		return
	}
	a := s.admit(w, r, start, req.TimeoutMS, true)
	if a == nil {
		return
	}
	defer s.release(a)

	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.gone.Load() {
		s.writeError(w, http.StatusNotFound, "not_found", "graph session was evicted")
		return
	}

	// Stored replay: nothing changed since the last solve and the
	// migration knobs match — return the stored placement verbatim. As
	// a breaker probe it counts as a success.
	if sess.lastResp != nil && sess.lastSolveVersion == sess.version &&
		sess.lastMaxMig == req.MaxMigration && sess.lastMigWeight == req.MigrationWeight {
		s.settle(a, true)
		s.reg.Counter("session_stored_hits_total").Inc()
		resp := *sess.lastResp
		resp.Stored = true
		resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
		resp.RepairMS, resp.SolveMS = 0, 0
		s.reg.Counter("http_status_200_total").Inc()
		writeJSON(w, http.StatusOK, resp)
		return
	}

	resp, err := s.sessionSolve(a.ctx, sess, req)
	s.settle(a, err == nil)
	if err != nil {
		s.writeSolveError(w, a.ctx, start, err)
		return
	}
	resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	sess.lastResp = resp
	sess.lastMaxMig, sess.lastMigWeight = req.MaxMigration, req.MigrationWeight
	s.saveSession(sess)
	s.reg.Counter("http_status_200_total").Inc()
	s.reg.Histogram("request_seconds").Observe(time.Since(start).Seconds())
	writeJSON(w, http.StatusOK, *resp)
}

// sessionSolve runs one solve of the session's current version
// (sess.mu held). The incremental path — repair the decomposition,
// solve with warm tables — degrades to a cold solve on any failure
// that is not a context cancellation; the caller only ever sees an
// error when the cold path itself fails.
func (s *Server) sessionSolve(ctx context.Context, sess *session, req GraphPartitionRequest) (*GraphPartitionResponse, error) {
	sv := sess.sv // copy; TreeCaches attached below

	incremental := sess.dec != nil && !sess.needCold
	coldReason := ""
	if !incremental {
		coldReason = sess.coldReason
		if coldReason == "" {
			coldReason = coldFirstSolve
		}
	}
	var dec *treedecomp.Decomposition
	var rstats *treedecomp.RepairStats
	t0 := time.Now()
	if incremental {
		rep, st, err := treedecomp.Repair(ctx, sess.g, sess.dec, sess.pending, sv.DecompOptions(), sess.version)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			// Mid-repair fault (injected or real): fall back to a cold
			// rebuild of the same graph version. The session's old
			// decomposition is untouched — repair works on copies — so
			// the state stays consistent whatever happens next.
			incremental = false
			coldReason = coldRepairFailed
		} else {
			dec, rstats = rep, st
			// Certified warm bounds: valid only for reweight-only delta
			// batches (WarmBoundsAfterRepair returns nil otherwise), and
			// only against the previous solve's costs over the same
			// decomposition the repair started from.
			sv.WarmBounds = hgp.WarmBoundsAfterRepair(sess.lastDPCosts, sess.H, st)
		}
	}

	// repairDur covers the repair or cold rebuild, solveDur the DP; a
	// cold retry adds its rebuild and DP to each.
	var res *hgp.Result
	var err error
	var repairDur, solveDur time.Duration
	for {
		if !incremental {
			if dec, err = treedecomp.BuildContext(ctx, sess.g, sv.DecompOptions()); err != nil {
				return nil, err
			}
		}
		// The warm table caches live as long as the session; a cold
		// rebuild keeps them — table lookups are content-hashed, so any
		// subtree the rebuild happens to reproduce still hits.
		if len(sess.caches) != len(dec.Trees) {
			sess.caches = make([]*hgpt.TableCache, len(dec.Trees))
			for i := range sess.caches {
				sess.caches[i] = hgpt.NewTableCache()
			}
		}
		sv.TreeCaches = sess.caches
		t1 := time.Now()
		repairDur += t1.Sub(t0)
		res, err = sv.SolveDecomposition(ctx, sess.g, sess.H, dec)
		t0 = time.Now()
		solveDur += t0.Sub(t1)
		if err == nil || ctx.Err() != nil || !incremental {
			break
		}
		// The DP over the repaired decomposition failed: retry cold once.
		// The warm bounds certify the repaired trees, not a rebuild.
		incremental, coldReason, rstats, sv.WarmBounds = false, coldSolveFailed, nil, nil
	}
	if err != nil {
		return nil, err
	}
	// Reconcile against the previous placement: relabel subtrees to
	// maximize stay-put demand (cost-preserving), optionally refine
	// under the migration exchange rate, then cap churn at MaxMigration.
	assignment := res.Assignment
	cost := res.Cost
	violation := res.Violation
	movedTasks, movedDemand := 0, 0.0
	if len(sess.lastAssign) == sess.g.N() {
		dres, derr := dynamic.Diff(sess.g, sess.H, sess.lastAssign, res.Assignment, dynamic.Options{
			MigrationWeight: req.MigrationWeight,
			MaxMoves:        req.MaxMigration,
			MaxLoad:         sess.maxLoad(),
		})
		if derr == nil {
			assignment = dres.Assignment
			cost = dres.Cost
			movedTasks, movedDemand = dres.MovedTasks, dres.MovedDemand
			violation = metrics.Violation(sess.g, sess.H, assignment)
		}
	}

	sess.dec = dec
	sess.pending = nil
	sess.needCold = false
	sess.coldReason = ""
	sess.lastAssign = assignment
	sess.lastSolveVersion = sess.version
	sess.lastDPCosts = res.PerTreeDPCosts

	warmBounded := 0
	for _, u := range sv.WarmBounds {
		if !math.IsInf(u, 0) && !math.IsNaN(u) {
			warmBounded++
		}
	}
	if incremental {
		s.reg.Counter("incremental_solves_total").Inc()
	} else {
		s.reg.Counter(fmt.Sprintf("cold_fallbacks_total{reason=%q}", coldReason)).Inc()
	}
	if warmBounded > 0 {
		s.reg.Counter("warm_bounded_solves_total").Inc()
	}
	s.reg.Counter("bound_fallbacks_total").Add(int64(res.BoundFallbacks))
	s.reg.Counter("dirty_tables_total").Add(int64(res.TablesComputed))
	s.reg.Counter("reused_tables_total").Add(int64(res.TablesReused))

	dirtyFrac := 0.0
	if total := res.TablesComputed + res.TablesReused; total > 0 {
		dirtyFrac = float64(res.TablesComputed) / float64(total)
	}
	resp := &GraphPartitionResponse{
		GraphID: sess.id, Version: sess.version,
		Assignment: assignment, Cost: cost, Violation: violation,
		States:      res.States,
		Incremental: incremental, ColdReason: coldReason,
		TablesReused: res.TablesReused, TablesComputed: res.TablesComputed,
		DirtyTableFrac: dirtyFrac,
		MovedTasks:     movedTasks, MovedDemand: movedDemand,
		WarmBoundedTrees: warmBounded, BoundFallbacks: res.BoundFallbacks,
		RepairMS: float64(repairDur.Microseconds()) / 1000,
		SolveMS:  float64(solveDur.Microseconds()) / 1000,
	}
	if rstats != nil {
		resp.RepairReusedFrac = rstats.ReusedFrac()
	}
	return resp, nil
}

// sessionsBlock is the always-present `sessions` block of /v1/stats.
// With sessions disabled (-max-sessions < 0) only Enabled renders
// false and the counters stay zero, so dashboards key on one shape.
type sessionsBlock struct {
	Enabled                bool             `json:"enabled"`
	Active                 int64            `json:"active"`
	Capacity               int              `json:"capacity"`
	RegistersTotal         int64            `json:"registers_total"`
	PatchesTotal           int64            `json:"patches_total"`
	ConflictsTotal         int64            `json:"conflicts_total"`
	EvictionsTotal         int64            `json:"evictions_total"`
	StoredHitsTotal        int64            `json:"stored_hits_total"`
	IncrementalSolvesTotal int64            `json:"incremental_solves_total"`
	WarmBoundedSolvesTotal int64            `json:"warm_bounded_solves_total"`
	BoundFallbacksTotal    int64            `json:"bound_fallbacks_total"`
	ColdFallbacks          map[string]int64 `json:"cold_fallbacks"`
	DirtyTablesTotal       int64            `json:"dirty_tables_total"`
	ReusedTablesTotal      int64            `json:"reused_tables_total"`
}

func (s *Server) sessionsStats() sessionsBlock {
	b := sessionsBlock{
		Enabled:                s.sessions != nil,
		Active:                 s.reg.Gauge("sessions_active").Value(),
		RegistersTotal:         s.reg.Counter("session_registers_total").Value(),
		PatchesTotal:           s.reg.Counter("session_patches_total").Value(),
		ConflictsTotal:         s.reg.Counter("session_conflicts_total").Value(),
		EvictionsTotal:         s.reg.Counter("session_evictions_total").Value(),
		StoredHitsTotal:        s.reg.Counter("session_stored_hits_total").Value(),
		IncrementalSolvesTotal: s.reg.Counter("incremental_solves_total").Value(),
		WarmBoundedSolvesTotal: s.reg.Counter("warm_bounded_solves_total").Value(),
		BoundFallbacksTotal:    s.reg.Counter("bound_fallbacks_total").Value(),
		ColdFallbacks:          map[string]int64{},
		DirtyTablesTotal:       s.reg.Counter("dirty_tables_total").Value(),
		ReusedTablesTotal:      s.reg.Counter("reused_tables_total").Value(),
	}
	b.Capacity = s.cfg.MaxSessions
	for _, reason := range coldReasons {
		b.ColdFallbacks[reason] = s.reg.Counter(fmt.Sprintf("cold_fallbacks_total{reason=%q}", reason)).Value()
	}
	return b
}

// registerSessionMetrics pre-registers every session series so scrapers
// see them at zero from the first scrape, enabled or not.
func (s *Server) registerSessionMetrics() {
	s.reg.Counter("incremental_solves_total")
	s.reg.Counter("warm_bounded_solves_total")
	s.reg.Counter("bound_fallbacks_total")
	for _, reason := range coldReasons {
		s.reg.Counter(fmt.Sprintf("cold_fallbacks_total{reason=%q}", reason))
	}
	s.reg.Counter("dirty_tables_total")
	s.reg.Counter("reused_tables_total")
	s.reg.Counter("session_registers_total")
	s.reg.Counter("session_patches_total")
	s.reg.Counter("session_conflicts_total")
	s.reg.Counter("session_evictions_total")
	s.reg.Counter("session_stored_hits_total")
	s.reg.Counter("session_snapshot_errors_total")
	s.reg.Gauge("sessions_active")
}
