package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"hierpart/internal/cache"
	"hierpart/internal/canon"
	"hierpart/internal/graph"
	"hierpart/internal/hgp"
	"hierpart/internal/hierarchy"
	"hierpart/internal/instio"
)

// The request pipeline shared by the one-shot route (POST /v1/partition)
// and the session routes (/v1/graphs): drain entry, bounded strict
// decoding, instance and parameter validation, admission around the
// solve, and one mapping of solve errors onto responses. Each helper
// writes its own error response and reports whether the request may
// proceed, so every route sheds and fails the same way.

const drainingMsg = "daemon is draining; retry against another instance"

// maxTrees caps a request's trees: the decomposition build allocates
// per-tree state for all of them before its first deadline poll.
const maxTrees = 64

// enter registers a request with the drain bookkeeping, or answers 503
// draining with msg. A true return must be paired with s.inflight.Done.
// The read lock orders the check-and-Add against Shutdown's Wait.
func (s *Server) enter(w http.ResponseWriter, msg string) bool {
	s.drainMu.RLock()
	draining := s.draining
	if !draining {
		s.inflight.Add(1)
	}
	s.drainMu.RUnlock()
	if draining {
		s.writeShed(w, http.StatusServiceUnavailable, "draining", shedDraining, msg, time.Second)
	}
	return !draining
}

// maxBodyBytes bounds every body the daemon reads: a request body, a
// peer's pushed entry, and a peer's fetch response.
const maxBodyBytes = 64 << 20

// decode reads the request body into v: at most maxBodyBytes, strict
// JSON with unknown fields refused. With optional set an empty body
// leaves v at its zero value.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any, optional bool) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil && !(optional && errors.Is(err, io.EOF)) {
		s.writeError(w, http.StatusBadRequest, "bad_request", "invalid JSON: "+err.Error())
		return false
	}
	return true
}

// prepare validates a submitted instance and its solver parameters
// before any queue capacity is spent, so malformed requests never push
// well-formed ones into load shedding: 413 past the size limits, 400
// bad_instance when the instance does not materialize, 400 bad_request
// for a negative parameter or more than maxTrees trees.
func (s *Server) prepare(w http.ResponseWriter, inst *instio.Instance, sv hgp.Solver, timeoutMS int) (*graph.Graph, *hierarchy.Hierarchy, hgp.Solver, bool) {
	if s.tooLarge(w, inst.N, len(inst.Edges)) {
		return nil, nil, sv, false
	}
	g, H, err := materialize(inst)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_instance", err.Error())
		return nil, nil, sv, false
	}
	if sv.Eps < 0 || sv.Trees < 0 || sv.FMPasses < 0 || sv.MaxStates < 0 || timeoutMS < 0 {
		s.writeError(w, http.StatusBadRequest, "bad_request", "negative solver parameter")
		return nil, nil, sv, false
	}
	if sv.Trees > maxTrees {
		s.writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("trees is %d, the limit is %d", sv.Trees, maxTrees))
		return nil, nil, sv, false
	}
	return g, H, s.solver(sv), true
}

// tooLarge answers 413 too_large when a graph of n vertices and m edges
// exceeds the size limits (-max-vertices, -max-edges).
func (s *Server) tooLarge(w http.ResponseWriter, n, m int) bool {
	if n <= s.cfg.MaxVertices && m <= s.cfg.MaxEdges {
		return false
	}
	s.writeError(w, http.StatusRequestEntityTooLarge, "too_large",
		fmt.Sprintf("graph has %d vertices and %d edges, server limits are %d and %d",
			n, m, s.cfg.MaxVertices, s.cfg.MaxEdges))
	return true
}

// materialize builds and validates an instance; a graph without
// vertices is refused too.
func materialize(inst *instio.Instance) (*graph.Graph, *hierarchy.Hierarchy, error) {
	g, H, err := inst.Materialize()
	if err == nil && g.N() == 0 {
		err = errors.New("graph has no vertices")
	}
	return g, H, err
}

// identify returns the request's one cache identity: its canonical form
// when Config.Canon is set and canonicalization succeeds, else its
// labelled form.
func (s *Server) identify(g *graph.Graph) *canon.Form {
	if s.cfg.Canon {
		s.reg.Counter("canon_attempts_total").Inc()
		if f, ok := canon.Canonicalize(g); ok {
			s.reg.Counter("canon_ok_total").Inc()
			return f
		}
		s.reg.Counter("canon_fallback_total").Inc()
	}
	return canon.Labelled(g)
}

// solver finishes a request's solver: Workers is the server's per-solve
// budget, and MaxStates is clamped to the server ceiling (0 asks for the
// ceiling).
func (s *Server) solver(sv hgp.Solver) hgp.Solver {
	if sv.MaxStates == 0 || sv.MaxStates > s.cfg.MaxStates {
		sv.MaxStates = s.cfg.MaxStates
	}
	sv.Workers = s.cfg.SolverWorkers
	return sv
}

// admission is one request's hold on solve capacity: its deadline, the
// memory breaker's verdict, and a solve slot.
type admission struct {
	ctx     context.Context
	cancel  context.CancelFunc
	timeout time.Duration
	mode    admitMode
	probing bool // a half-open probe whose outcome is not yet reported
	granted time.Time
}

// admit takes a solve slot for one request.
//
// The deadline is timeout_ms (0 = the server default) clamped to
// MaxTimeout, and it dies with the client's connection: a dead client
// stops burning the worker budget (the context is threaded through
// treedecomp.BuildContext and the hgpt scheduler), and the limiter
// orders its waiting room by it.
//
// The memory breaker then decides the service mode before any capacity
// is spent. While it is open, a request that needs full service
// (noDegrade) is shed with 503 breaker_open; any other request gets
// modeFloor and must be served by the ladder's floor rung. Half-open, one
// request at a time runs as the full-service probe.
//
// Last, the deadline-ordered waiting room grants a slot or sheds the
// request (429 queue_full, 504 deadline_expired). On a shed admit writes
// the response and returns nil; otherwise the caller defers s.release.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, start time.Time, timeoutMS int, noDegrade bool) *admission {
	a := &admission{timeout: s.cfg.DefaultTimeout}
	if timeoutMS > 0 {
		a.timeout = time.Duration(timeoutMS) * time.Millisecond
	}
	if a.timeout > s.cfg.MaxTimeout {
		a.timeout = s.cfg.MaxTimeout
	}
	a.ctx, a.cancel = context.WithTimeout(r.Context(), a.timeout)

	a.mode = s.brk.admit()
	s.publishBreakerGauges()
	a.probing = a.mode == modeProbe
	if a.mode == modeFloor && noDegrade {
		_, _, retry := s.brk.snapshot()
		s.writeShed(w, http.StatusServiceUnavailable, "breaker_open", shedBreakerOpen,
			"memory pressure: full-service requests are shed while the breaker is open", retry)
		a.cancel()
		return nil
	}

	// The queue gauge counts admitted requests, waiting or running.
	s.reg.Gauge("queue_depth").Set(s.queued.Add(1))
	err := s.lim.acquire(a.ctx)
	if err == nil {
		a.granted = time.Now()
		return a
	}
	s.reg.Gauge("queue_depth").Set(s.queued.Add(-1))
	// A probe shed before its solve must still settle, or the half-open
	// slot leaks and the breaker can never close.
	s.settle(a, false)
	switch {
	case errors.Is(err, errQueueFull):
		s.reg.Counter("queue_rejections_total").Inc()
		_, inUse, waiting := s.lim.snapshot()
		s.writeShed(w, http.StatusTooManyRequests, "queue_full", shedQueueFull,
			fmt.Sprintf("admission queue full (%d running + %d waiting)", inUse, waiting), time.Second)
	case errors.Is(err, errShedExpired):
		s.reg.Counter("partition_errors_total").Inc()
		s.reg.Counter("deadline_timeouts_total").Inc()
		s.writeShed(w, http.StatusGatewayTimeout, "deadline_exceeded", shedDeadlineExpired,
			fmt.Sprintf("deadline expired in the waiting room after %s; no solve slot was occupied",
				time.Since(start).Round(time.Millisecond)), 0)
	default:
		s.finishTimeout(w, a.ctx, start, "while queued for a solve slot")
	}
	a.cancel()
	return nil
}

// release gives the solve slot back, feeds its hold time to the AIMD
// limiter, settles a probe that never reported as a failure, and
// cancels the deadline.
func (s *Server) release(a *admission) {
	s.lim.release()
	s.lim.observe(time.Since(a.granted), a.timeout, errors.Is(a.ctx.Err(), context.DeadlineExceeded))
	ceiling, _, _ := s.lim.snapshot()
	s.reg.Gauge("limiter_ceiling").Set(int64(ceiling))
	s.reg.Gauge("queue_depth").Set(s.queued.Add(-1))
	s.settle(a, false)
	a.cancel()
}

// settle reports a half-open probe's outcome once; later calls are
// no-ops. A successful full-service request, with the heap back under
// the ceiling, closes the breaker; anything else re-opens it and
// restarts the cooldown.
func (s *Server) settle(a *admission, ok bool) {
	if !a.probing {
		return
	}
	a.probing = false
	s.brk.probeDone(ok)
	s.publishBreakerGauges()
}

// writeSolveError answers a failed solve. A context failure is 504 or
// 499 (finishTimeout). Anything else counts in partition_errors_total:
// 422 for an exhausted DP state budget, 500 solver_panic for a panic
// the solver pools contained into an error (one bad tree degrades, all
// trees failing surfaces here; panics_total makes it observable), and
// 500 solve_failed otherwise — including a waiter whose coalesced
// solve panicked, since the panicking request counts that panic.
func (s *Server) writeSolveError(w http.ResponseWriter, ctx context.Context, start time.Time, err error) {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		s.finishTimeout(w, ctx, start, "during the solve")
		return
	}
	s.reg.Counter("partition_errors_total").Inc()
	switch {
	case strings.Contains(err.Error(), "state budget exceeded"):
		s.writeError(w, http.StatusUnprocessableEntity, "state_budget_exceeded", err.Error())
	case errors.Is(err, cache.ErrBuildPanicked):
		s.writeError(w, http.StatusInternalServerError, "solve_failed", err.Error())
	case strings.Contains(err.Error(), "panic"):
		s.reg.Counter("panics_total").Inc()
		s.writeError(w, http.StatusInternalServerError, "solver_panic", err.Error())
	default:
		s.writeError(w, http.StatusInternalServerError, "solve_failed", err.Error())
	}
}

// finishTimeout classifies a context failure: a tripped per-request
// deadline is 504 (the daemon gave up inside its budget), a client that
// went away gets a best-effort 499-style close (the response will not
// be read anyway).
func (s *Server) finishTimeout(w http.ResponseWriter, ctx context.Context, start time.Time, where string) {
	s.reg.Counter("partition_errors_total").Inc()
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		s.reg.Counter("deadline_timeouts_total").Inc()
		s.writeError(w, http.StatusGatewayTimeout, "deadline_exceeded",
			fmt.Sprintf("deadline expired %s after %s", where, time.Since(start).Round(time.Millisecond)))
		return
	}
	s.reg.Counter("client_cancelled_total").Inc()
	s.writeError(w, 499, "client_closed_request", "client went away "+where)
}
