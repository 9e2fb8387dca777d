package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	rtm "runtime/metrics"
	"sort"
	"sync"
	"time"

	"hierpart/internal/anytime"
	"hierpart/internal/cache"
	"hierpart/internal/canon"
	"hierpart/internal/dynamic"
	"hierpart/internal/graph"
	"hierpart/internal/hgp"
	"hierpart/internal/hgpt"
	"hierpart/internal/hierarchy"
	"hierpart/internal/metrics"
	"hierpart/internal/server"
	"hierpart/internal/treedecomp"
)

// The traced run replays a workload's ops through the public functions
// hgpd's handlers call, in the handlers' order, and records a span
// around each call. Spans live in memory until the run ends; the
// reducer then turns them into per-layer inclusive and self times.

// span is one timed call. Times are nanoseconds since the tracer's
// epoch; parent is the index of the enclosing span, -1 for an op's
// root.
type span struct {
	name       string
	op         int
	parent     int
	start, end int64
}

// tracer records spans. A nil *tracer records nothing, so warm-up
// traffic can run through the same replay code untraced.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(op, parent int, name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, start: now})
	return len(t.spans) - 1
}

func (t *tracer) finish(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

type spanKey struct{}

type spanRef struct{ op, parent int }

func withSpan(ctx context.Context, op, parent int) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{op, parent})
}

func spanFrom(ctx context.Context) spanRef {
	r, _ := ctx.Value(spanKey{}).(spanRef)
	return r
}

// ---------------------------------------------------------------- reducer

// interval is a closed-open time range in nanoseconds.
type interval struct{ lo, hi int64 }

// unionLen is the total length covered by ivs, clipped to [lo, hi).
func unionLen(ivs []interval, lo, hi int64) int64 {
	s := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.lo < lo {
			iv.lo = lo
		}
		if iv.hi > hi {
			iv.hi = hi
		}
		if iv.hi > iv.lo {
			s = append(s, iv)
		}
	}
	sort.Slice(s, func(a, b int) bool { return s[a].lo < s[b].lo })
	var total, curLo, curHi int64
	for i, iv := range s {
		if i == 0 || iv.lo > curHi {
			total += curHi - curLo
			curLo, curHi = iv.lo, iv.hi
		} else if iv.hi > curHi {
			curHi = iv.hi
		}
	}
	return total + curHi - curLo
}

// layerTime is one span name's inclusive and self time, in ns.
type layerTime struct{ incl, self int64 }

// opTime is one op's root span: wall time and the part of it the
// layer spans cover.
type opTime struct{ wall, covered int64 }

// reduce computes, per op, each span name's inclusive and self time (a
// span's duration minus the union of its children's intervals), and
// each op root's wall and covered time.
func reduce(spans []span) (map[int]map[string]*layerTime, map[int]opTime) {
	children := make([][]interval, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], interval{s.start, s.end})
		}
	}
	layers := map[int]map[string]*layerTime{}
	roots := map[int]opTime{}
	for i, s := range spans {
		covered := unionLen(children[i], s.start, s.end)
		dur := s.end - s.start
		if s.parent < 0 {
			roots[s.op] = opTime{wall: dur, covered: covered}
			continue
		}
		m := layers[s.op]
		if m == nil {
			m = map[string]*layerTime{}
			layers[s.op] = m
		}
		lt := m[s.name]
		if lt == nil {
			lt = &layerTime{}
			m[s.name] = lt
		}
		lt.incl += dur
		lt.self += dur - covered
	}
	return layers, roots
}

// ---------------------------------------------------------------- replay

// solveNote is what one hgp.Solver.SolveDecomposition call reported.
type solveNote struct {
	op          int
	solveMS     float64
	res         *hgp.Result
	warmBounded int
	allocBytes  uint64 // session-reweight only: the call runs alone there
}

// sessionNote is what one replayed session op reported.
type sessionNote struct {
	op, k            int
	repairAllocBytes uint64
	reusedFrac       float64
	moved, n         int
}

// replaySession mirrors the daemon's per-session state.
type replaySession struct {
	id         string
	g          *graph.Graph
	H          *hierarchy.Hierarchy
	sv         hgp.Solver
	version    int64
	dec        *treedecomp.Decomposition
	caches     []*hgpt.TableCache
	lastDP     []float64
	lastAssign metrics.Assignment
}

// replayer holds the replay's own copies of the daemon's caches (same
// capacities) and the notes the traced calls leave.
type replayer struct {
	tr        *tracer
	results   *cache.LRU
	decs      *cache.LRU
	maxStates int
	sessions  []*replaySession

	mu      sync.Mutex
	solves  []solveNote
	sessOps []sessionNote
}

const daemonMaxStates = 50_000_000 // the hgpd default request cap

func newReplayer() *replayer {
	return &replayer{
		results:   cache.New(resultCacheCap),
		decs:      cache.New(decompCacheCap),
		maxStates: daemonMaxStates,
	}
}

func allocBytes() uint64 {
	s := []rtm.Sample{{Name: "/gc/heap/allocs:bytes"}}
	rtm.Read(s)
	return s[0].Value.Uint64()
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

func (rp *replayer) noteSolve(n solveNote) {
	rp.mu.Lock()
	rp.solves = append(rp.solves, n)
	rp.mu.Unlock()
}

// encode renders v the way the daemon's writeJSON does.
func encode(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		panic(err) // response structs hold only numbers, strings and slices
	}
	return buf.Bytes()
}

// partition replays POST /v1/partition.
func (rp *replayer) partition(op int, body []byte) outcome {
	start := time.Now()
	root := rp.tr.begin(op, -1, "op")
	code, resp := rp.partitionSpans(op, root, body)
	rp.tr.finish(root)
	return outcome{i: op, status: code, resp: resp, lat: msSince(start)}
}

func (rp *replayer) partitionSpans(op, root int, body []byte) (int, []byte) {
	tr := rp.tr
	sp := tr.begin(op, root, "server.decode")
	var req server.PartitionRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	tr.finish(sp)
	if err != nil {
		return 400, nil
	}

	sp = tr.begin(op, root, "instio.materialize")
	g, H, err := req.Instance.Materialize()
	tr.finish(sp)
	if err != nil {
		return 400, nil
	}
	maxStates := req.MaxStates
	if maxStates == 0 || maxStates > rp.maxStates {
		maxStates = rp.maxStates
	}
	sv := hgp.Solver{
		Eps: req.Eps, Trees: req.Trees, Seed: req.Seed,
		FMPasses: req.FMPasses, FlowRefine: req.FlowRefine, MaxStates: maxStates,
	}

	sp = tr.begin(op, root, "canon.canonicalize")
	cn, ok := canon.Canonicalize(g)
	tr.finish(sp)
	gSolve := g
	if ok {
		gSolve = cn.Graph
	} else {
		cn = nil
	}

	sp = tr.begin(op, root, "cache")
	var rkey string
	if cn != nil {
		rkey = cache.ResultKeyCanon(cn.Fingerprint, H, sv.DecompOptions(), sv.Eps, sv.MaxStates)
	} else {
		rkey = cache.ResultKey(g, H, sv.DecompOptions(), sv.Eps, sv.MaxStates)
	}
	v, hit := rp.results.Get(rkey)
	tr.finish(sp)

	var res *hgp.Result
	var deg *server.DegradationResponse
	if hit {
		res = v.(*hgp.Result)
	} else {
		ctx := withSpan(context.Background(), op, root)
		degraded := false
		if req.NoDegrade {
			if res, err = rp.cachedSolve(ctx, gSolve, H, sv, cn); err != nil {
				return 500, nil
			}
		} else {
			sp = tr.begin(op, root, "anytime.solve")
			out, err := anytime.Solve(withSpan(ctx, op, sp), gSolve, H, anytime.Options{
				Solver: sv,
				SolveDP: func(ctx context.Context, g *graph.Graph, H *hierarchy.Hierarchy, sv hgp.Solver) (*hgp.Result, error) {
					ref := spanFrom(ctx)
					tier, _ := anytime.TierFromContext(ctx)
					tsp := tr.begin(ref.op, ref.parent, "anytime."+tier.String())
					defer tr.finish(tsp)
					return rp.cachedSolve(withSpan(ctx, ref.op, tsp), g, H, sv, cn)
				},
			})
			tr.finish(sp)
			if err != nil {
				return 500, nil
			}
			res = out.Result
			deg = &server.DegradationResponse{
				Tier: out.Tier.String(), Degraded: out.Degraded,
				Partial: res.Partial, TreesDone: res.TreesDone, Tiers: out.Reports[:],
			}
			degraded = out.Degraded || out.Tier != anytime.TierFullDP
		}
		if !degraded && !res.Partial {
			sp = tr.begin(op, root, "cache")
			rp.results.Add(rkey, res)
			tr.finish(sp)
		}
	}

	sp = tr.begin(op, root, "canon.translate")
	assignment := []int(res.Assignment)
	if cn != nil {
		assignment = cn.TranslateAssignment(res.Assignment)
	}
	tr.finish(sp)

	sp = tr.begin(op, root, "server.encode")
	perTree := make([]*float64, len(res.PerTreeCosts))
	for i, c := range res.PerTreeCosts {
		if !math.IsNaN(c) && !math.IsInf(c, 1) {
			c := c
			perTree[i] = &c
		}
	}
	out := encode(server.PartitionResponse{
		Assignment: assignment, Cost: res.Cost, TreeCost: res.TreeCost, TreeIndex: res.TreeIndex,
		PerTreeCosts: perTree, TreesPruned: res.TreesPruned, Violation: res.Violation,
		States: res.States, ResultCacheHit: hit, CanonHit: cn != nil && hit, Degradation: deg,
	})
	tr.finish(sp)
	return 200, out
}

// cachedSolve mirrors the daemon's cache-backed solve backend:
// decomposition LRU lookup, build and insert on a miss, then the
// per-tree DPs.
func (rp *replayer) cachedSolve(ctx context.Context, g *graph.Graph, H *hierarchy.Hierarchy, sv hgp.Solver, cn *canon.Form) (*hgp.Result, error) {
	tr := rp.tr
	ref := spanFrom(ctx)
	opts := sv.DecompOptions()
	sp := tr.begin(ref.op, ref.parent, "cache")
	var key string
	if cn != nil {
		key = cache.DecompKeyCanon(cn.Fingerprint, opts)
	} else {
		key = cache.DecompKey(g, opts)
	}
	v, ok := rp.decs.Get(key)
	tr.finish(sp)
	var dec *treedecomp.Decomposition
	if ok {
		dec = v.(*cache.DecompEntry).Dec
	} else {
		sp = tr.begin(ref.op, ref.parent, "treedecomp.build")
		built, err := treedecomp.BuildContext(ctx, g, opts)
		tr.finish(sp)
		if err != nil {
			return nil, err
		}
		var perm []int
		if cn != nil {
			perm = cn.Perm
		}
		sp = tr.begin(ref.op, ref.parent, "cache")
		rp.decs.Add(key, &cache.DecompEntry{Dec: built, Perm: perm})
		tr.finish(sp)
		dec = built
	}
	sp = tr.begin(ref.op, ref.parent, "hgp.solve")
	t0 := time.Now()
	res, err := sv.SolveDecomposition(ctx, g, H, dec)
	solveMS := msSince(t0)
	tr.finish(sp)
	if err == nil && tr != nil {
		rp.noteSolve(solveNote{op: ref.op, solveMS: solveMS, res: res})
	}
	return res, err
}

// registerSession mirrors POST /v1/graphs plus the session's first
// (cold) solve.
func (rp *replayer) registerSession(body []byte) error {
	var req server.GraphCreateRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return err
	}
	g, H, err := req.Instance.Materialize()
	if err != nil {
		return err
	}
	sess := &replaySession{
		id: "s", g: g, H: H, version: 1,
		sv: hgp.Solver{Eps: req.Eps, Trees: req.Trees, Seed: req.Seed, FMPasses: req.FMPasses,
			FlowRefine: req.FlowRefine, MaxStates: rp.maxStates},
	}
	ctx := context.Background()
	dec, err := treedecomp.BuildContext(ctx, g, sess.sv.DecompOptions())
	if err != nil {
		return err
	}
	sess.caches = make([]*hgpt.TableCache, len(dec.Trees))
	for i := range sess.caches {
		sess.caches[i] = hgpt.NewTableCache()
	}
	sv := sess.sv
	sv.TreeCaches = sess.caches
	res, err := sv.SolveDecomposition(ctx, g, H, dec)
	if err != nil {
		return err
	}
	sess.dec, sess.lastDP, sess.lastAssign = dec, res.PerTreeDPCosts, res.Assignment
	rp.sessions = append(rp.sessions, sess)
	return nil
}

// sessionOp replays PATCH /v1/graphs/{id} followed by
// POST /v1/graphs/{id}/partition on the incremental path.
func (rp *replayer) sessionOp(op, k int, sess *replaySession, body []byte) outcome {
	tr := rp.tr
	start := time.Now()
	root := tr.begin(op, -1, "op")
	defer tr.finish(root)
	o := outcome{i: op, status: 200}
	fail := func(code int) outcome {
		o.status = code
		o.lat = msSince(start)
		return o
	}

	sp := tr.begin(op, root, "server.decode")
	var req server.GraphPatchRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	tr.finish(sp)
	if err != nil {
		return fail(400)
	}

	sp = tr.begin(op, root, "server.patch")
	if req.Version != sess.version {
		tr.finish(sp)
		return fail(409)
	}
	deltas, err := treeDeltas(req.Deltas)
	scratch := sess.g.Clone()
	if err == nil {
		err = treedecomp.Apply(scratch, deltas)
	}
	tr.finish(sp)
	if err != nil {
		return fail(400)
	}
	sess.g = scratch
	sess.version++

	sp = tr.begin(op, root, "server.encode")
	o.patch = encode(server.GraphSessionResponse{
		ID: sess.id, Version: sess.version, N: scratch.N(), M: scratch.M(),
		IncrementalReady: true, PendingDeltas: len(deltas), LastSolveVersion: sess.version - 1,
	})
	tr.finish(sp)

	ctx := context.Background()
	sv := sess.sv
	sp = tr.begin(op, root, "treedecomp.repair")
	a0 := allocBytes()
	rep, st, err := treedecomp.Repair(ctx, sess.g, sess.dec, deltas, sv.DecompOptions(), sess.version)
	repairAlloc := allocBytes() - a0
	tr.finish(sp)
	if err != nil {
		return fail(500)
	}

	sp = tr.begin(op, root, "hgp.bounds")
	sv.WarmBounds = hgp.WarmBoundsAfterRepair(sess.lastDP, sess.H, st)
	tr.finish(sp)
	sv.TreeCaches = sess.caches

	sp = tr.begin(op, root, "hgp.solve")
	a0 = allocBytes()
	t0 := time.Now()
	res, err := sv.SolveDecomposition(ctx, sess.g, sess.H, rep)
	solveMS := msSince(t0)
	solveAlloc := allocBytes() - a0
	tr.finish(sp)
	if err != nil {
		return fail(500)
	}
	warm := 0
	for _, u := range sv.WarmBounds {
		if !math.IsInf(u, 0) && !math.IsNaN(u) {
			warm++
		}
	}

	sp = tr.begin(op, root, "dynamic.diff")
	assignment, cost, violation := res.Assignment, res.Cost, res.Violation
	moved, movedDemand := 0, 0.0
	dres, derr := dynamic.Diff(sess.g, sess.H, sess.lastAssign, res.Assignment, dynamic.Options{MaxLoad: 1 + eps})
	if derr == nil {
		assignment, cost = dres.Assignment, dres.Cost
		moved, movedDemand = dres.MovedTasks, dres.MovedDemand
		violation = metrics.Violation(sess.g, sess.H, assignment)
	}
	tr.finish(sp)
	sess.dec, sess.lastAssign, sess.lastDP = rep, assignment, res.PerTreeDPCosts

	sp = tr.begin(op, root, "server.encode")
	dirty := 0.0
	if total := res.TablesComputed + res.TablesReused; total > 0 {
		dirty = float64(res.TablesComputed) / float64(total)
	}
	o.resp = encode(server.GraphPartitionResponse{
		GraphID: sess.id, Version: sess.version, Assignment: assignment, Cost: cost,
		Violation: violation, States: res.States, Incremental: true,
		TablesReused: res.TablesReused, TablesComputed: res.TablesComputed, DirtyTableFrac: dirty,
		RepairReusedFrac: st.ReusedFrac(), WarmBoundedTrees: warm, BoundFallbacks: res.BoundFallbacks,
		MovedTasks: moved, MovedDemand: movedDemand,
	})
	tr.finish(sp)

	if tr != nil {
		rp.noteSolve(solveNote{op: op, solveMS: solveMS, res: res, warmBounded: warm, allocBytes: solveAlloc})
		rp.mu.Lock()
		rp.sessOps = append(rp.sessOps, sessionNote{op: op, k: k, repairAllocBytes: repairAlloc,
			reusedFrac: st.ReusedFrac(), moved: moved, n: sess.g.N()})
		rp.mu.Unlock()
	}
	o.lat = msSince(start)
	return o
}

// ---------------------------------------------------------------- per-workload replay

// replayable is a workload the traced run can replay without the
// daemon.
type replayable interface {
	replaySetup(rp *replayer) error
	replay(rp *replayer, i int) outcome
}

func (w *coldWorkload) replaySetup(rp *replayer) error {
	for _, b := range append(append([][]byte{}, w.p.fill...), w.p.warm...) {
		if o := rp.partition(-1, b); o.status != 200 {
			return errors.New("cold-ladder replay warm-up failed")
		}
	}
	return nil
}

func (w *coldWorkload) replay(rp *replayer, i int) outcome {
	return rp.partition(i, w.p.ops[i].body)
}

func (w *relabelWorkload) replaySetup(rp *replayer) error {
	w.regCost = make([]float64, len(w.p.tenants))
	for t, tn := range w.p.tenants {
		o := rp.partition(-1, tn.register)
		var resp relabelResp
		if o.status != 200 || json.Unmarshal(o.resp, &resp) != nil {
			return errors.New("relabel-hits replay registration failed")
		}
		w.regCost[t] = resp.Cost
	}
	return nil
}

func (w *relabelWorkload) replay(rp *replayer, i int) outcome {
	return rp.partition(i, w.p.pool[i%len(w.p.pool)].body)
}

func (w *sessionWorkload) replaySetup(rp *replayer) error {
	w.graphs = w.graphs[:0]
	for _, s := range w.p.sessions {
		if err := rp.registerSession(s.register); err != nil {
			return err
		}
		w.graphs = append(w.graphs, s.base.Clone())
	}
	return nil
}

func (w *sessionWorkload) replay(rp *replayer, i int) outcome {
	op := w.p.ops[i]
	return rp.sessionOp(i, op.k, rp.sessions[op.sess], op.body)
}
