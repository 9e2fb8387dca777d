package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"

	"hierpart/internal/graph"
	"hierpart/internal/hierarchy"
	"hierpart/internal/metrics"
	"hierpart/internal/server"
	"hierpart/internal/treedecomp"
)

// workload is one benchmark workload bound to its generated op
// sequence. setup warms a fresh daemon; do runs op i against it;
// check verifies op i's answer (outside the timed window) and folds it
// into the aggregate; integrity says whether the /v1/stats deltas of
// the timed phase still describe the workload.
type workload interface {
	clients() int
	// opLimit is the number of distinct ops; do may be called with any
	// i below it.
	opLimit() int
	hash() string
	setup(h http.Handler) error
	do(h http.Handler, i int) outcome
	check(o *outcome, agg *aggregate) error
	// statelessChecks reports whether check may run concurrently and
	// out of op order.
	statelessChecks() bool
	integrity(d *statsDelta, ops int) []string
}

const (
	eps         = 0.5 // the request default
	theorem5Tol = 1e-9
	costRelTol  = 1e-9
)

// outcome is one op's raw result, kept until it is checked.
type outcome struct {
	i      int
	lat    float64 // ms
	status int     // 200, or the first non-2xx status of the op
	patch  []byte  // session-reweight: the PATCH response
	resp   []byte  // the partition response
}

// aggregate accumulates what the checks extract from answers.
type aggregate struct {
	costSum, rootSum float64 // Σ reported Eq. (1) cost, Σ cm(0)·W
	ladderOps        int
	fullWins         int
	loserMS          float64
	movedTasks, nSum int
	failures         map[string]int
}

func (a *aggregate) merge(b *aggregate) {
	a.costSum += b.costSum
	a.rootSum += b.rootSum
	a.ladderOps += b.ladderOps
	a.fullWins += b.fullWins
	a.loserMS += b.loserMS
	a.movedTasks += b.movedTasks
	a.nSum += b.nSum
	for r, n := range b.failures {
		if a.failures == nil {
			a.failures = map[string]int{}
		}
		a.failures[r] += n
	}
}

func (a *aggregate) fail(reason string) {
	if a.failures == nil {
		a.failures = map[string]int{}
	}
	a.failures[reason]++
}

// respWriter is a minimal in-process http.ResponseWriter.
type respWriter struct {
	hdr  http.Header
	code int
	buf  bytes.Buffer
}

func (w *respWriter) Header() http.Header { return w.hdr }
func (w *respWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}
func (w *respWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.buf.Write(b)
}

// call serves one request through the daemon's handler in-process.
func call(h http.Handler, method, path string, body []byte) (int, []byte) {
	req, err := http.NewRequest(method, path, bytes.NewReader(body))
	if err != nil {
		panic(err) // method and path are constants of this package
	}
	w := &respWriter{hdr: http.Header{}}
	h.ServeHTTP(w, req)
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.code, w.buf.Bytes()
}

func expectOK(h http.Handler, method, path string, body []byte, into any) error {
	code, resp := call(h, method, path, body)
	if code != http.StatusOK && code != http.StatusCreated {
		return fmt.Errorf("%s %s: status %d: %s", method, path, code, resp)
	}
	if into == nil {
		return nil
	}
	return json.Unmarshal(resp, into)
}

// checkPlacement verifies a placement on the submitter's own graph:
// complete and valid, reported cost equal to Eq. (1) recomputed, and
// (for DP-tier answers) every level's violation within the
// (1+ε)(1+h) bound of Theorem 5. It returns the recomputed cost.
func checkPlacement(g *graph.Graph, H *hierarchy.Hierarchy, a metrics.Assignment, reported float64, dpTier bool) (float64, error) {
	if err := a.Validate(g, H); err != nil {
		return 0, errors.New("invalid assignment")
	}
	cost := metrics.CostLCA(g, H, a)
	if math.Abs(cost-reported) > costRelTol*math.Max(1, math.Abs(cost)) {
		return 0, errors.New("cost differs from Eq. (1) recomputed")
	}
	if dpTier {
		limit := (1+eps)*float64(1+H.Height()) + theorem5Tol
		for _, v := range metrics.Violation(g, H, a) {
			if v > limit {
				return 0, errors.New("violation above (1+eps)(1+h)")
			}
		}
	}
	return cost, nil
}

// ---------------------------------------------------------------- cold-ladder

type coldWorkload struct {
	p *coldPlan
	H *hierarchy.Hierarchy
}

func (w *coldWorkload) clients() int          { return 1 }
func (w *coldWorkload) opLimit() int          { return len(w.p.ops) }
func (w *coldWorkload) hash() string          { return w.p.hash }
func (w *coldWorkload) statelessChecks() bool { return true }

func (w *coldWorkload) setup(h http.Handler) error {
	for _, b := range w.p.fill {
		if err := expectOK(h, "POST", "/v1/partition", b, nil); err != nil {
			return err
		}
	}
	for _, b := range w.p.warm {
		if err := expectOK(h, "POST", "/v1/partition", b, nil); err != nil {
			return err
		}
	}
	return nil
}

func (w *coldWorkload) do(h http.Handler, i int) outcome {
	code, resp := call(h, "POST", "/v1/partition", w.p.ops[i].body)
	return outcome{i: i, status: code, resp: resp}
}

func (w *coldWorkload) check(o *outcome, agg *aggregate) error {
	if o.status != http.StatusOK {
		return fmt.Errorf("status %d", o.status)
	}
	var resp server.PartitionResponse
	if err := json.Unmarshal(o.resp, &resp); err != nil {
		return errors.New("undecodable response")
	}
	var req server.PartitionRequest
	if err := json.Unmarshal(w.p.ops[o.i].body, &req); err != nil {
		return err
	}
	g, H, err := req.Instance.Materialize()
	if err != nil {
		return err
	}
	if resp.Degradation == nil {
		return errors.New("ladder response without degradation block")
	}
	tier := resp.Degradation.Tier
	if _, err := checkPlacement(g, H, resp.Assignment, resp.Cost, tier != "baseline"); err != nil {
		return err
	}
	agg.costSum += resp.Cost
	agg.rootSum += H.CM(0) * g.TotalWeight()
	agg.ladderOps++
	if tier == "full_dp" {
		agg.fullWins++
	}
	for _, t := range resp.Degradation.Tiers {
		if t.State != "won" {
			agg.loserMS += t.ElapsedMS
		}
	}
	return nil
}

func (w *coldWorkload) integrity(d *statsDelta, ops int) []string {
	var bad []string
	if d.resultHits != 0 {
		bad = append(bad, fmt.Sprintf("%d result-cache hits", d.resultHits))
	}
	if d.decompHits != 0 {
		bad = append(bad, fmt.Sprintf("%d decomposition-cache hits", d.decompHits))
	}
	return bad
}

// ---------------------------------------------------------------- relabel-hits

type relabelWorkload struct {
	p *relabelPlan
	H *hierarchy.Hierarchy
	// regCost is each tenant's registered full-DP cost; every hit must
	// report it exactly.
	regCost []float64
}

func (w *relabelWorkload) clients() int { return 2 }

// opLimit: ops cycle through the pool, so the sequence never runs out.
func (w *relabelWorkload) opLimit() int          { return math.MaxInt32 }
func (w *relabelWorkload) hash() string          { return w.p.hash }
func (w *relabelWorkload) statelessChecks() bool { return true }

func (w *relabelWorkload) setup(h http.Handler) error {
	w.regCost = make([]float64, len(w.p.tenants))
	for t, tn := range w.p.tenants {
		var resp server.PartitionResponse
		if err := expectOK(h, "POST", "/v1/partition", tn.register, &resp); err != nil {
			return err
		}
		w.regCost[t] = resp.Cost
	}
	return nil
}

func (w *relabelWorkload) do(h http.Handler, i int) outcome {
	code, resp := call(h, "POST", "/v1/partition", w.p.pool[i%len(w.p.pool)].body)
	return outcome{i: i, status: code, resp: resp}
}

// relabelResp is the part of a PartitionResponse the hit check reads.
type relabelResp struct {
	Assignment     []int   `json:"assignment"`
	Cost           float64 `json:"cost"`
	ResultCacheHit bool    `json:"result_cache_hit"`
}

func (w *relabelWorkload) check(o *outcome, agg *aggregate) error {
	if o.status != http.StatusOK {
		return fmt.Errorf("status %d", o.status)
	}
	var resp relabelResp
	if err := json.Unmarshal(o.resp, &resp); err != nil {
		return errors.New("undecodable response")
	}
	op := w.p.pool[o.i%len(w.p.pool)]
	tn := w.p.tenants[op.tenant]
	if len(resp.Assignment) != tn.base.N() {
		return errors.New("invalid assignment")
	}
	// Map the submitter's labels back onto the base graph.
	a := metrics.Assignment(resp.Assignment)
	if op.perm != nil {
		a = make(metrics.Assignment, len(op.perm))
		for v, pv := range op.perm {
			a[v] = resp.Assignment[pv]
		}
	}
	// A result-cache hit replays a complete full-DP answer.
	if _, err := checkPlacement(tn.base, w.H, a, resp.Cost, true); err != nil {
		return err
	}
	if resp.Cost != w.regCost[op.tenant] {
		return errors.New("hit cost differs from the registered answer")
	}
	agg.costSum += resp.Cost
	agg.rootSum += w.H.CM(0) * tn.base.TotalWeight()
	return nil
}

func (w *relabelWorkload) integrity(d *statsDelta, ops int) []string {
	var bad []string
	if d.resultMisses != 0 {
		bad = append(bad, fmt.Sprintf("%d result-cache misses", d.resultMisses))
	}
	if d.canonFallback != 0 {
		bad = append(bad, fmt.Sprintf("%d canon fallbacks", d.canonFallback))
	}
	if d.resultHits != int64(ops) {
		bad = append(bad, fmt.Sprintf("%d result-cache hits for %d ops", d.resultHits, ops))
	}
	return bad
}

// ---------------------------------------------------------------- session-reweight

type sessionWorkload struct {
	p   *sessionPlan
	H   *hierarchy.Hierarchy
	ids []string // daemon session IDs, by session index
	// graphs track each session's current version for the checks; they
	// advance op by op in sequence order.
	graphs []*graph.Graph
}

func (w *sessionWorkload) clients() int { return 1 }
func (w *sessionWorkload) opLimit() int { return len(w.p.ops) }
func (w *sessionWorkload) hash() string { return w.p.hash }

// statelessChecks is false: the checks advance each session's graph op
// by op.
func (w *sessionWorkload) statelessChecks() bool { return false }

func (w *sessionWorkload) setup(h http.Handler) error {
	w.ids = w.ids[:0]
	w.graphs = w.graphs[:0]
	for _, s := range w.p.sessions {
		var view server.GraphSessionResponse
		if err := expectOK(h, "POST", "/v1/graphs", s.register, &view); err != nil {
			return err
		}
		var resp server.GraphPartitionResponse
		if err := expectOK(h, "POST", "/v1/graphs/"+view.ID+"/partition", nil, &resp); err != nil {
			return err
		}
		w.ids = append(w.ids, view.ID)
		w.graphs = append(w.graphs, s.base.Clone())
	}
	return nil
}

func (w *sessionWorkload) do(h http.Handler, i int) outcome {
	op := w.p.ops[i]
	id := w.ids[op.sess]
	code, patch := call(h, "PATCH", "/v1/graphs/"+id, op.body)
	if code != http.StatusOK {
		return outcome{i: i, status: code, patch: patch}
	}
	code, resp := call(h, "POST", "/v1/graphs/"+id+"/partition", nil)
	return outcome{i: i, status: code, patch: patch, resp: resp}
}

func (w *sessionWorkload) check(o *outcome, agg *aggregate) error {
	op := w.p.ops[o.i]
	g := w.graphs[op.sess]
	// The daemon applied the patch only if it answered 200; mirror that
	// before anything else so later ops check against the right graph.
	var view server.GraphSessionResponse
	if err := json.Unmarshal(o.patch, &view); err != nil || view.Version != op.version+1 {
		return fmt.Errorf("patch status %d", o.status)
	}
	deltas, err := treeDeltas(op.deltas)
	if err != nil {
		return err
	}
	if err := treedecomp.Apply(g, deltas); err != nil {
		return err
	}
	if o.status != http.StatusOK {
		return fmt.Errorf("status %d", o.status)
	}
	var resp server.GraphPartitionResponse
	if err := json.Unmarshal(o.resp, &resp); err != nil {
		return errors.New("undecodable response")
	}
	if resp.Version != op.version+1 {
		return errors.New("answer is not for the version just patched")
	}
	if _, err := checkPlacement(g, w.H, resp.Assignment, resp.Cost, true); err != nil {
		return err
	}
	agg.costSum += resp.Cost
	agg.rootSum += w.H.CM(0) * g.TotalWeight()
	agg.movedTasks += resp.MovedTasks
	agg.nSum += g.N()
	return nil
}

func (w *sessionWorkload) integrity(d *statsDelta, ops int) []string {
	var bad []string
	if d.cold != 0 {
		bad = append(bad, fmt.Sprintf("%d cold session solves", d.cold))
	}
	if d.conflicts != 0 {
		bad = append(bad, fmt.Sprintf("%d version conflicts", d.conflicts))
	}
	if d.boundFallbacks != 0 {
		bad = append(bad, fmt.Sprintf("%d bound fallbacks", d.boundFallbacks))
	}
	if d.incremental != int64(ops) {
		bad = append(bad, fmt.Sprintf("%d incremental solves for %d ops", d.incremental, ops))
	}
	return bad
}

// ---------------------------------------------------------------- registry

var workloadNames = []string{"cold-ladder", "relabel-hits", "session-reweight"}

// newWorkload generates the named workload's op sequence from seed.
func newWorkload(name string, seed int64, seconds float64) (workload, error) {
	H := hierarchy.MustNew(hierSpec.Deg, hierSpec.CM)
	switch name {
	case "cold-ladder":
		return &coldWorkload{p: genColdLadder(seed, seconds), H: H}, nil
	case "relabel-hits":
		return &relabelWorkload{p: genRelabelHits(seed), H: H}, nil
	case "session-reweight":
		return &sessionWorkload{p: genSessionReweight(seed, seconds), H: H}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}
