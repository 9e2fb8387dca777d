package server

import (
	"context"
	"fmt"
	"math/rand"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"hierpart/internal/cache"
	"hierpart/internal/cache/diskstore"
	"hierpart/internal/faultinject"
	"hierpart/internal/hgp"
	"hierpart/internal/telemetry"
)

// cluster is the daemon's view of its shard group: the HRW ring that
// ranks every cache key's replica set, a peerClient per remote peer,
// a health table holding each peer's one routability verdict (written
// by the health poller and by failed peer calls, see call), and the
// replica-ward push machinery that keeps "exactly one build per key
// cluster-wide" true even when a non-replica is the first to see a key.
//
// Replication (R = cfg.Replication, default 1) generalizes PR-era
// single ownership: each key's home is its top-R HRW peers in rank
// order. Fetches walk the replicas rank by rank and succeed if any one
// is alive; pushes fan out to every routable remote replica. Two
// healing mechanisms close the gaps replication alone leaves:
//
//   - anti-entropy repair: a sweep exchanges key digests over
//     GET /v1/peer/keys and pulls entries this daemon should replicate
//     but lacks — the one path that restocks a replica after a missed
//     push, a partition, a restart, or a membership change. It runs
//     once at startup, whenever the health poller sees a peer recover,
//     and on its interval (entries are content-addressed and
//     immutable, so repair is conflict-free by construction);
//   - dynamic membership: reload atomically swaps in a new ring
//     (SIGHUP / -peers-file in hgpd), keeping surviving peers'
//     clients and health verdicts, and kicks a repair sweep to warm
//     the new replica sets — HRW's minimal-movement property bounds
//     the churn.
//
// Failure philosophy: the cluster is an accelerator, never a
// dependency. Every fetch outcome except a hit falls back to the local
// solve path (singleflight and degradation ladder intact), and every
// push failure costs only a warm-cache opportunity until repair
// delivers it. A daemon whose whole peer group is dead serves exactly
// like a single-node daemon.
type cluster struct {
	self string
	rep  int // replication factor R; owners() clamps it to ring size
	reg  *telemetry.Registry

	// cfg retains the knobs needed to construct peer clients for
	// members that join via reload.
	cfg Config

	pollInterval   time.Duration
	repairInterval time.Duration

	// srv is the owning server, set by startMaintenance before the
	// repair loop runs: the sweep needs the local caches to answer "do
	// I already hold this key?" and to store pulled entries.
	srv *Server

	mu sync.Mutex
	// ring and clients are swapped together under mu by reload; the
	// ring itself stays immutable. health is each remote peer's one
	// verdict — peers start routable (optimistic): a freshly started or
	// freshly added peer should receive fetches immediately, and a dead
	// one is demoted by its first failed poll or its first failed call,
	// whichever comes first. Only a clean poll restores it.
	ring    *ring
	clients map[string]*peerClient // keyed by peer base URL; self excluded
	health  map[string]bool

	repairKick chan struct{}

	stopOnce sync.Once
	stop     chan struct{}
	loopWG   sync.WaitGroup
	pushWG   sync.WaitGroup
}

// validateMembership checks a peer list the way newCluster always has:
// a usable ring, self present, every entry an http(s) base URL. It is
// shared with reload so a bad SIGHUP is rejected atomically — the old
// membership stays in force.
func validateMembership(peers []string, self string) (*ring, error) {
	r, err := newRing(peers)
	if err != nil {
		return nil, err
	}
	if self == "" {
		return nil, fmt.Errorf("cluster: Self is required when Peers is set")
	}
	selfInRing := false
	for _, p := range r.members() {
		if p == self {
			selfInRing = true
			break
		}
	}
	if !selfInRing {
		return nil, fmt.Errorf("cluster: Self %q is not in the peer list", self)
	}
	// A peer entry without an http(s) scheme would fail every health
	// poll and fetch with "unsupported protocol scheme" — a cluster
	// that looks up but sheds every key to local solves forever.
	// Reject it at startup instead of degrading silently.
	for _, p := range r.members() {
		u, err := url.Parse(p)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("cluster: peer %q is not an http(s) base URL (want e.g. http://host:port)", p)
		}
	}
	return r, nil
}

func newCluster(cfg Config) (*cluster, error) {
	r, err := validateMembership(cfg.Peers, cfg.Self)
	if err != nil {
		return nil, err
	}
	c := &cluster{
		self:           cfg.Self,
		rep:            cfg.Replication,
		reg:            cfg.Registry,
		cfg:            cfg,
		pollInterval:   cfg.PeerHealthInterval,
		repairInterval: cfg.RepairInterval,
		ring:           r,
		clients:        map[string]*peerClient{},
		health:         map[string]bool{},
		repairKick:     make(chan struct{}, 1),
		stop:           make(chan struct{}),
	}
	if c.rep < 1 {
		c.rep = 1
	}
	for _, p := range r.members() {
		if p == c.self {
			continue
		}
		c.clients[p] = c.newClient(p)
		c.health[p] = true
		c.reg.Gauge(telemetry.Series("peer_healthy", "peer", p)).Set(1)
	}
	// Pre-register the full outcome families at zero: scrapers should
	// never see a series pop into existence mid-flight.
	for _, o := range fetchOutcomes {
		c.reg.Counter(telemetry.Series("peer_fetch_total", "outcome", string(o)))
	}
	c.reg.Counter(telemetry.Series("peer_push_total", "outcome", "ok"))
	c.reg.Counter(telemetry.Series("peer_push_total", "outcome", "error"))
	c.reg.Gauge("peer_push_inflight")
	c.reg.Counter("peer_auth_failures_total")
	c.reg.Counter("repair_sweeps_total")
	c.reg.Counter("repair_pulled_total")
	c.reg.Counter("repair_pull_errors_total")
	c.reg.Counter("membership_reloads_total")
	c.reg.Gauge("cluster_peers").Set(int64(len(r.members())))
	authed := int64(0)
	if cfg.PeerSecret != "" {
		authed = 1
	}
	c.reg.Gauge("peer_auth_enabled").Set(authed)
	c.loopWG.Add(1)
	go c.pollLoop()
	return c, nil
}

// newClient builds the peerClient for one remote peer from the knobs
// the cluster was configured with — shared by startup and reload.
func (c *cluster) newClient(peer string) *peerClient {
	return newPeerClient(peer, c.cfg.PeerTimeout, c.cfg.PeerSecret)
}

// startMaintenance wires the cluster to its owning server and starts
// the anti-entropy repair loop. It is separate from newCluster because
// the loop reads the server's caches, which do not exist yet when the
// cluster is constructed.
func (c *cluster) startMaintenance(s *Server) {
	c.srv = s
	c.loopWG.Add(1)
	go c.repairLoop()
}

// close stops the background loops and waits for in-flight pushes — a
// graceful shutdown must not abandon goroutines mid-PUT.
func (c *cluster) close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.loopWG.Wait()
	c.pushWG.Wait()
}

// snapshotRing returns the current (immutable) ring.
func (c *cluster) snapshotRing() *ring {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring
}

// client returns the peerClient for peer, nil for self or a peer that
// left the ring.
func (c *cluster) client(peer string) *peerClient {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.clients[peer]
}

// ownerOf returns the full-ring primary owner of key — replica rank 0.
func (c *cluster) ownerOf(key string) string { return c.snapshotRing().owner(key) }

// replicasOf returns key's replica set in rank order: the top-R HRW
// peers (R clamped to the ring size). Rank 0 is the primary.
func (c *cluster) replicasOf(key string) []string {
	return c.snapshotRing().owners(key, c.rep)
}

// owned reports whether this daemon is one of key's replicas — the
// peers whose caches and snapshot stores are the cluster-wide home for
// it. With R=1 this reduces to "is the single owner", the pre-
// replication behavior.
func (c *cluster) owned(key string) bool {
	for _, p := range c.replicasOf(key) {
		if p == c.self {
			return true
		}
	}
	return false
}

func (c *cluster) countFetch(o fetchOutcome) {
	c.reg.Counter(telemetry.Series("peer_fetch_total", "outcome", string(o))).Inc()
}

// peerRetryPause is the base of the one pause between a call's two
// attempts, jittered to [0.5, 1.5)× — 25–75 ms. Jitter decorrelates
// the retries of calls that failed at the same instant: a daemon kill
// makes every in-flight call fail together.
const peerRetryPause = 50 * time.Millisecond

// call runs one peer call — a fetch, a push or a repair pull — as at
// most two attempts, and keeps the health table's verdict on peer.
// attempt reports whether the peer failed it and whether another
// attempt may go better; the retry waits out one jittered pause and is
// skipped if the peer has been demoted in the meantime. A call whose
// attempts all failed demotes the peer until a clean poll restores it.
// A call cut short by the caller's own context (client gone, request
// deadline) is not the peer's fault: it neither retries nor demotes.
// call reports whether the peer failed the call.
func (c *cluster) call(ctx context.Context, peer string, attempt func() (failed, retryable bool)) bool {
	failed, retryable := attempt()
	if failed && retryable && ctx.Err() == nil {
		t := time.NewTimer(time.Duration(float64(peerRetryPause) * (0.5 + rand.Float64())))
		select {
		case <-t.C:
			if c.routable(peer) {
				failed, _ = attempt()
			}
		case <-ctx.Done():
			t.Stop()
		}
	}
	if failed && ctx.Err() == nil {
		c.setRoutable(peer, false)
	}
	return failed
}

// fetch runs one fetch of path from peer through call and returns the
// last attempt's value and outcome. hit and miss are answers; every
// other outcome is the peer's failure.
func (c *cluster) fetch(ctx context.Context, peer string, pc *peerClient, path string, decode func([]byte) (any, error)) (val any, outcome fetchOutcome) {
	c.call(ctx, peer, func() (bool, bool) {
		var retryable bool
		val, outcome, retryable = pc.fetch(ctx, path, decode)
		return outcome != outcomeHit && outcome != outcomeMiss, retryable
	})
	return val, outcome
}

// fetchFrom walks key's replicas in rank order and fetches path from
// the first routable one that answers with a validated entry, running
// decode (the entry-layer parser) inside the client's outcome
// classification — one peer_fetch_total row per peer attempted. Any
// non-hit outcome walks on to the next replica: a definitive miss on
// one replica says nothing about the others (pushes or repair may not
// have converged yet), and an error is exactly the node-loss case
// replication exists for. A nil
// return means "solve locally" — the caller never needs to distinguish
// why. With R=1 the walk visits at most the single owner, the pre-
// replication behavior.
func (c *cluster) fetchFrom(ctx context.Context, key, path string, decode func([]byte) (any, error)) any {
	for _, peer := range c.replicasOf(key) {
		if peer == c.self {
			continue
		}
		pc := c.client(peer)
		if pc == nil {
			continue
		}
		if !c.routable(peer) {
			c.countFetch(outcomePeerUnhealthy)
			continue
		}
		val, outcome := c.fetch(ctx, peer, pc, path, decode)
		c.countFetch(outcome)
		if outcome == outcomeHit {
			return val
		}
	}
	return nil
}

// fetchDecomp asks key's replicas for its decomposition entry. ok is
// true only when a validated entry arrived; every other outcome (miss,
// error, corruption — frame or entry layer — version skew, unhealthy
// replicas) is a silent fallback to the local build.
func (c *cluster) fetchDecomp(ctx context.Context, key string) (*cache.DecompEntry, bool) {
	v := c.fetchFrom(ctx, key, peerPath(peerKindDecomp, key), decodeDecompPayload)
	if v == nil {
		return nil, false
	}
	return v.(*cache.DecompEntry), true
}

// fetchResult asks key's replicas for a full solve result. A partial
// result is rejected at decode — pushers never send one (the result
// cache holds only complete full-pipeline results), so its appearance
// on the wire is corruption or hostility, and accepting it would let
// the local result cache replay a degraded answer as a full one.
func (c *cluster) fetchResult(ctx context.Context, key string) (*hgp.Result, bool) {
	v := c.fetchFrom(ctx, key, peerPath(peerKindResult, key), decodeResultPayload)
	if v == nil {
		return nil, false
	}
	return v.(*hgp.Result), true
}

// peerKindDecomp and peerKindResult name the two entry kinds the
// /v1/peer data surface carries.
const (
	peerKindDecomp = "decomp"
	peerKindResult = "result"
)

func peerPath(kind, key string) string { return "/v1/peer/" + kind + "/" + key }

// decodeDecompPayload and decodeResultPayload are the entry-layer
// parsers shared by the request-path fetches and the repair sweep.
func decodeDecompPayload(payload []byte) (any, error) {
	dec, perm, err := diskstore.DecodeDecompEntry(payload)
	if err != nil {
		return nil, err
	}
	return &cache.DecompEntry{Dec: dec, Perm: perm}, nil
}

func decodeResultPayload(payload []byte) (any, error) {
	res, err := diskstore.DecodeResult(payload)
	if err != nil {
		return nil, err
	}
	if res.Partial {
		return nil, fmt.Errorf("partial result on the peer wire")
	}
	return res, nil
}

// pushTo PUTs a framed body to every routable remote replica of key in
// the background. The peer_push_inflight gauge is incremented
// synchronously — before this function returns — so a caller (or test)
// that polls the gauge to zero after issuing requests has a race-free
// "all pushes settled" barrier. A replica that is unroutable at routing
// time is skipped, and one whose push fails (and is demoted, see call)
// is counted in peer_push_total{outcome="error"}; either way the
// replica pulls the entry on its next repair sweep.
func (c *cluster) pushTo(kind, key string, payload []byte) {
	body := diskstore.WrapWire(payload)
	for _, peer := range c.replicasOf(key) {
		if peer == c.self {
			continue
		}
		pc := c.client(peer)
		if pc == nil || !c.routable(peer) {
			continue
		}
		c.reg.Gauge("peer_push_inflight").Add(1)
		c.pushWG.Add(1)
		go func(peer string, pc *peerClient) {
			defer c.pushWG.Done()
			defer c.reg.Gauge("peer_push_inflight").Add(-1)
			ctx := context.Background()
			outcome := "ok"
			if c.call(ctx, peer, func() (bool, bool) {
				ok, retryable := pc.push(ctx, peerPath(kind, key), body)
				return !ok, retryable
			}) {
				outcome = "error"
			}
			c.reg.Counter(telemetry.Series("peer_push_total", "outcome", outcome)).Inc()
		}(peer, pc)
	}
}

// pushDecomp replicates a locally built decomposition entry to key's
// remote replicas, so the build this daemon just paid for becomes the
// cluster-wide copy instead of being rebuilt wherever routing looks
// for it next.
func (c *cluster) pushDecomp(key string, entry *cache.DecompEntry) {
	c.pushTo(peerKindDecomp, key, diskstore.EncodeDecompEntry(entry.Dec, entry.Perm))
}

// pushResult replicates a full-quality solve result to key's remote
// replicas.
func (c *cluster) pushResult(key string, res *hgp.Result) {
	c.pushTo(peerKindResult, key, diskstore.EncodeResult(res))
}

// repairMaxPulls bounds one anti-entropy sweep: the sweep is a low-rate
// background healer, not a bulk transfer — a freshly blanked replica
// converges over a few sweeps instead of saturating its peers in one.
const repairMaxPulls = 64

// repairLoop runs the anti-entropy sweep once at startup (a restarted
// replica pulls what it missed while down), then on its interval, plus
// immediately when kicked: by a membership reload (the sweep doubles
// as the rebalancer that warms newly acquired replica sets) or by the
// health poller seeing a peer recover (a healed partition).
func (c *cluster) repairLoop() {
	defer c.loopWG.Done()
	t := time.NewTicker(c.repairInterval)
	defer t.Stop()
	for {
		c.repairSweep()
		select {
		case <-c.stop:
			return
		case <-t.C:
		case <-c.repairKick:
		}
	}
}

// kickRepair asks the repair loop for a sweep now; a kick already
// pending absorbs this one.
func (c *cluster) kickRepair() {
	select {
	case c.repairKick <- struct{}{}:
	default:
	}
}

// repairSweep exchanges key digests with every routable remote peer
// (GET /v1/peer/keys — cache keys ARE SHA-256 digests, so the key list
// is the digest list) and pulls entries this daemon should replicate
// but lacks. Pulled bodies run the same frame + entry validation as
// request-path fetches; a rejected body counts as a pull error and the
// key is retried on a later sweep against whichever replica still
// lists it. The per-sweep pull cap keeps the sweep low-rate; remaining
// gaps heal on subsequent sweeps.
func (c *cluster) repairSweep() {
	c.reg.Counter("repair_sweeps_total").Inc()
	pulled := 0
	for _, peer := range c.snapshotRing().members() {
		if peer == c.self || pulled >= repairMaxPulls {
			continue
		}
		pc := c.client(peer)
		if pc == nil || !c.routable(peer) {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), c.cfg.PeerTimeout)
		view, err := pc.keys(ctx)
		cancel()
		if err != nil {
			c.reg.Counter("repair_pull_errors_total").Inc()
			continue
		}
		pulled += c.repairPull(peer, pc, peerKindDecomp, view.Decomp, repairMaxPulls-pulled)
		pulled += c.repairPull(peer, pc, peerKindResult, view.Result, repairMaxPulls-pulled)
	}
}

// repairPull pulls up to budget missing entries of one kind from one
// peer, returning how many landed. It stops once the peer is demoted
// (by a failed pull or by the poller): the rest of its list waits for
// a later sweep instead of grinding against a struggling peer.
func (c *cluster) repairPull(peer string, pc *peerClient, kind string, keys []string, budget int) int {
	decode, have, store := decodeDecompPayload, c.srv.hasDecompLocal, c.srv.storeDecompLocal
	if kind == peerKindResult {
		decode, have, store = decodeResultPayload, c.srv.hasResultLocal, c.srv.storeResultLocal
	}
	pulled := 0
	for _, key := range keys {
		if pulled >= budget || !c.routable(peer) {
			break
		}
		select {
		case <-c.stop:
			return pulled
		default:
		}
		// A peer's key list is unvalidated input: bound what a corrupt
		// or hostile listing can make this daemon do.
		if !validPeerKey(key) {
			continue
		}
		if !c.owned(key) || have(key) {
			continue
		}
		if err := faultinject.Fire(nil, faultinject.RepairPull); err != nil {
			c.reg.Counter("repair_pull_errors_total").Inc()
			continue
		}
		val, outcome := c.fetch(context.Background(), peer, pc, peerPath(kind, key), decode)
		if outcome != outcomeHit {
			c.reg.Counter("repair_pull_errors_total").Inc()
			continue
		}
		store(key, val)
		c.reg.Counter("repair_pulled_total").Inc()
		pulled++
	}
	return pulled
}

// reload atomically replaces the cluster membership: validation first
// (a bad list leaves the old membership untouched), then the ring and
// client set swap under one lock acquisition. Clients and health
// verdicts of surviving peers are kept — they describe the peer, not
// the membership epoch — new peers start optimistically
// routable exactly like startup, and removed peers' clients, health
// verdicts, and gauges are dropped. A repair sweep is kicked so newly
// acquired replica sets warm without waiting for the next interval;
// HRW's minimal-movement property bounds how much there is to warm.
func (c *cluster) reload(peers []string) error {
	r, err := validateMembership(peers, c.self)
	if err != nil {
		return err
	}
	var added, removed []string
	c.mu.Lock()
	old := c.clients
	clients := make(map[string]*peerClient, len(r.members()))
	for _, p := range r.members() {
		if p == c.self {
			continue
		}
		if pc, ok := old[p]; ok {
			clients[p] = pc
			continue
		}
		clients[p] = c.newClient(p)
		c.health[p] = true
		added = append(added, p)
	}
	for p := range old {
		if _, ok := clients[p]; !ok {
			delete(c.health, p)
			removed = append(removed, p)
		}
	}
	c.ring, c.clients = r, clients
	c.mu.Unlock()

	for _, p := range added {
		c.reg.Gauge(telemetry.Series("peer_healthy", "peer", p)).Set(1)
	}
	for _, p := range removed {
		c.reg.DropGauge(telemetry.Series("peer_healthy", "peer", p))
	}
	c.reg.Counter("membership_reloads_total").Inc()
	c.reg.Gauge("cluster_peers").Set(int64(len(r.members())))
	c.kickRepair()
	return nil
}

// routable reports peer's verdict in the health table (optimistically
// true before the first poll or call says otherwise).
func (c *cluster) routable(peer string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.health[peer]
}

// setRoutable records a verdict: a poll's (either way) or a failed
// call's (false). Request goroutines, pushes, the repair sweep and the
// poller all write it. A peer that turns routable after being
// unroutable kicks a repair sweep: whatever it missed while cut off,
// or whatever this daemon missed from it, heals now rather than at the
// next interval.
func (c *cluster) setRoutable(peer string, ok bool) {
	c.mu.Lock()
	if _, member := c.clients[peer]; !member {
		// A poll completing after the peer was reloaded away must not
		// resurrect its verdict or its gauges.
		c.mu.Unlock()
		return
	}
	recovered := ok && !c.health[peer]
	c.health[peer] = ok
	c.mu.Unlock()
	v := int64(0)
	if ok {
		v = 1
	}
	c.reg.Gauge(telemetry.Series("peer_healthy", "peer", peer)).Set(v)
	if recovered {
		c.kickRepair()
	}
}

// pollLoop gossips each remote peer's /v1/peer/health on the
// configured interval, updating the routing-time shed verdicts. One
// failed or unhealthy poll sheds a peer; one clean poll restores it,
// whether a poll or a failed call demoted it. A peer that passes polls
// but fails calls (version skew during a rollout) is thus restored and
// demoted once per poll interval.
func (c *cluster) pollLoop() {
	defer c.loopWG.Done()
	t := time.NewTicker(c.pollInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
		c.poll()
	}
}

// poll gossips every remote peer's /v1/peer/health once, in parallel,
// and records each verdict.
func (c *cluster) poll() {
	c.mu.Lock()
	snapshot := make(map[string]*peerClient, len(c.clients))
	for peer, pc := range c.clients {
		snapshot[peer] = pc
	}
	c.mu.Unlock()
	var wg sync.WaitGroup
	for peer, pc := range snapshot {
		wg.Add(1)
		go func(peer string, pc *peerClient) {
			defer wg.Done()
			hv, err := pc.health(context.Background())
			c.setRoutable(peer, err == nil && hv.routable())
		}(peer, pc)
	}
	wg.Wait()
}

// peerFetchMark is a context-carried flag recording that a request's
// decomposition arrived via cluster peer fetch. It rides the context
// (set by the singleflight winner inside cachedSolve, read by the
// handler when rendering) because solveFunc's signature is part of the
// test seam — several batteries stub s.solve — and widening it for one
// observability bit would churn every stub. The bit is atomic: under
// the anytime ladder the setter may run on a losing tier's goroutine
// that is still winding down when the handler reads.
type peerFetchMark struct{ hit atomic.Bool }

type peerFetchMarkKey struct{}

func withPeerFetchMark(ctx context.Context) (context.Context, *peerFetchMark) {
	m := &peerFetchMark{}
	return context.WithValue(ctx, peerFetchMarkKey{}, m), m
}

// markPeerFetch flags the request that owns ctx, if any. Coalesced
// singleflight waiters share the fetched decomposition but not the
// winner's context, so only the winner's response reports the fetch —
// mirroring how decomp_coalesced_total attributes shared builds.
func markPeerFetch(ctx context.Context) {
	if m, ok := ctx.Value(peerFetchMarkKey{}).(*peerFetchMark); ok {
		m.hit.Store(true)
	}
}

// clusterPeerStats is one peer's row in the stats block.
type clusterPeerStats struct {
	Peer    string `json:"peer"`
	Self    bool   `json:"self,omitempty"`
	Healthy bool   `json:"healthy"`
}

// clusterStats is the always-present `cluster` block of /v1/stats.
// With clustering off only Enabled is rendered, so dashboards can key
// on one shape everywhere.
type clusterStats struct {
	Enabled bool   `json:"enabled"`
	Self    string `json:"self,omitempty"`
	// Replication is the configured R; each key lives on its top-R HRW
	// peers (clamped to the cluster size).
	Replication int `json:"replication,omitempty"`
	// AuthEnabled reports whether the /v1/peer surface requires the
	// cluster shared secret — surfaced here (and in the health gossip
	// payload) so operators and soaks can assert it instead of relying
	// on a startup log line.
	AuthEnabled bool               `json:"peer_auth_enabled"`
	Peers       []clusterPeerStats `json:"peers,omitempty"`
	// Fetch outcomes, mirrored from peer_fetch_total{outcome=...}.
	FetchHits      int64 `json:"fetch_hits,omitempty"`
	FetchMisses    int64 `json:"fetch_misses,omitempty"`
	FetchErrors    int64 `json:"fetch_errors,omitempty"`
	FetchRejected  int64 `json:"fetch_rejected,omitempty"` // corrupt + version_mismatch
	FetchShed      int64 `json:"fetch_shed,omitempty"`     // peer_unhealthy
	PushOK         int64 `json:"push_ok,omitempty"`
	PushErrors     int64 `json:"push_errors,omitempty"`
	PushesInflight int64 `json:"pushes_inflight"`
	// Anti-entropy repair sweep totals.
	RepairSweeps     int64 `json:"repair_sweeps,omitempty"`
	RepairPulled     int64 `json:"repair_pulled,omitempty"`
	RepairPullErrors int64 `json:"repair_pull_errors,omitempty"`
	// MembershipReloads counts accepted dynamic membership changes.
	MembershipReloads int64 `json:"membership_reloads,omitempty"`
}

func (c *cluster) stats() clusterStats {
	get := func(o fetchOutcome) int64 {
		return c.reg.Counter(telemetry.Series("peer_fetch_total", "outcome", string(o))).Value()
	}
	cs := clusterStats{
		Enabled:           true,
		Self:              c.self,
		Replication:       c.rep,
		AuthEnabled:       c.cfg.PeerSecret != "",
		FetchHits:         get(outcomeHit),
		FetchMisses:       get(outcomeMiss),
		FetchErrors:       get(outcomeError),
		FetchRejected:     get(outcomeCorrupt) + get(outcomeVersionMismatch),
		FetchShed:         get(outcomePeerUnhealthy),
		PushOK:            c.reg.Counter(telemetry.Series("peer_push_total", "outcome", "ok")).Value(),
		PushErrors:        c.reg.Counter(telemetry.Series("peer_push_total", "outcome", "error")).Value(),
		PushesInflight:    c.reg.Gauge("peer_push_inflight").Value(),
		RepairSweeps:      c.reg.Counter("repair_sweeps_total").Value(),
		RepairPulled:      c.reg.Counter("repair_pulled_total").Value(),
		RepairPullErrors:  c.reg.Counter("repair_pull_errors_total").Value(),
		MembershipReloads: c.reg.Counter("membership_reloads_total").Value(),
	}
	for _, p := range c.snapshotRing().members() {
		cs.Peers = append(cs.Peers, clusterPeerStats{Peer: p, Self: p == c.self, Healthy: p == c.self || c.routable(p)})
	}
	return cs
}
