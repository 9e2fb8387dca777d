package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hierpart/internal/cache"
	"hierpart/internal/cache/diskstore"
	"hierpart/internal/canon"
	"hierpart/internal/faultinject"
	"hierpart/internal/graph"
	"hierpart/internal/hgp"
	"hierpart/internal/telemetry"
	"hierpart/internal/treedecomp"
)

// swapHandler lets an httptest server exist (and hand out its URL)
// before the Server that will back it does: Config.Peers needs every
// peer's URL, and each peer's URL only exists once its listener is up.
type swapHandler struct{ h atomic.Value }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.h.Load().(http.Handler).ServeHTTP(w, r)
}

type testNode struct {
	srv  *Server
	ts   *httptest.Server
	reg  *telemetry.Registry
	url  string
	swap *swapHandler
}

// startTestCluster brings up n in-process daemons that know each other
// as a shard group. mutate may adjust each node's Config before New.
// The helper blocks until every node's health poller has seen every
// peer healthy (unless the poll interval was mutated out of range), so
// tests start from a converged cluster.
func startTestCluster(t *testing.T, n int, mutate func(i int, cfg *Config)) []*testNode {
	t.Helper()
	nodes := make([]*testNode, n)
	swaps := make([]*swapHandler, n)
	peers := make([]string, n)
	for i := range nodes {
		sw := &swapHandler{}
		sw.h.Store(http.NotFoundHandler())
		ts := httptest.NewServer(sw)
		swaps[i] = sw
		peers[i] = ts.URL
		nodes[i] = &testNode{ts: ts, url: ts.URL, swap: sw}
	}
	for i := range nodes {
		reg := telemetry.NewRegistry()
		cfg := Config{
			Registry:           reg,
			Peers:              peers,
			Self:               peers[i],
			PeerHealthInterval: 25 * time.Millisecond,
			ResultCacheEntries: -1,
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i].srv, nodes[i].reg = s, reg
		swaps[i].h.Store(s.Handler())
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			_ = nd.srv.Shutdown(ctx)
			cancel()
			nd.ts.Close()
		}
	})
	// Converge: a node may have polled a peer's placeholder handler
	// (404 → unroutable) before that peer's Server was swapped in.
	deadline := time.Now().Add(5 * time.Second)
	for _, nd := range nodes {
		if nd.srv.cfg.PeerHealthInterval > time.Second {
			continue // this test runs without gossip; optimistic state stands
		}
		for _, peer := range peers {
			if peer == nd.url {
				continue
			}
			for !nd.srv.cluster.routable(peer) {
				if time.Now().After(deadline) {
					t.Fatalf("cluster did not converge: %s never saw %s healthy", nd.url, peer)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}
	return nodes
}

// solverFor mirrors handlePartition's solver construction so tests can
// compute the exact cache keys a request will route on.
func solverFor(req PartitionRequest, cfg Config) hgp.Solver {
	maxStates := req.MaxStates
	if maxStates == 0 || maxStates > cfg.MaxStates {
		maxStates = cfg.MaxStates
	}
	return hgp.Solver{
		Eps: req.Eps, Trees: req.Trees, Seed: req.Seed,
		FMPasses: req.FMPasses, FlowRefine: req.FlowRefine,
		MaxStates: maxStates,
	}
}

func decompKeyFor(t *testing.T, req PartitionRequest) string {
	t.Helper()
	g, _, err := req.Instance.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	return cache.DecompKeyCanon(canon.Labelled(g).Fingerprint, solverFor(req, Config{}.withDefaults()).DecompOptions())
}

func resultKeyFor(t *testing.T, req PartitionRequest) string {
	t.Helper()
	g, H, err := req.Instance.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	sv := solverFor(req, Config{}.withDefaults())
	return cache.ResultKeyCanon(canon.Labelled(g).Fingerprint, H, sv.DecompOptions(), sv.Eps, sv.MaxStates)
}

func nodeIndex(nodes []*testNode, url string) int {
	for i, nd := range nodes {
		if nd.url == url {
			return i
		}
	}
	return -1
}

// reqOwnedBy searches seeds until the request's key (decomp or result,
// per keyFn) is owned by nodes[idx] — ownership is a hash, so tests
// steer it by varying the seed.
func reqOwnedBy(t *testing.T, nodes []*testNode, idx int, keyFn func(*testing.T, PartitionRequest) string) PartitionRequest {
	t.Helper()
	for seed := int64(1); seed <= 300; seed++ {
		req := testRequest()
		req.Seed = seed
		owner := nodes[0].srv.cluster.ownerOf(keyFn(t, req))
		if nodeIndex(nodes, owner) == idx {
			return req
		}
	}
	t.Fatalf("no seed in 1..300 lands on node %d", idx)
	return PartitionRequest{}
}

func labeled(reg *telemetry.Registry, name string, labels ...string) int64 {
	return reg.Counter(telemetry.Series(name, labels...)).Value()
}

// waitPushesSettled polls the node's peer_push_inflight gauge to zero —
// the race-free barrier for "every owner-ward push has completed".
func waitPushesSettled(t *testing.T, nd *testNode) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for nd.reg.Gauge("peer_push_inflight").Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("peer pushes never settled")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// comparable strips the timing and provenance fields that legitimately
// differ between a locally solved response and a peer-served one; what
// remains must be identical to the bit.
func comparable(r PartitionResponse) PartitionResponse {
	r.ElapsedMS, r.DecomposeMS, r.SolveMS = 0, 0, 0
	r.CacheHit, r.ResultCacheHit, r.PeerFetchHit, r.CanonHit = false, false, false, false
	r.Degradation = nil
	return r
}

// A non-owner's miss is served over the wire from the owner's cache:
// one build cluster-wide, bit-identical answers, and the fetched entry
// re-serves locally afterwards.
func TestClusterPeerFetchServesNonOwner(t *testing.T) {
	nodes := startTestCluster(t, 2, nil)
	req := reqOwnedBy(t, nodes, 0, decompKeyFor)
	owner, other := nodes[0], nodes[1]

	first := decodeResponse(t, postPartition(t, owner.srv.Handler(), req))
	if first.PeerFetchHit {
		t.Fatal("owner's own build must not report a peer fetch")
	}
	if got := owner.reg.Counter("decomp_builds_total").Value(); got != 1 {
		t.Fatalf("owner builds = %d, want 1", got)
	}

	rec := postPartition(t, other.srv.Handler(), req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body = %s", rec.Code, rec.Body.String())
	}
	fetched := decodeResponse(t, rec)
	if !fetched.PeerFetchHit {
		t.Fatalf("non-owner must serve via peer fetch: %+v", fetched)
	}
	if fetched.CacheHit {
		t.Fatal("peer fetch must not masquerade as a local cache hit")
	}
	if !reflect.DeepEqual(comparable(fetched), comparable(first)) {
		t.Fatalf("peer-fetched response diverged:\n%+v\n%+v", comparable(fetched), comparable(first))
	}
	if got := other.reg.Counter("decomp_builds_total").Value(); got != 0 {
		t.Fatalf("non-owner built %d decompositions, want 0 (fetched instead)", got)
	}
	if got := labeled(other.reg, "peer_fetch_total", "outcome", "hit"); got != 1 {
		t.Fatalf("peer_fetch_total{outcome=hit} = %d, want 1", got)
	}
	// The fetched entry now lives in the non-owner's LRU: a repeat is a
	// plain local hit, no second fetch.
	again := decodeResponse(t, postPartition(t, other.srv.Handler(), req))
	if !again.CacheHit || again.PeerFetchHit {
		t.Fatalf("repeat after fetch: CacheHit=%v PeerFetchHit=%v, want true/false", again.CacheHit, again.PeerFetchHit)
	}
	// Serving the fetch must not distort the owner's cache accounting:
	// Peek is invisible to hits/misses, so the owner still shows only
	// its own cold request (one miss, zero hits).
	if st := owner.srv.dec.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("owner LRU hits/misses = %d/%d, want 0/1 (peer serve must use Peek)", st.Hits, st.Misses)
	}
}

// A non-owner that builds (because the owner had nothing) pushes the
// entry owner-ward, so the owner later serves it from its own cache:
// still one build cluster-wide, just initiated on the "wrong" node.
func TestClusterNonOwnerBuildPushesToOwner(t *testing.T) {
	nodes := startTestCluster(t, 2, nil)
	req := reqOwnedBy(t, nodes, 0, decompKeyFor)
	owner, other := nodes[0], nodes[1]

	first := decodeResponse(t, postPartition(t, other.srv.Handler(), req))
	if first.PeerFetchHit {
		t.Fatal("owner had nothing; this must have been a local build")
	}
	if got := labeled(other.reg, "peer_fetch_total", "outcome", "miss"); got != 1 {
		t.Fatalf("peer_fetch_total{outcome=miss} = %d, want 1 (owner was consulted)", got)
	}
	if got := other.reg.Counter("decomp_builds_total").Value(); got != 1 {
		t.Fatalf("non-owner builds = %d, want 1", got)
	}
	waitPushesSettled(t, other)
	if got := labeled(other.reg, "peer_push_total", "outcome", "ok"); got != 1 {
		t.Fatalf("peer_push_total{outcome=ok} = %d, want 1", got)
	}

	warm := decodeResponse(t, postPartition(t, owner.srv.Handler(), req))
	if !warm.CacheHit {
		t.Fatal("owner must hit the pushed entry")
	}
	if got := owner.reg.Counter("decomp_builds_total").Value(); got != 0 {
		t.Fatalf("owner rebuilt despite the push: builds = %d, want 0", got)
	}
	if !reflect.DeepEqual(comparable(warm), comparable(first)) {
		t.Fatalf("pushed entry produced a different answer:\n%+v\n%+v", comparable(warm), comparable(first))
	}
}

// An injected corrupt body must be rejected like a damaged snapshot
// file and degrade to the local build — one miss counted, one build,
// a 200 answer, no double accounting.
func TestClusterCorruptPeerBodyFallsBackToLocalBuild(t *testing.T) {
	nodes := startTestCluster(t, 2, nil)
	req := reqOwnedBy(t, nodes, 0, decompKeyFor)
	owner, other := nodes[0], nodes[1]
	postPartition(t, owner.srv.Handler(), req) // prime the owner

	inj := faultinject.New(1).On(faultinject.PeerFetch, faultinject.Fault{Prob: 1, Count: 1, CorruptBody: true})
	t.Cleanup(faultinject.Activate(inj))

	rec := postPartition(t, other.srv.Handler(), req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body = %s", rec.Code, rec.Body.String())
	}
	resp := decodeResponse(t, rec)
	if resp.PeerFetchHit {
		t.Fatal("a corrupted fetch must not count as a peer hit")
	}
	if got := labeled(other.reg, "peer_fetch_total", "outcome", "corrupt"); got != 1 {
		t.Fatalf("peer_fetch_total{outcome=corrupt} = %d, want 1", got)
	}
	if got := inj.Fires(faultinject.PeerFetch); got != 1 {
		t.Fatalf("injector fired %d times, want 1", got)
	}
	if got := other.reg.Counter("decomp_cache_misses_total").Value(); got != 1 {
		t.Fatalf("decomp_cache_misses_total = %d, want exactly 1 (no double count on fallback)", got)
	}
	if got := other.reg.Counter("decomp_builds_total").Value(); got != 1 {
		t.Fatalf("fallback must build locally exactly once, got %d", got)
	}
}

// A dead owner costs one call of two attempts: that call demotes it,
// the next fetch for another key it owns is shed before the wire
// (peer_unhealthy), and the daemon keeps answering from local builds
// throughout. Only a clean poll makes the owner routable again.
func TestClusterDeadPeerDemoted(t *testing.T) {
	nodes := startTestCluster(t, 2, func(i int, cfg *Config) {
		// No gossip: the failed call alone must demote the owner, and
		// the test runs the restoring poll itself.
		cfg.PeerHealthInterval = time.Hour
		cfg.PeerTimeout = 100 * time.Millisecond
	})
	owner, other := nodes[0], nodes[1]
	// A hung owner (a stopped process, say) accepts connections but
	// never answers, so every attempt runs out its timeout.
	var attempts atomic.Int64
	owner.swap.h.Store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/peer/decomp/") {
			attempts.Add(1)
		}
		<-r.Context().Done()
	}))

	req1 := reqOwnedBy(t, nodes, 0, decompKeyFor)
	rec := postPartition(t, other.srv.Handler(), req1)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d with dead owner, want 200 via local fallback", rec.Code)
	}
	if got := attempts.Load(); got != 2 {
		t.Fatalf("dead owner saw %d attempts, want 2 (one call, one retry)", got)
	}
	if got := labeled(other.reg, "peer_fetch_total", "outcome", "error"); got != 1 {
		t.Fatalf("peer_fetch_total{outcome=error} = %d, want 1", got)
	}
	if other.srv.cluster.routable(owner.url) {
		t.Fatal("a call whose attempts all failed must demote the owner")
	}

	var req2 PartitionRequest
	for seed := int64(301); ; seed++ {
		req2 = testRequest()
		req2.Seed = seed
		if other.srv.cluster.ownerOf(decompKeyFor(t, req2)) == owner.url {
			break
		}
	}
	start := time.Now()
	rec = postPartition(t, other.srv.Handler(), req2)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d with the owner demoted, want 200", rec.Code)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("request against a demoted owner took %v; shedding before the wire is the point", elapsed)
	}
	if got := attempts.Load(); got != 2 {
		t.Fatalf("dead owner saw %d attempts after demotion, want still 2 (the shed fetch never touches the wire)", got)
	}
	if got := labeled(other.reg, "peer_fetch_total", "outcome", "peer_unhealthy"); got != 1 {
		t.Fatalf("peer_fetch_total{outcome=peer_unhealthy} = %d, want 1", got)
	}

	// The owner comes back: one clean poll restores it and kicks repair.
	sweeps := other.reg.Counter("repair_sweeps_total").Value()
	owner.swap.h.Store(owner.srv.Handler())
	other.srv.cluster.poll()
	if !other.srv.cluster.routable(owner.url) {
		t.Fatal("a clean poll must make the owner routable again")
	}
	waitCounter(t, other.reg, "repair_sweeps_total", sweeps+1)
}

// A fetch cut short by the caller's own deadline is not the peer's
// fault: it neither retries nor demotes the peer, however often it
// happens, so the next fetch still reaches the wire.
func TestClusterCallerCancelKeepsPeerRoutable(t *testing.T) {
	var gets atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/peer/decomp/") {
			gets.Add(1)
			select { // a healthy peer that answers slowly
			case <-time.After(400 * time.Millisecond):
			case <-r.Context().Done():
			}
		}
		w.WriteHeader(http.StatusNotFound)
	}))
	defer stub.Close()

	sw := &swapHandler{}
	sw.h.Store(http.NotFoundHandler())
	ts := httptest.NewServer(sw)
	defer ts.Close()
	reg := telemetry.NewRegistry()
	s, err := New(Config{
		Registry:           reg,
		Peers:              []string{stub.URL, ts.URL},
		Self:               ts.URL,
		PeerHealthInterval: time.Hour, // stub has no health endpoint; stay optimistic
		ResultCacheEntries: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = s.Shutdown(ctx)
		cancel()
	})
	sw.h.Store(s.Handler())

	stubReq := func(from int64) PartitionRequest {
		for seed := from; seed < from+300; seed++ {
			req := testRequest()
			req.Seed = seed
			if s.cluster.ownerOf(decompKeyFor(t, req)) == stub.URL {
				return req
			}
		}
		t.Fatal("no seed lands on the stub peer")
		return PartitionRequest{}
	}
	const cancelled = 3
	for i := 0; i < cancelled; i++ {
		req := stubReq(int64(1 + 1000*i))
		req.TimeoutMS = 50 // the request deadline expires mid-fetch
		postPartition(t, s.Handler(), req)
		if !s.cluster.routable(stub.URL) {
			t.Fatalf("request %d: the caller's deadline demoted a healthy peer", i)
		}
	}
	if got := gets.Load(); got != cancelled {
		t.Fatalf("stub saw %d fetches for %d deadline-cut requests, want %d (no retry)", got, cancelled, cancelled)
	}
	rec := postPartition(t, s.Handler(), stubReq(5000))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200 via local build after a miss", rec.Code)
	}
	if got := gets.Load(); got != cancelled+1 {
		t.Fatalf("stub saw %d fetches, want %d: the next fetch must still reach the peer", got, cancelled+1)
	}
	if got := labeled(reg, "peer_fetch_total", "outcome", "miss"); got != 1 {
		t.Fatalf("peer_fetch_total{outcome=miss} = %d, want 1", got)
	}
}

// Request goroutines write the health table as well as the poller: many
// concurrent fetches against a dead owner, racing a fast poller, each
// add exactly one peer_fetch_total row and leave the owner demoted.
func TestClusterConcurrentDemotion(t *testing.T) {
	nodes := startTestCluster(t, 2, func(i int, cfg *Config) {
		cfg.PeerHealthInterval = 5 * time.Millisecond
	})
	owner, other := nodes[0], nodes[1]
	owner.swap.h.Store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	var keys []string
	for seed := int64(1); len(keys) < 8; seed++ {
		req := testRequest()
		req.Seed = seed
		if key := decompKeyFor(t, req); other.srv.cluster.ownerOf(key) == owner.url {
			keys = append(keys, key)
		}
	}
	const workers, rounds = 16, 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if _, ok := other.srv.cluster.fetchDecomp(context.Background(), keys[(w+r)%len(keys)]); ok {
					t.Error("a dead owner served a fetch")
				}
			}
		}(w)
	}
	wg.Wait()
	var rows int64
	for _, o := range fetchOutcomes {
		rows += labeled(other.reg, "peer_fetch_total", "outcome", string(o))
	}
	if rows != workers*rounds {
		t.Fatalf("peer_fetch_total rows = %d for %d fetches, want one each", rows, workers*rounds)
	}
	if got := labeled(other.reg, "peer_fetch_total", "outcome", "hit"); got != 0 {
		t.Fatalf("peer_fetch_total{outcome=hit} = %d, want 0", got)
	}
	if other.srv.cluster.routable(owner.url) {
		t.Fatal("dead owner still routable after failed calls and polls")
	}
	owner.swap.h.Store(owner.srv.Handler())
	deadline := time.Now().Add(5 * time.Second)
	for !other.srv.cluster.routable(owner.url) {
		if time.Now().After(deadline) {
			t.Fatal("the poller never restored the recovered owner")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Version-skewed peer bytes are rejected exactly like a version-skewed
// snapshot file, on both directions of the wire: a GET response falls
// back to the local build, a PUT is refused with its own error code.
func TestClusterVersionSkewRejected(t *testing.T) {
	// A stub "peer" from a newer/older build: serves frames whose RNG
	// stream version is bumped. Real daemons share this binary's
	// version, so skew must be manufactured.
	skewed := func(payload []byte) []byte {
		raw := diskstore.WrapWire(payload)
		raw[len("HGPSNAP\x01")+4]++ // stream-version field
		return raw
	}
	dec := treedecomp.Build(mustGraph(t), treedecomp.Options{Trees: 1, Seed: 1})
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && len(r.URL.Path) > len("/v1/peer/decomp/") {
			w.Write(skewed(diskstore.EncodeDecompEntry(dec, nil)))
			return
		}
		w.WriteHeader(http.StatusNotFound)
	}))
	defer stub.Close()

	sw := &swapHandler{}
	sw.h.Store(http.NotFoundHandler())
	ts := httptest.NewServer(sw)
	defer ts.Close()
	reg := telemetry.NewRegistry()
	s, err := New(Config{
		Registry:           reg,
		Peers:              []string{stub.URL, ts.URL},
		Self:               ts.URL,
		PeerHealthInterval: time.Hour, // stub has no health endpoint; stay optimistic
		ResultCacheEntries: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = s.Shutdown(ctx)
		cancel()
	})
	sw.h.Store(s.Handler())

	// Find a request the stub owns, so the fetch actually goes there.
	var req PartitionRequest
	for seed := int64(1); ; seed++ {
		if seed > 300 {
			t.Fatal("no seed lands on the stub peer")
		}
		req = testRequest()
		req.Seed = seed
		if s.cluster.ownerOf(decompKeyFor(t, req)) == stub.URL {
			break
		}
	}
	rec := postPartition(t, s.Handler(), req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200 via local fallback", rec.Code)
	}
	if got := labeled(reg, "peer_fetch_total", "outcome", "version_mismatch"); got != 1 {
		t.Fatalf("peer_fetch_total{outcome=version_mismatch} = %d, want 1", got)
	}

	// PUT direction: the daemon must refuse skewed and corrupt bodies
	// with distinct codes, and accept nothing from either. A fresh key
	// isolates the check from the entry the local fallback just cached.
	key := "ab12" + decompKeyFor(t, req)[4:]
	put := func(body []byte) (*http.Response, apiError) {
		t.Helper()
		preq, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/peer/decomp/"+key, bytes.NewReader(body))
		resp, err := http.DefaultClient.Do(preq)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e apiError
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return resp, e
	}
	baseLen := s.dec.Len()
	resp, e := put(skewed(diskstore.EncodeDecompEntry(dec, nil)))
	if resp.StatusCode != http.StatusBadRequest || e.Code != "version_mismatch" {
		t.Fatalf("skewed PUT: status %d code %q, want 400 version_mismatch", resp.StatusCode, e.Code)
	}
	good := diskstore.WrapWire(diskstore.EncodeDecompEntry(dec, nil))
	bad := append([]byte(nil), good...)
	bad[len(bad)/2] ^= 0xFF
	resp, e = put(bad)
	if resp.StatusCode != http.StatusBadRequest || e.Code != "corrupt_frame" {
		t.Fatalf("corrupt PUT: status %d code %q, want 400 corrupt_frame", resp.StatusCode, e.Code)
	}
	if s.dec.Len() != baseLen {
		t.Fatal("rejected PUTs must not populate the cache")
	}
	// And a healthy PUT lands.
	resp, _ = put(good)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("valid PUT: status %d, want 204", resp.StatusCode)
	}
	if s.dec.Len() != baseLen+1 {
		t.Fatal("valid PUT must populate the cache")
	}
}

// A draining peer is shed at routing time: gossip reports "draining"
// distinctly from "ok", the poller demotes the peer, and fetches stop
// before they start.
func TestClusterShedsDrainingPeer(t *testing.T) {
	nodes := startTestCluster(t, 2, nil)
	owner, other := nodes[0], nodes[1]

	// Pin the gossip body first: drained daemons must say so.
	getHealth := func(nd *testNode) peerHealthView {
		t.Helper()
		resp, err := http.Get(nd.url + "/v1/peer/health")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("peer health status = %d, want 200 (the body carries the verdict)", resp.StatusCode)
		}
		var hv peerHealthView
		if err := json.NewDecoder(resp.Body).Decode(&hv); err != nil {
			t.Fatal(err)
		}
		return hv
	}
	if hv := getHealth(owner); hv.Status != "ok" {
		t.Fatalf("healthy peer reports %q, want ok", hv.Status)
	}
	owner.srv.Drain()
	if hv := getHealth(owner); hv.Status != "draining" {
		t.Fatalf("draining peer reports %q, want draining (distinct from ok)", hv.Status)
	}

	// The poller must demote the owner within a few intervals.
	deadline := time.Now().Add(5 * time.Second)
	for other.srv.cluster.routable(owner.url) {
		if time.Now().After(deadline) {
			t.Fatal("draining peer never shed from routing")
		}
		time.Sleep(5 * time.Millisecond)
	}

	req := reqOwnedBy(t, nodes, 0, decompKeyFor)
	rec := postPartition(t, other.srv.Handler(), req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200 via local build", rec.Code)
	}
	if got := labeled(other.reg, "peer_fetch_total", "outcome", "peer_unhealthy"); got != 1 {
		t.Fatalf("peer_fetch_total{outcome=peer_unhealthy} = %d, want 1", got)
	}
	if got := labeled(other.reg, "peer_fetch_total", "outcome", "error"); got != 0 {
		t.Fatalf("shed fetch must not touch the wire; errors = %d", got)
	}

	// Data endpoints on the draining daemon refuse with 503 + reason.
	resp, err := http.Get(owner.url + "/v1/peer/decomp/" + decompKeyFor(t, req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("peer GET on draining daemon = %d, want 503", resp.StatusCode)
	}
}

// Full solve results travel peer-to-peer too: a result solved on its
// owner is served to a non-owner as a result-cache hit, bit-identical,
// and a non-owner's solve is pushed to the owner.
func TestClusterResultPeerFetchAndPush(t *testing.T) {
	nodes := startTestCluster(t, 2, func(i int, cfg *Config) {
		cfg.ResultCacheEntries = 64
	})
	owner, other := nodes[0], nodes[1]

	// Direction 1: owner solves, non-owner fetches.
	req := reqOwnedBy(t, nodes, 0, resultKeyFor)
	first := decodeResponse(t, postPartition(t, owner.srv.Handler(), req))
	rec := postPartition(t, other.srv.Handler(), req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body = %s", rec.Code, rec.Body.String())
	}
	fetched := decodeResponse(t, rec)
	if !fetched.ResultCacheHit || !fetched.PeerFetchHit {
		t.Fatalf("want a peer-served result-cache hit, got ResultCacheHit=%v PeerFetchHit=%v",
			fetched.ResultCacheHit, fetched.PeerFetchHit)
	}
	if !reflect.DeepEqual(comparable(fetched), comparable(first)) {
		t.Fatalf("peer-served result diverged:\n%+v\n%+v", comparable(fetched), comparable(first))
	}
	if got := other.reg.Counter("decomp_builds_total").Value(); got != 0 {
		t.Fatalf("non-owner ran %d builds for a peer-served result, want 0", got)
	}
	// The fetched result is cached locally: a repeat is a plain hit.
	again := decodeResponse(t, postPartition(t, other.srv.Handler(), req))
	if !again.ResultCacheHit || again.PeerFetchHit {
		t.Fatalf("repeat: ResultCacheHit=%v PeerFetchHit=%v, want true/false", again.ResultCacheHit, again.PeerFetchHit)
	}

	// Direction 2: non-owner solves a key the owner owns; the result is
	// pushed, and the owner answers from cache without solving.
	req2 := reqOwnedBy(t, nodes, 0, resultKeyFor)
	for req2.Seed == req.Seed {
		// Find a different seed also owned by node 0.
		base := req2.Seed
		for seed := base + 1; ; seed++ {
			req2 = testRequest()
			req2.Seed = seed
			if nodeIndex(nodes, nodes[0].srv.cluster.ownerOf(resultKeyFor(t, req2))) == 0 {
				break
			}
		}
	}
	solved := decodeResponse(t, postPartition(t, other.srv.Handler(), req2))
	waitPushesSettled(t, other)
	ownerBuilds := owner.reg.Counter("decomp_builds_total").Value()
	served := decodeResponse(t, postPartition(t, owner.srv.Handler(), req2))
	if !served.ResultCacheHit {
		t.Fatalf("owner must serve the pushed result from cache: %+v", served)
	}
	if got := owner.reg.Counter("decomp_builds_total").Value(); got != ownerBuilds {
		t.Fatal("owner solved despite the pushed result")
	}
	if !reflect.DeepEqual(comparable(served), comparable(solved)) {
		t.Fatalf("pushed result diverged:\n%+v\n%+v", comparable(served), comparable(solved))
	}
}

// The always-present cluster stats block and the single-node shape.
func TestClusterStatsBlock(t *testing.T) {
	nodes := startTestCluster(t, 2, nil)
	req := reqOwnedBy(t, nodes, 0, decompKeyFor)
	postPartition(t, nodes[0].srv.Handler(), req)
	postPartition(t, nodes[1].srv.Handler(), req)

	rec := httptest.NewRecorder()
	nodes[1].srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var stats StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if !stats.Cluster.Enabled {
		t.Fatal("cluster stats must report enabled")
	}
	if stats.Cluster.Self != nodes[1].url {
		t.Fatalf("cluster self = %q, want %q", stats.Cluster.Self, nodes[1].url)
	}
	if len(stats.Cluster.Peers) != 2 {
		t.Fatalf("cluster peers = %d rows, want 2", len(stats.Cluster.Peers))
	}
	if stats.Cluster.FetchHits != 1 {
		t.Fatalf("cluster fetch_hits = %d, want 1", stats.Cluster.FetchHits)
	}
	for _, row := range stats.Cluster.Peers {
		if !row.Healthy {
			t.Fatalf("peer %s reported unhealthy in a healthy cluster", row.Peer)
		}
	}

	// Single-node daemons render the same block, disabled.
	s := newTestServer(t, Config{})
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var solo StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &solo); err != nil {
		t.Fatal(err)
	}
	if solo.Cluster.Enabled {
		t.Fatal("single-node daemon must report cluster disabled")
	}
}

// Config validation: cluster mode demands a self identity inside the
// peer list and a cache to share.
func TestClusterConfigValidation(t *testing.T) {
	reg := telemetry.NewRegistry()
	if _, err := New(Config{Registry: reg, Peers: []string{"http://a:1"}}); err == nil {
		t.Fatal("missing Self must be rejected")
	}
	if _, err := New(Config{Registry: reg, Peers: []string{"http://a:1"}, Self: "http://b:2"}); err == nil {
		t.Fatal("Self outside Peers must be rejected")
	}
	if _, err := New(Config{Registry: reg, Peers: []string{"http://a:1"}, Self: "http://a:1", CacheEntries: -1}); err == nil {
		t.Fatal("cluster mode without caching must be rejected")
	}
	// A scheme-less peer would fail every poll and fetch with
	// "unsupported protocol scheme" — a cluster that sheds every key
	// forever. That misconfiguration must die at startup, not degrade.
	for _, bad := range []string{"a:1", "127.0.0.1:8080", "ftp://a:1", "http://"} {
		if _, err := New(Config{Registry: reg, Peers: []string{bad, "http://b:2"}, Self: "http://b:2"}); err == nil {
			t.Fatalf("peer %q without an http(s) base URL must be rejected", bad)
		}
	}
}

// With a shared secret configured, the peer surface authenticates every
// request: authenticated peers interoperate exactly as before, while a
// client without the secret gets 403 from every peer endpoint and can
// neither read nor poison the caches.
func TestClusterPeerSecretEnforced(t *testing.T) {
	const secret = "soak-test-secret"
	nodes := startTestCluster(t, 2, func(i int, cfg *Config) {
		cfg.PeerSecret = secret
	})
	req := reqOwnedBy(t, nodes, 0, decompKeyFor)
	owner, other := nodes[0], nodes[1]

	// Authenticated path first: the cluster works as without a secret
	// (startTestCluster already proved gossip converges — the pollers
	// authenticate too).
	postPartition(t, owner.srv.Handler(), req)
	fetched := decodeResponse(t, postPartition(t, other.srv.Handler(), req))
	if !fetched.PeerFetchHit {
		t.Fatalf("authenticated peer fetch must work: %+v", fetched)
	}

	key := decompKeyFor(t, req)
	deny := func(method, url string, body []byte, header http.Header) {
		t.Helper()
		var r *http.Request
		if body != nil {
			r, _ = http.NewRequest(method, url, bytes.NewReader(body))
		} else {
			r, _ = http.NewRequest(method, url, nil)
		}
		for k, v := range header {
			r.Header[k] = v
		}
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e apiError
		_ = json.NewDecoder(resp.Body).Decode(&e)
		if resp.StatusCode != http.StatusForbidden || e.Code != "peer_auth" {
			t.Fatalf("%s %s without the secret: status %d code %q, want 403 peer_auth", method, url, resp.StatusCode, e.Code)
		}
	}
	// GET: the entry exists on the owner, but an unauthenticated reader
	// must not see it.
	deny(http.MethodGet, owner.url+"/v1/peer/decomp/"+key, nil, nil)
	// PUT: a structurally valid body under an arbitrary key must bounce
	// off authentication before any validation runs.
	dec := treedecomp.Build(mustGraph(t), treedecomp.Options{Trees: 1, Seed: 1})
	forged := diskstore.WrapWire(diskstore.EncodeDecompEntry(dec, nil))
	forgedKey := "ab12" + key[4:]
	baseLen := owner.srv.dec.Len()
	deny(http.MethodPut, owner.url+"/v1/peer/decomp/"+forgedKey, forged, nil)
	deny(http.MethodPut, owner.url+"/v1/peer/decomp/"+forgedKey, forged,
		http.Header{"X-Hgpd-Peer-Secret": []string{"wrong"}})
	if owner.srv.dec.Len() != baseLen {
		t.Fatal("unauthenticated PUT must not populate the cache")
	}
	// Health gossip is gated too: an unauthenticated prober learns
	// nothing about the daemon's load.
	deny(http.MethodGet, owner.url+"/v1/peer/health", nil, nil)
	if got := owner.reg.Counter("peer_auth_failures_total").Value(); got < 4 {
		t.Fatalf("peer_auth_failures_total = %d, want >= 4", got)
	}
}

// A secret mismatch between peers (half-rotated fleet, operator typo)
// is a deterministic 403: the fetch records one error without burning
// the retry budget, and the request degrades to a local solve.
func TestClusterPeerSecretMismatchFallsBack(t *testing.T) {
	nodes := startTestCluster(t, 2, func(i int, cfg *Config) {
		cfg.PeerSecret = "secret-" + string(rune('a'+i)) // distinct per node
		cfg.PeerHealthInterval = time.Hour               // stay optimistic; isolate the fetch path
	})
	req := reqOwnedBy(t, nodes, 0, decompKeyFor)
	owner, other := nodes[0], nodes[1]
	postPartition(t, owner.srv.Handler(), req)

	rec := postPartition(t, other.srv.Handler(), req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200 via local fallback", rec.Code)
	}
	if resp := decodeResponse(t, rec); resp.PeerFetchHit {
		t.Fatal("a 403ed fetch must not count as a peer hit")
	}
	if got := labeled(other.reg, "peer_fetch_total", "outcome", "error"); got != 1 {
		t.Fatalf("peer_fetch_total{outcome=error} = %d, want exactly 1 (403 is deterministic; no retries)", got)
	}
	if got := other.reg.Counter("decomp_builds_total").Value(); got != 1 {
		t.Fatalf("fallback must build locally exactly once, got %d", got)
	}
}

// A pushed result marked Partial violates the result-cache invariant
// (only complete full-pipeline results are cached) and must be refused
// at the trust boundary, not trusted because pushers never send one.
func TestClusterRejectsPartialResultPush(t *testing.T) {
	nodes := startTestCluster(t, 2, func(i int, cfg *Config) {
		cfg.ResultCacheEntries = 64
	})
	owner := nodes[0]
	key := resultKeyFor(t, testRequest())

	partial := &hgp.Result{
		Assignment: []int{0, 1},
		Cost:       1, TreeCost: 1,
		PerTreeCosts: []float64{1},
		Partial:      true,
		TreesDone:    1,
	}
	put := func(res *hgp.Result) (*http.Response, apiError) {
		t.Helper()
		body := diskstore.WrapWire(diskstore.EncodeResult(res))
		preq, _ := http.NewRequest(http.MethodPut, owner.url+"/v1/peer/result/"+key, bytes.NewReader(body))
		resp, err := http.DefaultClient.Do(preq)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e apiError
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return resp, e
	}
	resp, e := put(partial)
	if resp.StatusCode != http.StatusBadRequest || e.Code != "partial_result" {
		t.Fatalf("partial push: status %d code %q, want 400 partial_result", resp.StatusCode, e.Code)
	}
	if _, ok := owner.srv.results.Peek(key); ok {
		t.Fatal("rejected partial result must not enter the result cache")
	}
	// The same payload with Partial cleared is a valid push.
	complete := *partial
	complete.Partial = false
	complete.TreesDone = 0
	if resp, e := put(&complete); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("complete push: status %d code %q, want 204", resp.StatusCode, e.Code)
	}
	if _, ok := owner.srv.results.Peek(key); !ok {
		t.Fatal("valid complete push must populate the result cache")
	}
}

// A frame that validates but whose entry payload does not decode is ONE
// corrupt fetch: one peer_fetch_total row (not hit + corrupt), and the
// peer demoted exactly as for a frame-corrupt body.
func TestClusterEntryCorruptFetchCountsOnce(t *testing.T) {
	// A stub "peer" serving well-framed garbage: UnwrapWire passes
	// (checksum and versions are real), DecodeDecompEntry cannot.
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/peer/decomp/") {
			w.Write(diskstore.WrapWire([]byte("not a decomposition entry")))
			return
		}
		w.WriteHeader(http.StatusNotFound)
	}))
	defer stub.Close()

	sw := &swapHandler{}
	sw.h.Store(http.NotFoundHandler())
	ts := httptest.NewServer(sw)
	defer ts.Close()
	reg := telemetry.NewRegistry()
	s, err := New(Config{
		Registry:           reg,
		Peers:              []string{stub.URL, ts.URL},
		Self:               ts.URL,
		PeerHealthInterval: time.Hour, // stub has no health endpoint; stay optimistic
		ResultCacheEntries: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = s.Shutdown(ctx)
		cancel()
	})
	sw.h.Store(s.Handler())

	var req PartitionRequest
	for seed := int64(1); ; seed++ {
		if seed > 300 {
			t.Fatal("no seed lands on the stub peer")
		}
		req = testRequest()
		req.Seed = seed
		if s.cluster.ownerOf(decompKeyFor(t, req)) == stub.URL {
			break
		}
	}
	rec := postPartition(t, s.Handler(), req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200 via local fallback", rec.Code)
	}
	if got := labeled(reg, "peer_fetch_total", "outcome", "corrupt"); got != 1 {
		t.Fatalf("peer_fetch_total{outcome=corrupt} = %d, want 1", got)
	}
	if got := labeled(reg, "peer_fetch_total", "outcome", "hit"); got != 0 {
		t.Fatalf("peer_fetch_total{outcome=hit} = %d, want 0 (an entry-corrupt fetch is not a hit)", got)
	}
	if s.cluster.routable(stub.URL) {
		t.Fatal("stub peer still routable after an entry-corrupt body, want demoted (corrupt bodies demote the peer)")
	}
}

// A miss storm on one result key costs the owner ONE fetch: concurrent
// identical requests coalesce on the singleflight group before the
// network, so a slow or dying owner pays one round trip, not N.
func TestClusterResultFetchCoalesced(t *testing.T) {
	const storm = 6
	var resultGets atomic.Int64
	release := make(chan struct{})
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/peer/result/") {
			resultGets.Add(1)
			<-release // hold the fetch open until the whole storm is in flight
		}
		w.WriteHeader(http.StatusNotFound)
	}))
	defer stub.Close()

	sw := &swapHandler{}
	sw.h.Store(http.NotFoundHandler())
	ts := httptest.NewServer(sw)
	defer ts.Close()
	s, err := New(Config{
		Registry:           telemetry.NewRegistry(),
		Peers:              []string{stub.URL, ts.URL},
		Self:               ts.URL,
		PeerHealthInterval: time.Hour,
		ResultCacheEntries: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = s.Shutdown(ctx)
		cancel()
	})
	sw.h.Store(s.Handler())

	var req PartitionRequest
	for seed := int64(1); ; seed++ {
		if seed > 300 {
			t.Fatal("no seed lands on the stub peer")
		}
		req = testRequest()
		req.Seed = seed
		if s.cluster.ownerOf(resultKeyFor(t, req)) == stub.URL {
			break
		}
	}

	var wg sync.WaitGroup
	codes := make([]int, storm)
	for i := 0; i < storm; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i] = postPartition(t, s.Handler(), req).Code
		}(i)
	}
	// Release the held fetch once every storm member has had time to
	// reach the coalescing point; the leader's fetch is still open, so
	// any non-coalesced fetch would already have hit the stub.
	deadline := time.Now().Add(5 * time.Second)
	for resultGets.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the leader's fetch never reached the stub")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(200 * time.Millisecond)
	close(release)
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d, want 200", i, code)
		}
	}
	if got := resultGets.Load(); got != 1 {
		t.Fatalf("owner saw %d result fetches for one key's miss storm, want 1 (coalesced)", got)
	}
}

func mustGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, _, err := testRequest().Instance.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	return g
}
