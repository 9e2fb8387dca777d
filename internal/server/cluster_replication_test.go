package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"hierpart/internal/telemetry"
)

// reqReplicatedOn searches seeds until the request's decomp key has
// exactly the nodes at idxs as its replica set (order-insensitive) —
// the R-way analogue of reqOwnedBy.
func reqReplicatedOn(t *testing.T, nodes []*testNode, idxs ...int) PartitionRequest {
	t.Helper()
	want := map[int]bool{}
	for _, i := range idxs {
		want[i] = true
	}
	for seed := int64(1); seed <= 1000; seed++ {
		req := testRequest()
		req.Seed = seed
		reps := nodes[0].srv.cluster.replicasOf(decompKeyFor(t, req))
		if len(reps) != len(idxs) {
			continue
		}
		match := true
		for _, p := range reps {
			if !want[nodeIndex(nodes, p)] {
				match = false
				break
			}
		}
		if match {
			return req
		}
	}
	t.Fatalf("no seed in 1..1000 replicates exactly on nodes %v", idxs)
	return PartitionRequest{}
}

// waitCounter polls a counter until it reaches at least want.
func waitCounter(t *testing.T, reg *telemetry.Registry, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for reg.Counter(name).Value() < want {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, never reached %d", name, reg.Counter(name).Value(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// With R=2, a build on a non-replica fans out to BOTH replicas: either
// one can then serve the key from its own cache — node loss of one
// replica costs nothing.
func TestClusterReplicatedPushFanOut(t *testing.T) {
	nodes := startTestCluster(t, 3, func(i int, cfg *Config) {
		cfg.Replication = 2
	})
	req := reqReplicatedOn(t, nodes, 0, 1)
	key := decompKeyFor(t, req)
	builder := nodes[2]

	resp := decodeResponse(t, postPartition(t, builder.srv.Handler(), req))
	if resp.PeerFetchHit {
		t.Fatal("no replica holds the key yet; this must have been a local build")
	}
	// The fetch walked BOTH replicas before giving up: a definitive miss
	// on the primary says nothing about the secondary.
	if got := labeled(builder.reg, "peer_fetch_total", "outcome", "miss"); got != 2 {
		t.Fatalf("peer_fetch_total{outcome=miss} = %d, want 2 (both replicas consulted)", got)
	}
	waitPushesSettled(t, builder)
	if got := labeled(builder.reg, "peer_push_total", "outcome", "ok"); got != 2 {
		t.Fatalf("peer_push_total{outcome=ok} = %d, want 2 (fan-out to both replicas)", got)
	}
	for _, i := range []int{0, 1} {
		if _, ok := nodes[i].srv.dec.Peek(key); !ok {
			t.Fatalf("replica %d never received the pushed entry", i)
		}
		warm := decodeResponse(t, postPartition(t, nodes[i].srv.Handler(), req))
		if !warm.CacheHit {
			t.Fatalf("replica %d must serve the pushed entry as a local hit: %+v", i, warm)
		}
		if got := nodes[i].reg.Counter("decomp_builds_total").Value(); got != 0 {
			t.Fatalf("replica %d rebuilt despite the push: builds = %d, want 0", i, got)
		}
	}
}

// The replica walk is the failover: with the primary dead, a fetch
// records the error and lands on the secondary — zero rebuilds, the
// exact property R-way replication buys.
func TestClusterReplicaFetchFailover(t *testing.T) {
	nodes := startTestCluster(t, 3, func(i int, cfg *Config) {
		// No gossip: keep the dead primary routable so the walk actually
		// attempts it and fails over, rather than shedding pre-wire.
		cfg.Replication = 2
		cfg.PeerHealthInterval = time.Hour
		cfg.PeerTimeout = 500 * time.Millisecond
	})
	req := reqReplicatedOn(t, nodes, 0, 1)
	key := decompKeyFor(t, req)
	reps := nodes[0].srv.cluster.replicasOf(key)
	primary, secondary := nodes[nodeIndex(nodes, reps[0])], nodes[nodeIndex(nodes, reps[1])]
	outsider := nodes[2]

	// Prime on the primary; the push replicates to the secondary.
	postPartition(t, primary.srv.Handler(), req)
	waitPushesSettled(t, primary)
	if _, ok := secondary.srv.dec.Peek(key); !ok {
		t.Fatal("secondary never received the replicated entry")
	}

	primary.ts.Close() // node loss: connections now refuse

	rec := postPartition(t, outsider.srv.Handler(), req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d with dead primary, want 200 via the secondary", rec.Code)
	}
	resp := decodeResponse(t, rec)
	if !resp.PeerFetchHit {
		t.Fatalf("the walk must land on the live secondary: %+v", resp)
	}
	if got := outsider.reg.Counter("decomp_builds_total").Value(); got != 0 {
		t.Fatalf("outsider built %d decompositions, want 0 (failover served it)", got)
	}
	if got := labeled(outsider.reg, "peer_fetch_total", "outcome", "error"); got != 1 {
		t.Fatalf("peer_fetch_total{outcome=error} = %d, want 1 (the dead primary)", got)
	}
	if got := labeled(outsider.reg, "peer_fetch_total", "outcome", "hit"); got != 1 {
		t.Fatalf("peer_fetch_total{outcome=hit} = %d, want 1 (the secondary)", got)
	}
}

// A healed partition restocks the replica at once: while the two nodes
// have shed each other, a build cannot be pushed to its owner; when
// the owner's poller sees the builder recover it kicks a repair sweep
// that pulls the entry, long before the hourly periodic sweep.
func TestClusterRepairOnPartitionHeal(t *testing.T) {
	nodes := startTestCluster(t, 2, func(i int, cfg *Config) {
		cfg.RepairInterval = time.Hour
	})
	req := reqOwnedBy(t, nodes, 0, decompKeyFor)
	owner, builder := nodes[0], nodes[1]

	// Partition: both peer-facing handlers go dark (the test still
	// drives each Server directly) until each poller has shed the other.
	for _, nd := range nodes {
		nd.swap.h.Store(http.NotFoundHandler())
	}
	deadline := time.Now().Add(5 * time.Second)
	for owner.srv.cluster.routable(builder.url) || builder.srv.cluster.routable(owner.url) {
		if time.Now().After(deadline) {
			t.Fatal("the partition never shed both peers")
		}
		time.Sleep(5 * time.Millisecond)
	}
	pulled := owner.reg.Counter("repair_pulled_total").Value()

	postPartition(t, builder.srv.Handler(), req)
	waitPushesSettled(t, builder)
	if got := labeled(builder.reg, "peer_push_total", "outcome", "ok"); got != 0 {
		t.Fatalf("peer_push_total{outcome=ok} = %d, want 0 (the owner was unroutable)", got)
	}

	for _, nd := range nodes {
		nd.swap.h.Store(nd.srv.Handler())
	}
	waitCounter(t, owner.reg, "repair_pulled_total", pulled+1)

	warm := decodeResponse(t, postPartition(t, owner.srv.Handler(), req))
	if !warm.CacheHit {
		t.Fatalf("owner must hit the repaired entry: %+v", warm)
	}
	if got := owner.reg.Counter("decomp_builds_total").Value(); got != 0 {
		t.Fatalf("owner rebuilt despite repair: builds = %d, want 0", got)
	}
}

// A one-sided outage: the builder sheds the owner and skips the push,
// but the owner reaches the builder the whole time, so no recovery
// kick fires on its side and its periodic sweep pulls the entry — a
// pull that stays invisible to the request-path fetch counters.
func TestClusterRepairConvergesMissedPush(t *testing.T) {
	nodes := startTestCluster(t, 2, func(i int, cfg *Config) {
		cfg.RepairInterval = 75 * time.Millisecond
	})
	req := reqOwnedBy(t, nodes, 0, decompKeyFor)
	owner, builder := nodes[0], nodes[1]

	owner.swap.h.Store(http.NotFoundHandler())
	deadline := time.Now().Add(5 * time.Second)
	for builder.srv.cluster.routable(owner.url) {
		if time.Now().After(deadline) {
			t.Fatal("owner never shed from routing")
		}
		time.Sleep(5 * time.Millisecond)
	}
	postPartition(t, builder.srv.Handler(), req)

	owner.swap.h.Store(owner.srv.Handler())
	waitCounter(t, owner.reg, "repair_pulled_total", 1)

	warm := decodeResponse(t, postPartition(t, owner.srv.Handler(), req))
	if !warm.CacheHit {
		t.Fatalf("owner must hit the repaired entry: %+v", warm)
	}
	if got := owner.reg.Counter("decomp_builds_total").Value(); got != 0 {
		t.Fatalf("owner rebuilt despite repair: builds = %d, want 0", got)
	}
	// Repair pulls bypass peer_fetch_total: that family means "a request
	// needed the wire", and dashboards alarm on it.
	if got := labeled(owner.reg, "peer_fetch_total", "outcome", "hit"); got != 0 {
		t.Fatalf("peer_fetch_total{outcome=hit} = %d, want 0 (repair is not request traffic)", got)
	}
}

// Dynamic membership: a reload atomically swaps the ring on live
// daemons — new peers route and receive pushes immediately, a bad list
// is rejected with the old membership intact, and removed peers drop
// out of stats and routing.
func TestClusterMembershipReload(t *testing.T) {
	// Hand-rolled: startTestCluster's convergence loop assumes every
	// node knows every peer at startup, which is exactly what this test
	// must not assume. Nodes 0 and 1 boot as a two-node cluster; node 2
	// boots already knowing all three (the joining node is configured
	// first, then announced).
	const n = 3
	swaps := make([]*swapHandler, n)
	urls := make([]string, n)
	nodes := make([]*testNode, n)
	for i := range nodes {
		sw := &swapHandler{}
		sw.h.Store(http.NotFoundHandler())
		ts := httptest.NewServer(sw)
		swaps[i] = sw
		urls[i] = ts.URL
		nodes[i] = &testNode{ts: ts, url: ts.URL, swap: sw}
	}
	for i := range nodes {
		peers := []string{urls[0], urls[1]}
		if i == 2 {
			peers = []string{urls[0], urls[1], urls[2]}
		}
		reg := telemetry.NewRegistry()
		s, err := New(Config{
			Registry:           reg,
			Peers:              peers,
			Self:               urls[i],
			PeerHealthInterval: 25 * time.Millisecond,
			ResultCacheEntries: -1,
		})
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

	// A list without self must be rejected atomically: error out, old
	// membership still in force, no reload counted.
	if err := nodes[0].srv.ReloadPeers([]string{urls[1], urls[2]}); err == nil {
		t.Fatal("reload without self must be rejected")
	}
	if got := nodes[0].reg.Gauge("cluster_peers").Value(); got != 2 {
		t.Fatalf("cluster_peers = %d after rejected reload, want 2", got)
	}
	if got := nodes[0].reg.Counter("membership_reloads_total").Value(); got != 0 {
		t.Fatalf("membership_reloads_total = %d after rejected reload, want 0", got)
	}

	// Announce node 2 to the incumbents.
	for _, i := range []int{0, 1} {
		if err := nodes[i].srv.ReloadPeers(urls); err != nil {
			t.Fatal(err)
		}
		if got := nodes[i].reg.Counter("membership_reloads_total").Value(); got != 1 {
			t.Fatalf("node %d membership_reloads_total = %d, want 1", i, got)
		}
		if got := nodes[i].reg.Gauge("cluster_peers").Value(); got != 3 {
			t.Fatalf("node %d cluster_peers = %d, want 3", i, got)
		}
		if !nodes[i].srv.cluster.routable(urls[2]) {
			t.Fatalf("node %d: freshly added peer must start routable", i)
		}
		if st := nodes[i].srv.cluster.stats(); len(st.Peers) != 3 || st.MembershipReloads != 1 {
			t.Fatalf("node %d stats: %d peer rows, %d reloads; want 3 and 1", i, len(st.Peers), st.MembershipReloads)
		}
	}

	// The new member participates immediately: a key it owns, built on
	// an incumbent, is pushed to it.
	req := reqOwnedBy(t, nodes, 2, decompKeyFor)
	key := decompKeyFor(t, req)
	postPartition(t, nodes[0].srv.Handler(), req)
	waitPushesSettled(t, nodes[0])
	if _, ok := nodes[2].srv.dec.Peek(key); !ok {
		t.Fatal("freshly added peer never received the push")
	}

	// Removal: node 0 drops node 2 — its client, health verdict, and
	// stats row disappear.
	if err := nodes[0].srv.ReloadPeers([]string{urls[0], urls[1]}); err != nil {
		t.Fatal(err)
	}
	if nodes[0].srv.cluster.client(urls[2]) != nil {
		t.Fatal("removed peer must lose its client")
	}
	if got := nodes[0].reg.Gauge("cluster_peers").Value(); got != 2 {
		t.Fatalf("cluster_peers = %d after removal, want 2", got)
	}
	if st := nodes[0].srv.cluster.stats(); len(st.Peers) != 2 || st.MembershipReloads != 2 {
		t.Fatalf("stats after removal: %d peer rows, %d reloads; want 2 and 2", len(st.Peers), st.MembershipReloads)
	}
}

// A single-peer "cluster" (self only) serves everything locally at any
// R: no fetches, no pushes, no wire — the degenerate case must behave
// exactly like a single-node daemon.
func TestClusterSinglePeerCluster(t *testing.T) {
	sw := &swapHandler{}
	sw.h.Store(http.NotFoundHandler())
	ts := httptest.NewServer(sw)
	defer ts.Close()
	reg := telemetry.NewRegistry()
	s, err := New(Config{
		Registry:           reg,
		Peers:              []string{ts.URL},
		Self:               ts.URL,
		Replication:        5, // over-asked R clamps to the ring size
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

	rec := postPartition(t, s.Handler(), testRequest())
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200", rec.Code)
	}
	if got := reg.Counter("decomp_builds_total").Value(); got != 1 {
		t.Fatalf("builds = %d, want 1", got)
	}
	for _, o := range fetchOutcomes {
		if got := labeled(reg, "peer_fetch_total", "outcome", string(o)); got != 0 {
			t.Fatalf("peer_fetch_total{outcome=%s} = %d, want 0 (self is every replica)", o, got)
		}
	}
	if got := labeled(reg, "peer_push_total", "outcome", "ok"); got != 0 {
		t.Fatalf("peer_push_total{outcome=ok} = %d, want 0 (fan-out skips self)", got)
	}
	st := s.cluster.stats()
	if !st.Enabled || len(st.Peers) != 1 || !st.Peers[0].Self || !st.Peers[0].Healthy {
		t.Fatalf("single-peer stats diverged: %+v", st)
	}
}

// The anti-entropy digest surface: /v1/peer/keys lists this daemon's
// key digests, behind peer auth and draining like every peer endpoint,
// and both stats and health gossip surface whether auth is on.
func TestClusterPeerKeysEndpoint(t *testing.T) {
	const secret = "keys-secret"
	nodes := startTestCluster(t, 2, func(i int, cfg *Config) {
		cfg.PeerSecret = secret
	})
	owner := nodes[0]
	req := reqOwnedBy(t, nodes, 0, decompKeyFor)
	key := decompKeyFor(t, req)
	postPartition(t, owner.srv.Handler(), req)

	get := func(path string, withSecret bool) *http.Response {
		t.Helper()
		r, _ := http.NewRequest(http.MethodGet, owner.url+path, nil)
		if withSecret {
			r.Header.Set(peerSecretHeader, secret)
		}
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Unauthenticated: the key listing is a map of what this daemon
	// holds — it must not leak.
	resp := get("/v1/peer/keys", false)
	var e apiError
	_ = json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden || e.Code != "peer_auth" {
		t.Fatalf("unauthenticated keys: status %d code %q, want 403 peer_auth", resp.StatusCode, e.Code)
	}

	resp = get("/v1/peer/keys", true)
	var view peerKeysView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("authenticated keys: status %d, want 200", resp.StatusCode)
	}
	found := false
	for _, k := range view.Decomp {
		if k == key {
			found = true
		}
	}
	if !found {
		t.Fatalf("keys listing %v omits the built key %s", view.Decomp, key[:8])
	}

	// Auth visibility: health gossip and the stats block both say the
	// peer surface is locked, so soaks can assert it end to end.
	resp = get("/v1/peer/health", true)
	var hv peerHealthView
	if err := json.NewDecoder(resp.Body).Decode(&hv); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !hv.AuthEnabled {
		t.Fatal("health gossip must report peer_auth_enabled=true")
	}
	rec := httptest.NewRecorder()
	owner.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var stats StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if !stats.Cluster.AuthEnabled {
		t.Fatal("/v1/stats cluster block must report peer_auth_enabled=true")
	}
	if stats.Cluster.Replication != 1 {
		t.Fatalf("stats replication = %d, want 1 (the default)", stats.Cluster.Replication)
	}
	if got := owner.reg.Gauge("peer_auth_enabled").Value(); got != 1 {
		t.Fatalf("peer_auth_enabled gauge = %d, want 1", got)
	}

	// Draining daemons refuse the sweep like every data endpoint.
	owner.srv.Drain()
	resp = get("/v1/peer/keys", true)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("keys on draining daemon: status %d, want 503", resp.StatusCode)
	}
}
