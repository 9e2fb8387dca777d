package main

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// The cluster failover soak: three real hgpd processes sharing one
// -peers list, primed so every cache key has exactly one build
// cluster-wide, driven through all three endpoints by a real hgpload
// process, then one daemon SIGKILLed mid-load. The survivors must keep
// the SLO (success >= 99%, every non-200 machine-readably tagged),
// re-owning the dead peer's keys via local fallback, and the killed
// daemon must rejoin warm from its -state-dir and be seen healthy by
// the survivors again. Peer-fetch-served responses are checked
// bit-identical to locally solved ones along the way.
//
// HGP_SOAK_SECONDS scales each load phase, HGP_SOAK_RACE=1 builds the
// binaries with the race detector, HGP_SOAK_ARTIFACTS names a
// directory to save the hgpload JSON reports into (CI uploads them).
func TestClusterFailoverSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test spawns real processes; skipped with -short")
	}
	phase := 3 * time.Second
	if v := os.Getenv("HGP_SOAK_SECONDS"); v != "" {
		secs, err := strconv.Atoi(v)
		if err != nil || secs <= 0 {
			t.Fatalf("HGP_SOAK_SECONDS=%q: want a positive integer", v)
		}
		phase = time.Duration(secs) * time.Second
	}

	bin := t.TempDir()
	hgpd := buildBinary(t, bin, "hgpd")
	hgpload := buildBinary(t, bin, "hgpload")

	// Cluster peers must know each other's addresses before any daemon
	// starts, so ports are reserved up front instead of using :0.
	ports := freePorts(t, 3)
	peers := make([]string, 3)
	addrs := make([]string, 3)
	stateDirs := make([]string, 3)
	for i, p := range ports {
		addrs[i] = "127.0.0.1:" + strconv.Itoa(p)
		peers[i] = "http://" + addrs[i]
		stateDirs[i] = t.TempDir()
	}
	peerList := strings.Join(peers, ",")

	startNode := func(i int) *daemon {
		return startDaemonArgs(t, hgpd,
			"-addr", addrs[i],
			"-state-dir", stateDirs[i],
			"-snapshot-interval", "50ms",
			"-concurrency", "2",
			"-queue", "16",
			"-timeout", "5s",
			"-drain-wait", "20s",
			"-peers", peerList,
			"-self", peers[i],
			// Tight peer budget: a dead owner must cost a request well
			// under its deadline (250ms per attempt, two attempts).
			"-peer-timeout", "250ms",
			// The soak runs the cluster authenticated, as production
			// should: every peer fetch/push/health exchange carries the
			// shared secret end-to-end through real binaries.
			"-peer-secret", "cluster-soak-secret",
		)
	}
	nodes := make([]*daemon, 3)
	for i := range nodes {
		nodes[i] = startNode(i)
	}
	bases := []string{nodes[0].base, nodes[1].base, nodes[2].base}
	waitClusterHealthy(t, bases)

	// Prime phase: seeds 1..4 posted to every daemon (node 0 first),
	// seeds 5..8 to node 0 only. Waiting for pushes to settle between
	// posts makes "exactly one build per key cluster-wide" exact, and
	// leaves nodes 1 and 2 four keys they have never seen — guaranteed
	// peer-fetch material for the steady phase.
	const sharedSeeds, extraSeeds = 4, 4
	for seed := int64(1); seed <= sharedSeeds; seed++ {
		var want map[string]any
		for i, node := range nodes {
			rec := postJSON(t, node.base+"/v1/partition", loadBody(seed))
			if rec.status != http.StatusOK {
				t.Fatalf("prime seed %d on node %d: %d (%s)", seed, i, rec.status, rec.body)
			}
			got := stableResponse(t, rec.body)
			if want == nil {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: node %d response differs from node 0:\n%v\nvs\n%v", seed, i, got, want)
			}
			waitPushesSettled(t, node.base)
		}
	}
	for seed := int64(sharedSeeds + 1); seed <= sharedSeeds+extraSeeds; seed++ {
		rec := postJSON(t, nodes[0].base+"/v1/partition", loadBody(seed))
		if rec.status != http.StatusOK {
			t.Fatalf("prime seed %d: %d (%s)", seed, rec.status, rec.body)
		}
		waitPushesSettled(t, nodes[0].base)
	}

	// Exactly one decomposition build per key across the whole cluster:
	// non-owners either fetched the entry off the owner or pushed their
	// own build to it, never rebuilt.
	var builds int64
	for _, base := range bases {
		st := waitStat(t, base, 5*time.Second, func(soakStats) bool { return true })
		builds += st.counter("decomp_builds_total")
	}
	if want := int64(sharedSeeds + extraSeeds); builds != want {
		t.Fatalf("cluster-wide decomp builds = %d, want exactly %d (one per key)", builds, want)
	}

	// Steady phase: closed-loop load through all three endpoints with
	// the SLO gates armed. Nodes 1 and 2 meet seeds 5..8 for the first
	// time here, so peer fetch hits must show up in the report.
	steady := startLoad(t, hgpload, bases[0], phase, []string{
		"-endpoints", strings.Join(bases, ","),
		"-seeds", strconv.Itoa(sharedSeeds + extraSeeds),
		"-strict", "-slo-success", "0.99",
	})
	sumSteady := steady.wait(t)
	saveArtifact(t, "cluster-steady.json", steady.stdout.Bytes())
	if sumSteady.OK == 0 {
		t.Fatal("steady phase produced no successes; the soak is vacuous")
	}
	if sumSteady.PeerFetchHits == 0 {
		t.Fatal("steady phase saw no peer fetch hits; the cluster is not sharing entries")
	}
	if sumSteady.Errors != 0 || sumSteady.Unexpected != 0 {
		t.Fatalf("steady phase: %d errors, %d unexpected", sumSteady.Errors, sumSteady.Unexpected)
	}

	// Failover phase: zipf multi-tenant load (mostly-fresh keys, so
	// survivors must route around the corpse for every key it owns),
	// node 0 SIGKILLed mid-load. Closed-loop with 8 workers never
	// overflows the 2+16 waiting room, so the only threat to the 99%
	// SLO is the failure handling itself.
	failover := startLoad(t, hgpload, bases[0], phase, []string{
		"-endpoints", strings.Join(bases, ","),
		"-workload", "zipf", "-tenants", "12",
		"-strict", "-slo-success", "0.99",
	})
	time.Sleep(phase / 3)
	// The rejoin check below probes a key that must still be in node
	// 0's snapshot when it dies. The snapshot keeps only the newest
	// -cache (128) entries and the zipf load lands fresh entries on
	// node 0 at a rate set by solver speed, so a key primed before this
	// load can already be pruned at the kill. Build the probe key on
	// node 0 now, mid-load (no_degrade: only the full pipeline answers,
	// so the decomposition is cached and staged before the response),
	// and wait until it is on disk.
	probeSeed := int64(sharedSeeds + extraSeeds + 1)
	probe := loadBodyWith(probeSeed, map[string]any{"no_degrade": true})
	if rec := postJSON(t, nodes[0].base+"/v1/partition", probe); rec.status != http.StatusOK {
		t.Fatalf("probe seed %d on node 0: %d (%s)", probeSeed, rec.status, rec.body)
	}
	waitFlushedAfter(t, nodes[0].base, time.Now())
	if err := nodes[0].cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = nodes[0].cmd.Wait() // SIGKILL: nonzero exit expected
	sumFail := failover.wait(t)
	saveArtifact(t, "cluster-failover.json", failover.stdout.Bytes())
	if sumFail.OK == 0 {
		t.Fatal("failover phase produced no successes")
	}
	if sumFail.Failovers == 0 {
		t.Fatal("failover phase recorded no endpoint failovers; was the node really killed mid-load?")
	}

	// Survivors must have demoted the dead peer by now (a failed poll
	// or a failed call — either way it is out of the routing set).
	for _, base := range bases[1:] {
		waitStat(t, base, 15*time.Second, func(st soakStats) bool {
			return !peerHealthyOn(st, peers[0])
		})
	}

	// Rejoin: restart node 0 on its state dir. It must come back warm —
	// snapshot entries loaded, zero rebuilds, first repeat request a
	// cache hit — and the survivors must see it healthy again. The
	// repeat uses a fresh eps: eps is part of the RESULT key but not the
	// decomposition key, so the result caches miss cluster-wide and the
	// request must ride the snapshot-warmed local decomposition cache
	// (a plain repeat would be answered by a peer's result cache, which
	// proves failover, not warmth).
	nodes[0] = startNode(0)
	st := waitStat(t, nodes[0].base, 10*time.Second, func(soakStats) bool { return true })
	if st.gauge("snapshot_warm_entries") < 1 {
		t.Fatalf("restarted node loaded %d warm entries, want >= 1", st.gauge("snapshot_warm_entries"))
	}
	rec := postJSON(t, nodes[0].base+"/v1/partition", loadBodyWith(probeSeed, map[string]any{"eps": 0.25}))
	if rec.status != http.StatusOK {
		t.Fatalf("repeat request after rejoin: %d (%s)", rec.status, rec.body)
	}
	var pr struct {
		CacheHit bool `json:"cache_hit"`
	}
	if err := json.Unmarshal(rec.body, &pr); err != nil || !pr.CacheHit {
		t.Fatalf("first repeat request after rejoin must be a warm cache hit: %s", rec.body)
	}
	st = waitStat(t, nodes[0].base, 5*time.Second, func(soakStats) bool { return true })
	if got := st.counter("decomp_builds_total"); got != 0 {
		t.Fatalf("restarted node rebuilt %d decompositions, want 0 (snapshot should carry them)", got)
	}
	for _, base := range bases[1:] {
		waitStat(t, base, 15*time.Second, func(st soakStats) bool {
			return peerHealthyOn(st, peers[0])
		})
	}

	// Graceful exit for the whole cluster: SIGTERM drains, exit code 0.
	for i, node := range []*daemon{nodes[0], nodes[1], nodes[2]} {
		if err := node.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func(n *daemon) { done <- n.cmd.Wait() }(node)
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("node %d graceful shutdown exit: %v", i, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("node %d did not exit after SIGTERM", i)
		}
	}
}

// loadBodyWith is loadBody with the given top-level fields set, for
// example an explicit eps, which steers a request past the result
// caches (eps fragments the result key) while keeping its
// decomposition identity.
func loadBodyWith(seed int64, fields map[string]any) []byte {
	var m map[string]any
	if err := json.Unmarshal(loadBody(seed), &m); err != nil {
		panic(err)
	}
	for k, v := range fields {
		m[k] = v
	}
	raw, err := json.Marshal(m)
	if err != nil {
		panic(err)
	}
	return raw
}

// freePorts reserves n distinct TCP ports by binding :0 and releasing
// them. The gap between release and the daemon's bind is a textbook
// race, but the test owns the machine's ephemeral range in practice.
func freePorts(t *testing.T, n int) []int {
	t.Helper()
	ports := make([]int, n)
	for i := range ports {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ports[i] = ln.Addr().(*net.TCPAddr).Port
		ln.Close()
	}
	return ports
}

// waitClusterHealthy blocks until every daemon reports every peer
// healthy. Pushes to a peer still marked unroutable (a poller may race
// a neighbor's startup) are silently dropped, which would break the
// exactly-one-build accounting the prime phase asserts.
func waitClusterHealthy(t *testing.T, bases []string) {
	t.Helper()
	for _, base := range bases {
		waitStat(t, base, 15*time.Second, func(st soakStats) bool {
			if !st.Cluster.Enabled || len(st.Cluster.Peers) == 0 {
				return false
			}
			for _, p := range st.Cluster.Peers {
				if !p.Healthy {
					return false
				}
			}
			return true
		})
	}
}

// waitPushesSettled waits for the daemon's in-flight owner-ward pushes
// to drain. The peer_push_inflight gauge is incremented synchronously
// with the serving request, so polling it to zero after a response is
// a race-free barrier.
func waitPushesSettled(t *testing.T, base string) {
	t.Helper()
	waitStat(t, base, 10*time.Second, func(st soakStats) bool {
		return st.gauge("peer_push_inflight") == 0
	})
}

// waitFlushedAfter blocks until base's snapshot flusher has written
// every entry staged before since. Flushes run one at a time and take
// their batch when they start, so the second flush to complete after
// since will do. Completion times are read back from
// last_flush_age_seconds, late by the stats round trip, so each must
// clear the previous reference by a margin (half the soak's 50ms
// snapshot interval) that no two reads of one flush can span.
func waitFlushedAfter(t *testing.T, base string, since time.Time) {
	t.Helper()
	const margin = 25 * time.Millisecond
	for i := 0; i < 2; i++ {
		var flushed time.Time
		waitStat(t, base, 10*time.Second, func(st soakStats) bool {
			age := st.Snapshots.LastFlushAgeSecs
			flushed = time.Now().Add(-time.Duration(age * float64(time.Second)))
			return age > 0 && flushed.After(since.Add(margin))
		})
		since = flushed
	}
}

func peerHealthyOn(st soakStats, peer string) bool {
	for _, p := range st.Cluster.Peers {
		if p.Peer == peer {
			return p.Healthy
		}
	}
	return false
}

// stableResponse strips the volatile fields from a partition response —
// timings and cache/peer provenance flags legitimately differ between
// a local solve and a peer-fetch-served answer — leaving the solver
// output, which must be bit-identical cluster-wide.
func stableResponse(t *testing.T, raw []byte) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("unmarshal response: %v\n%s", err, raw)
	}
	for _, k := range []string{
		"elapsed_ms", "decompose_ms", "solve_ms",
		"cache_hit", "result_cache_hit", "peer_fetch_hit", "canon_hit",
		"degradation",
	} {
		delete(m, k)
	}
	return m
}

// saveArtifact writes a load report into HGP_SOAK_ARTIFACTS for CI to
// upload; a no-op when the variable is unset.
func saveArtifact(t *testing.T, name string, raw []byte) {
	t.Helper()
	dir := os.Getenv("HGP_SOAK_ARTIFACTS")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("artifacts: %v", err)
		return
	}
	if err := os.WriteFile(filepath.Join(dir, name), bytes.TrimSpace(raw), 0o644); err != nil {
		t.Logf("artifacts: %v", err)
	}
}

// The replication soak: three real hgpd processes at -replication 2,
// membership sourced from a shared -peers-file, exercising four phases
// end to end through real binaries:
//
//  1. node loss with zero cold rebuilds — every key has a second
//     replica, so killing the cluster's builder mid-load leaves the
//     survivors serving entirely from caches and replica fetches;
//  2. rejoin — builds made while a replica is dead never reach it, and
//     after it restarts, repair pulls them and it serves them without
//     rebuilding;
//  3. anti-entropy — a replica restarted with a blanked state dir
//     repairs itself from its peers without rebuilding;
//  4. dynamic membership — a fourth node joins via peers-file rewrite
//     plus SIGHUP under strict-SLO load.
//
// Both rejoins converge through the startup sweep and the recovery
// kicks at the default -repair-interval, not through a short timer.
//
// Same knobs as TestClusterFailoverSoak: HGP_SOAK_SECONDS scales the
// load phases, HGP_SOAK_RACE=1 races the binaries, HGP_SOAK_ARTIFACTS
// collects the hgpload reports for CI's jq gates.
func TestClusterReplicationSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test spawns real processes; skipped with -short")
	}
	phase := 3 * time.Second
	if v := os.Getenv("HGP_SOAK_SECONDS"); v != "" {
		secs, err := strconv.Atoi(v)
		if err != nil || secs <= 0 {
			t.Fatalf("HGP_SOAK_SECONDS=%q: want a positive integer", v)
		}
		phase = time.Duration(secs) * time.Second
	}

	bin := t.TempDir()
	hgpd := buildBinary(t, bin, "hgpd")
	hgpload := buildBinary(t, bin, "hgpload")

	// Four ports reserved up front: the fourth node joins mid-test, but
	// its address must be known to write into the peers file.
	ports := freePorts(t, 4)
	peers := make([]string, 4)
	addrs := make([]string, 4)
	stateDirs := make([]string, 4)
	for i, p := range ports {
		addrs[i] = "127.0.0.1:" + strconv.Itoa(p)
		peers[i] = "http://" + addrs[i]
		stateDirs[i] = t.TempDir()
	}
	peersFile := filepath.Join(t.TempDir(), "peers.txt")
	writePeers := func(n int) {
		t.Helper()
		if err := os.WriteFile(peersFile, []byte(strings.Join(peers[:n], "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writePeers(3)

	startNode := func(i int) *daemon {
		return startDaemonArgs(t, hgpd,
			"-addr", addrs[i],
			"-state-dir", stateDirs[i],
			"-snapshot-interval", "50ms",
			"-concurrency", "2",
			"-queue", "16",
			"-timeout", "5s",
			"-drain-wait", "20s",
			"-peers-file", peersFile,
			"-self", peers[i],
			"-replication", "2",
			"-peer-timeout", "250ms",
			"-peer-secret", "replication-soak-secret",
		)
	}
	nodes := make([]*daemon, 4)
	for i := 0; i < 3; i++ {
		nodes[i] = startNode(i)
	}
	bases := []string{nodes[0].base, nodes[1].base, nodes[2].base}
	waitClusterHealthy(t, bases)

	// Prime: six seeds, all through node 0. Every key is replicated to
	// its top-2 HRW owners, so each lives on at least one of nodes 1/2.
	const seeds = 6
	for seed := int64(1); seed <= seeds; seed++ {
		rec := postJSON(t, nodes[0].base+"/v1/partition", loadBody(seed))
		if rec.status != http.StatusOK {
			t.Fatalf("prime seed %d: %d (%s)", seed, rec.status, rec.body)
		}
		waitPushesSettled(t, nodes[0].base)
	}
	survivorBuilds := func() int64 {
		var b int64
		for _, base := range bases[1:] {
			st := waitStat(t, base, 5*time.Second, func(soakStats) bool { return true })
			b += st.counter("decomp_builds_total")
		}
		return b
	}
	before := survivorBuilds()
	if before != 0 {
		t.Fatalf("survivors built %d decompositions during the prime, want 0 (all builds on node 0)", before)
	}

	// Phase 1: strict-SLO load across all three endpoints, node 0 (the
	// holder of every build) SIGKILLed a third of the way in. The
	// survivors must serve every key from replicas — zero rebuilds.
	failover := startLoad(t, hgpload, bases[0], phase, []string{
		"-endpoints", strings.Join(bases, ","),
		"-seeds", strconv.Itoa(seeds),
		"-failover-cooldown", "500ms",
		"-strict", "-slo-success", "0.99",
	})
	time.Sleep(phase / 3)
	if err := nodes[0].cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = nodes[0].cmd.Wait() // SIGKILL: nonzero exit expected
	sumFail := failover.wait(t)
	saveArtifact(t, "replicated-failover.json", failover.stdout.Bytes())
	if sumFail.OK == 0 {
		t.Fatal("failover phase produced no successes; the soak is vacuous")
	}
	if sumFail.Failovers == 0 {
		t.Fatal("failover phase recorded no endpoint failovers; was the node really killed mid-load?")
	}
	if after := survivorBuilds(); after != before {
		t.Fatalf("survivors rebuilt %d decompositions after the kill, want 0 (replication must cover the loss)", after-before)
	}
	buildsReport, _ := json.Marshal(map[string]int64{
		"survivor_builds_before_kill": before,
		"survivor_builds_after_kill":  survivorBuilds(),
	})
	saveArtifact(t, "replicated-builds.json", buildsReport)
	for _, base := range bases[1:] {
		waitStat(t, base, 15*time.Second, func(st soakStats) bool {
			return !peerHealthyOn(st, peers[0])
		})
	}

	// Phase 2: rejoin. With node 0 still dead, node 1 builds the outage
	// seeds; the survivors have shed node 0, so no push reaches it.
	for seed := int64(101); seed <= 100+seeds; seed++ {
		rec := postJSON(t, nodes[1].base+"/v1/partition", loadBody(seed))
		if rec.status != http.StatusOK {
			t.Fatalf("outage seed %d: %d (%s)", seed, rec.status, rec.body)
		}
		waitPushesSettled(t, nodes[1].base)
	}

	// Restart node 0 on its state dir: its startup sweep pulls the
	// outage entries it replicates. The 40s wait covers one periodic
	// sweep (default 30s) should the startup sweep miss.
	nodes[0] = startNode(0)
	waitClusterHealthy(t, bases)
	waitStat(t, nodes[0].base, 40*time.Second, func(st soakStats) bool {
		return st.counter("repair_pulled_total") >= 1
	})
	// The pulled entries, the snapshots it kept, and replica fetches for
	// the keys it does not replicate mean node 0 serves the outage
	// seeds without a single build.
	for seed := int64(101); seed <= 100+seeds; seed++ {
		rec := postJSON(t, nodes[0].base+"/v1/partition", loadBody(seed))
		if rec.status != http.StatusOK {
			t.Fatalf("outage seed %d on rejoined node 0: %d (%s)", seed, rec.status, rec.body)
		}
	}
	st := waitStat(t, nodes[0].base, 5*time.Second, func(soakStats) bool { return true })
	rejoinReport, _ := json.Marshal(map[string]int64{
		"rejoined_builds": st.counter("decomp_builds_total"),
		"repair_pulled":   st.counter("repair_pulled_total"),
	})
	saveArtifact(t, "replicated-rejoin.json", rejoinReport)
	if got := st.counter("decomp_builds_total"); got != 0 {
		t.Fatalf("rejoined node built %d decompositions, want 0 (repair + replicas must cover it)", got)
	}

	// Phase 3: anti-entropy. Node 1 leaves gracefully, loses its entire
	// state dir, and rejoins blank. Its startup sweep must converge it
	// from its peers — pulled entries, zero rebuilds.
	if err := nodes[1].cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := nodes[1].cmd.Wait(); err != nil {
		t.Fatalf("node 1 graceful shutdown exit: %v", err)
	}
	if err := os.RemoveAll(stateDirs[1]); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(stateDirs[1], 0o755); err != nil {
		t.Fatal(err)
	}
	nodes[1] = startNode(1)
	waitClusterHealthy(t, bases)
	st = waitStat(t, nodes[1].base, 40*time.Second, func(st soakStats) bool {
		return st.counter("repair_pulled_total") >= 1
	})
	if got := st.counter("decomp_builds_total"); got != 0 {
		t.Fatalf("blanked replica built %d decompositions, want 0 (repair must pull, not rebuild)", got)
	}

	// Phase 4: dynamic membership under load. A fourth node joins: the
	// peers file grows, the newcomer boots from it, and the incumbents
	// SIGHUP-reload mid-load without denting the SLO.
	sighup := startLoad(t, hgpload, bases[0], phase, []string{
		"-endpoints", strings.Join(bases, ","),
		"-seeds", strconv.Itoa(seeds),
		"-strict", "-slo-success", "0.99",
	})
	time.Sleep(phase / 3)
	writePeers(4)
	nodes[3] = startNode(3)
	for i := 0; i < 3; i++ {
		if err := nodes[i].cmd.Process.Signal(syscall.SIGHUP); err != nil {
			t.Fatal(err)
		}
	}
	sumHup := sighup.wait(t)
	saveArtifact(t, "replicated-sighup.json", sighup.stdout.Bytes())
	if sumHup.OK == 0 {
		t.Fatal("SIGHUP phase produced no successes")
	}
	if sumHup.Errors != 0 || sumHup.Unexpected != 0 {
		t.Fatalf("SIGHUP phase: %d errors, %d unexpected", sumHup.Errors, sumHup.Unexpected)
	}
	all := append(append([]string(nil), bases...), nodes[3].base)
	for i := 0; i < 3; i++ {
		waitStat(t, bases[i], 15*time.Second, func(st soakStats) bool {
			return st.counter("membership_reloads_total") >= 1 && st.gauge("cluster_peers") == 4
		})
	}
	waitClusterHealthy(t, all)

	// Graceful exit for all four members.
	for i, node := range nodes {
		if err := node.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func(n *daemon) { done <- n.cmd.Wait() }(node)
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("node %d graceful shutdown exit: %v", i, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("node %d did not exit after SIGTERM", i)
		}
	}
}
