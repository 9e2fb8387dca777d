// Command hgpd is the long-running hierarchical-graph-partitioning
// daemon: it serves POST /v1/partition (solve an instance under a
// deadline), the /v1/graphs session routes (register a graph, PATCH
// deltas, re-solve incrementally), GET /v1/healthz, GET /v1/stats (JSON
// or Prometheus text), and /debug/pprof/*, amortizing decomposition
// builds across requests with an LRU cache and shedding load with 429
// when the admission queue fills. With -state-dir the cache and the
// sessions are durable across restarts; with -adaptive the solve
// ceiling follows observed latency AIMD-style; with -max-heap-bytes a
// memory-pressure breaker degrades service before the kernel OOM-kills
// the process. With -peers or -peers-file the daemon joins a shard
// group: each cache key lives on its top -replication peers, and
// anti-entropy repair restocks replicas that missed pushes. See API.md
// for the wire format and DESIGN.md for the serving architecture.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"hierpart/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address (use :0 for an ephemeral port; the resolved address is logged)")
		concurrency = flag.Int("concurrency", 0, "max simultaneous solves (0 = GOMAXPROCS)")
		queue       = flag.Int("queue", 64, "waiting room beyond -concurrency before shedding 429 (-1 = none)")
		cacheSize   = flag.Int("cache", 128, "decomposition LRU entries (-1 = disable caching)")
		resultCache = flag.Int("result-cache", 256, "full-result LRU entries: repeat requests skip decomposition and DP (-1 = disable)")
		timeout     = flag.Duration("timeout", 30*time.Second, "default per-request deadline")
		maxTimeout  = flag.Duration("max-timeout", 5*time.Minute, "upper bound on any per-request deadline")
		workers     = flag.Int("workers", 0, "per-solve worker budget (0 = GOMAXPROCS)")
		maxStates   = flag.Int("max-states", 50_000_000, "per-request DP state budget ceiling")
		maxVertices = flag.Int("max-vertices", 100_000, "reject graphs with more vertices than this (413)")
		maxEdges    = flag.Int("max-edges", 2_000_000, "reject graphs with more edges than this (413)")
		maxSessions = flag.Int("max-sessions", 64, "graph-session LRU entries (/v1/graphs incremental repartitioning); least recently used sessions are evicted (-1 = disable sessions)")
		drainWait   = flag.Duration("drain-wait", time.Minute, "how long shutdown waits for in-flight solves")

		stateDir     = flag.String("state-dir", "", "directory for durable cache snapshots (empty = memory-only cache)")
		snapInterval = flag.Duration("snapshot-interval", 2*time.Second, "how often the background flusher snapshots staged cache entries")
		adaptive     = flag.Bool("adaptive", false, "AIMD concurrency limiter: move the solve ceiling with observed latency vs. deadline headroom")
		maxHeap      = flag.Int64("max-heap-bytes", 0, "memory-pressure breaker threshold on the live heap (0 = disabled)")
		canonFlag    = flag.Bool("canon", false, "canonical-form graph fingerprinting: key caches by a label-invariant fingerprint so isomorphic (relabelled) submissions share entries; responses carry canon_hit")

		peersFlag   = flag.String("peers", "", "cluster mode: comma-separated base URLs of EVERY member of the shard group, including this daemon's own (see -self); each cache key is homed on its top-R rendezvous-hash owners (see -replication), non-replicas fetch from them and push local builds back")
		peersFile   = flag.String("peers-file", "", "cluster mode: read the peer list from this file instead of -peers (whitespace/comma separated, # comments); SIGHUP — or an observed mtime change — re-reads it and reloads membership without a restart")
		selfFlag    = flag.String("self", "", "this daemon's own entry in the peer list (the base URL peers reach it at); required with -peers/-peers-file")
		replication = flag.Int("replication", 1, "replicas per cache key: each key lives on its top-R rendezvous-hash peers (clamped to the cluster size); 1 = single ownership")
		peerTimeout = flag.Duration("peer-timeout", 2*time.Second, "per-attempt timeout for peer fetches, pushes and repair pulls (at most two attempts each)")
		peerSecret  = flag.String("peer-secret", "", "cluster shared secret: every /v1/peer/* request must carry it (X-Hgpd-Peer-Secret; wrong or missing = 403) and outgoing peer traffic attaches it; all peers must share one value; falls back to the HGPD_PEER_SECRET env var (keeps the secret off the process list); empty = unauthenticated, safe ONLY on a network unreachable by untrusted clients")
		repairEvery = flag.Duration("repair-interval", 30*time.Second, "how often the anti-entropy sweep exchanges key digests with peers and pulls entries this daemon's replicas are missing (the sweep also runs at startup and when a peer recovers; must be > 0)")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: hgpd [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	peers := splitPeers(*peersFlag)
	secret := *peerSecret
	if secret == "" {
		secret = os.Getenv("HGPD_PEER_SECRET")
	}
	if err := validateFlags(*concurrency, *queue, *cacheSize, *resultCache, *timeout, *maxTimeout,
		*workers, *maxStates, *maxVertices, *maxEdges, *drainWait,
		*stateDir, *snapInterval, *maxHeap, *maxSessions); err != nil {
		fmt.Fprintf(os.Stderr, "hgpd: %v\n", err)
		os.Exit(2)
	}
	if *peersFile != "" {
		if len(peers) != 0 {
			fmt.Fprintln(os.Stderr, "hgpd: -peers and -peers-file must not both be set; pick one peer-list source")
			os.Exit(2)
		}
		filePeers, err := readPeersFile(*peersFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hgpd: -peers-file: %v\n", err)
			os.Exit(2)
		}
		peers = filePeers
	}
	if err := validateClusterFlags(peers, *selfFlag, *cacheSize, *peerTimeout, *replication, *repairEvery); err != nil {
		fmt.Fprintf(os.Stderr, "hgpd: %v\n", err)
		os.Exit(2)
	}

	srv, err := server.New(server.Config{
		MaxConcurrent:      *concurrency,
		MaxQueue:           *queue,
		DefaultTimeout:     *timeout,
		MaxTimeout:         *maxTimeout,
		CacheEntries:       *cacheSize,
		ResultCacheEntries: *resultCache,
		SolverWorkers:      *workers,
		MaxStates:          *maxStates,
		MaxVertices:        *maxVertices,
		MaxEdges:           *maxEdges,
		MaxSessions:        *maxSessions,
		StateDir:           *stateDir,
		SnapshotInterval:   *snapInterval,
		Adaptive:           *adaptive,
		MaxHeapBytes:       *maxHeap,
		Canon:              *canonFlag,

		Peers:          peers,
		Self:           *selfFlag,
		Replication:    *replication,
		PeerTimeout:    *peerTimeout,
		PeerSecret:     secret,
		RepairInterval: *repairEvery,
	})
	if err != nil {
		log.Fatalf("hgpd: %v", err)
	}
	if len(peers) > 0 && secret == "" {
		log.Printf("hgpd: WARNING: cluster mode without -peer-secret (or HGPD_PEER_SECRET): /v1/peer/* is unauthenticated, and any client that can reach %s can read or poison the shared caches — run unauthenticated only on a network unreachable by untrusted clients", *addr)
	}

	// Listen explicitly (rather than ListenAndServe) so -addr :0 works:
	// the resolved address is logged before serving begins, and tests or
	// supervisors can parse it instead of racing a port guess.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("hgpd: listen: %v", err)
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	log.Printf("hgpd listening on %s", ln.Addr())

	if *peersFile != "" {
		// Dynamic membership: SIGHUP re-reads the peers file on demand,
		// and an mtime poll catches edits when nobody signals (config
		// management that writes files but not signals). Both paths
		// funnel through one goroutine so reloads are serialized.
		hupCh := make(chan os.Signal, 1)
		signal.Notify(hupCh, syscall.SIGHUP)
		go watchPeersFile(*peersFile, hupCh, srv.ReloadPeers)
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		log.Printf("received %v; draining (up to %v)", sig, *drainWait)
	case err := <-errCh:
		log.Fatalf("hgpd: %v", err)
	}

	// Graceful shutdown: flip healthz to draining and refuse new solves,
	// wait for in-flight ones (then flush cache snapshots), then close
	// listeners.
	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("hgpd: %v (abandoning in-flight solves)", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("hgpd: http shutdown: %v", err)
	}
	log.Printf("hgpd stopped")
}

// validateFlags rejects nonsensical flag values at startup with a clear
// error instead of letting withDefaults silently reinterpret them.
// -queue and -cache keep their documented -1 = disabled convention;
// everything else must be non-negative, and duration/size flags that
// something divides by or sleeps on must be strictly positive.
func validateFlags(concurrency, queue, cacheSize, resultCache int, timeout, maxTimeout time.Duration,
	workers, maxStates, maxVertices, maxEdges int, drainWait time.Duration,
	stateDir string, snapInterval time.Duration, maxHeap int64, maxSessions int) error {
	switch {
	case concurrency < 0:
		return fmt.Errorf("-concurrency %d: must be >= 0 (0 = GOMAXPROCS)", concurrency)
	case queue < -1:
		return fmt.Errorf("-queue %d: must be >= -1 (-1 = no waiting room)", queue)
	case cacheSize < -1:
		return fmt.Errorf("-cache %d: must be >= -1 (-1 = disable caching)", cacheSize)
	case resultCache < -1:
		return fmt.Errorf("-result-cache %d: must be >= -1 (-1 = disable)", resultCache)
	case timeout <= 0:
		return fmt.Errorf("-timeout %v: must be > 0", timeout)
	case maxTimeout <= 0:
		return fmt.Errorf("-max-timeout %v: must be > 0", maxTimeout)
	case maxTimeout < timeout:
		return fmt.Errorf("-max-timeout %v: must be >= -timeout (%v)", maxTimeout, timeout)
	case workers < 0:
		return fmt.Errorf("-workers %d: must be >= 0 (0 = GOMAXPROCS)", workers)
	case maxStates <= 0:
		return fmt.Errorf("-max-states %d: must be > 0", maxStates)
	case maxVertices <= 0:
		return fmt.Errorf("-max-vertices %d: must be > 0", maxVertices)
	case maxEdges <= 0:
		return fmt.Errorf("-max-edges %d: must be > 0", maxEdges)
	case drainWait <= 0:
		return fmt.Errorf("-drain-wait %v: must be > 0", drainWait)
	case snapInterval <= 0:
		return fmt.Errorf("-snapshot-interval %v: must be > 0", snapInterval)
	case maxHeap < 0:
		return fmt.Errorf("-max-heap-bytes %d: must be >= 0 (0 = breaker disabled)", maxHeap)
	case stateDir != "" && cacheSize == -1:
		return fmt.Errorf("-state-dir requires caching: -cache must not be -1")
	case maxSessions < -1:
		return fmt.Errorf("-max-sessions %d: must be >= -1 (-1 = disable sessions)", maxSessions)
	}
	return nil
}

// splitPeers parses the -peers value: comma-separated, whitespace
// around entries tolerated, empty segments dropped. An empty flag
// yields nil (cluster mode off).
func splitPeers(s string) []string {
	var peers []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	return peers
}

// readPeersFile parses a -peers-file: peer base URLs separated by
// whitespace, newlines, or commas, with #-to-end-of-line comments.
func readPeersFile(path string) ([]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var peers []string
	for _, line := range strings.Split(string(raw), "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		for _, p := range strings.FieldsFunc(line, func(r rune) bool {
			return r == ',' || r == ' ' || r == '\t' || r == '\r'
		}) {
			peers = append(peers, p)
		}
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("%s: no peers listed", path)
	}
	return peers, nil
}

// peersFilePollInterval is how often the membership watcher checks the
// peers file's mtime between signals.
const peersFilePollInterval = 2 * time.Second

// watchPeersFile reloads cluster membership from path whenever SIGHUP
// arrives or the file's mtime changes. A reload that fails to read or
// validate is logged and the previous membership stays in force — a
// half-written file must never take the cluster down.
func watchPeersFile(path string, hup <-chan os.Signal, reload func([]string) error) {
	var lastMod time.Time
	if st, err := os.Stat(path); err == nil {
		lastMod = st.ModTime()
	}
	tick := time.NewTicker(peersFilePollInterval)
	defer tick.Stop()
	for {
		select {
		case <-hup:
			log.Printf("hgpd: SIGHUP: reloading peer list from %s", path)
		case <-tick.C:
			st, err := os.Stat(path)
			if err != nil || st.ModTime().Equal(lastMod) {
				continue
			}
			lastMod = st.ModTime()
			log.Printf("hgpd: %s changed; reloading peer list", path)
		}
		if st, err := os.Stat(path); err == nil {
			lastMod = st.ModTime()
		}
		peers, err := readPeersFile(path)
		if err != nil {
			log.Printf("hgpd: peers reload rejected: %v (keeping current membership)", err)
			continue
		}
		if err := reload(peers); err != nil {
			log.Printf("hgpd: peers reload rejected: %v (keeping current membership)", err)
			continue
		}
		log.Printf("hgpd: cluster membership now %d peers", len(peers))
	}
}

// validateClusterFlags checks the cluster flag group's internal
// consistency. server.New re-validates (tests construct Config
// directly), but catching operator typos here yields a flag-named
// message and exit code 2 instead of a runtime error.
func validateClusterFlags(peers []string, self string, cacheSize int, peerTimeout time.Duration, replication int, repairEvery time.Duration) error {
	if len(peers) == 0 {
		if self != "" {
			return fmt.Errorf("-self %q: requires -peers or -peers-file", self)
		}
		return nil
	}
	switch {
	case self == "":
		return fmt.Errorf("the peer list requires -self: name this daemon's own entry in it")
	case !slices.Contains(peers, self):
		return fmt.Errorf("-self %q: must appear in the peer list %v", self, peers)
	case cacheSize == -1:
		return fmt.Errorf("cluster mode requires caching: -cache must not be -1")
	case peerTimeout <= 0:
		return fmt.Errorf("-peer-timeout %v: must be > 0", peerTimeout)
	case replication < 1:
		// R greater than the cluster size is fine (the ring clamps it);
		// R below 1 cannot mean anything.
		return fmt.Errorf("-replication %d: must be >= 1 (values above the cluster size are clamped)", replication)
	case repairEvery <= 0:
		return fmt.Errorf("-repair-interval %v: must be > 0 (repair is the only path that restocks a replica)", repairEvery)
	}
	return nil
}
