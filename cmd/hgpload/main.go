// Command hgpload is a load generator for hgpd: it drives POST
// /v1/partition in closed-loop (a fixed worker pool, each worker
// issuing its next request when the previous one returns) or open-loop
// (a fixed arrival rate, independent of response times — the shape that
// actually exposes queueing collapse) mode, classifies every response,
// and prints a JSON summary with latency percentiles and the fraction of
// 200s the daemon answered from its full-solve result cache.
//
// Two workload shapes are available: -workload seeds (the default; one
// fixed two-clique instance under rotating decomposition seeds) and
// -workload zipf (a zipf-distributed multi-tenant population, each
// tenant resubmitting its own streaming-topology instance under fresh
// vertex relabellings — the shape canonical fingerprinting exists for;
// hgpd canonicalizes every request, so watch canon_hit_ratio).
//
// With -endpoints a,b,c it drives a whole hgpd cluster: requests
// rotate across the endpoints, transport errors fail over to the next
// one (counting the request once, by its final outcome), and the
// summary adds per-endpoint latency percentiles plus peer_fetch_hits —
// the 200s a daemon answered from an entry fetched off the owning
// peer.
//
// With -strict and/or the -slo-* flags it doubles as an assertion
// harness: transport errors, unexpected statuses (5xx without a
// machine-readable shed_reason), a p99 over budget, or a success rate
// under target exit non-zero, so CI and soak tests can gate on it.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hierpart/internal/graph"
	"hierpart/internal/stream"
)

// loadRequest is the POST /v1/partition body hgpload sends: the
// two-clique synthetic instance (8 vertices, strong intra-clique edges,
// one weak bridge) with a rotating decomposition seed so the daemon
// sees a mix of cache hits and misses.
func loadRequest(seed int64, trees, timeoutMS int) []byte {
	type hierarchySpec struct {
		Deg []int     `json:"deg"`
		CM  []float64 `json:"cm"`
	}
	body := map[string]any{
		"hierarchy":  hierarchySpec{Deg: []int{2, 4}, CM: []float64{8, 2, 0}},
		"n":          8,
		"demands":    []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5},
		"seed":       seed,
		"trees":      trees,
		"timeout_ms": timeoutMS,
	}
	var edges [][3]float64
	for b := 0; b < 8; b += 4 {
		for i := b; i < b+4; i++ {
			for j := i + 1; j < b+4; j++ {
				edges = append(edges, [3]float64{float64(i), float64(j), 10})
			}
		}
	}
	edges = append(edges, [3]float64{0, 4, 1})
	body["edges"] = edges
	buf, err := json.Marshal(body)
	if err != nil {
		panic(err)
	}
	return buf
}

// identityFraction is the share of zipf-workload requests that resubmit
// a tenant's instance with its ORIGINAL labelling instead of a fresh
// random relabelling. It keeps the canon-off baseline's hit ratio
// nonzero (identical bytes share a labelled form's keys), so the E25
// on/off comparison measures the fingerprint's lift, not division by
// zero.
const identityFraction = 0.1

// zipfWorkload models the multi-tenant resubmission pattern ROADMAP
// item 4 describes: a zipf-distributed tenant population, each tenant
// owning one topology-family instance (rotating through the
// internal/stream families), autoscaling resubmitting that instance
// under fresh vertex labellings. Keyed by their labelled forms almost
// every such request would miss; canonicalized, as hgpd does, they
// collapse onto shared canonical entries.
type zipfWorkload struct {
	mu      sync.Mutex
	rng     *rand.Rand
	zipf    *rand.Zipf
	tenants []tenantInstance
	trees   int
	timeout int
}

// tenantInstance is one tenant's base instance in array form, ready to
// relabel and marshal.
type tenantInstance struct {
	n       int
	demands []float64
	edges   [][3]float64
}

func newZipfWorkload(tenants int, s float64, trees, timeoutMS int) *zipfWorkload {
	rng := rand.New(rand.NewSource(1))
	w := &zipfWorkload{
		rng:     rng,
		zipf:    rand.NewZipf(rng, s, 1, uint64(tenants-1)),
		trees:   trees,
		timeout: timeoutMS,
	}
	for t := 0; t < tenants; t++ {
		// Per-tenant generator stream: every tenant owns a distinct
		// instance (distinct random stage demands and rates) of one of
		// the four streaming topology families.
		trng := rand.New(rand.NewSource(int64(t) + 1000))
		var g *graph.Graph
		switch t % 4 {
		case 0:
			g = stream.Pipeline(trng, 4, 3, 0.1, 0.4, 64).CommGraph()
		case 1:
			g = stream.Diamond(trng, 3, 0.1, 0.4, 64).CommGraph()
		case 2:
			g = stream.FanInAggregation(trng, 4, 2, 0.1, 0.4, 60).CommGraph()
		default:
			g = stream.WordCount(trng, 3, 3, 0.1, 0.4, 64).CommGraph()
		}
		ti := tenantInstance{n: g.N(), demands: make([]float64, g.N())}
		for v := 0; v < g.N(); v++ {
			ti.demands[v] = g.Demand(v)
		}
		for _, e := range g.Edges() {
			ti.edges = append(ti.edges, [3]float64{float64(e.U), float64(e.V), e.Weight})
		}
		w.tenants = append(w.tenants, ti)
	}
	return w
}

// body draws a tenant from the zipf distribution and marshals that
// tenant's instance — relabelled through a fresh random permutation,
// except for the identityFraction of requests that reuse the base
// labelling.
func (w *zipfWorkload) body() []byte {
	w.mu.Lock()
	ti := w.tenants[int(w.zipf.Uint64())]
	var perm []int
	if w.rng.Float64() >= identityFraction {
		perm = w.rng.Perm(ti.n)
	}
	w.mu.Unlock()

	demands := ti.demands
	edges := ti.edges
	if perm != nil {
		demands = make([]float64, ti.n)
		for v, d := range ti.demands {
			demands[perm[v]] = d
		}
		edges = make([][3]float64, len(ti.edges))
		for i, e := range ti.edges {
			edges[i] = [3]float64{float64(perm[int(e[0])]), float64(perm[int(e[1])]), e[2]}
		}
	}
	body := map[string]any{
		"hierarchy":  map[string]any{"deg": []int{2, 4}, "cm": []float64{8, 2, 0}},
		"n":          ti.n,
		"demands":    demands,
		"edges":      edges,
		"seed":       1, // fixed: isomorphic submissions must share solver identity
		"trees":      w.trees,
		"timeout_ms": w.timeout,
	}
	buf, err := json.Marshal(body)
	if err != nil {
		panic(err)
	}
	return buf
}

// sample is one completed request, as recorded by a worker. A request
// that failed over between endpoints is still ONE sample — classified
// by its final outcome, with failovers counting the abandoned
// attempts — so SLO math stays per-request, not per-attempt.
type sample struct {
	status    int
	shed      string
	latency   time.Duration
	err       bool
	resultHit bool     // 200 served from the daemon's full-solve result cache
	canonHit  bool     // 200 answered through the canonical-fingerprint key
	peerFetch bool     // 200 built from an entry fetched off a cluster peer
	endpoint  string   // base URL that produced the final outcome
	failovers int      // endpoints abandoned (transport error) before this outcome
	abandoned []string // base URLs of those abandoned attempts, in order
}

// endpointPool rotates load across the -endpoints list and implements
// client-side failover: a transport error cools the endpoint for
// coolDown (-failover-cooldown), and order() pushes cooled endpoints
// to the back so workers prefer live daemons while still probing dead
// ones once the cooldown lapses (a restarted daemon rejoins the
// rotation by itself).
type endpointPool struct {
	bases    []string // as given, for reporting
	urls     []string // bases + "/v1/partition"
	coolDown time.Duration

	mu        sync.Mutex
	coolUntil []time.Time
	rr        int
}

func newEndpointPool(bases []string, coolDown time.Duration) *endpointPool {
	p := &endpointPool{
		bases:     bases,
		urls:      make([]string, len(bases)),
		coolDown:  coolDown,
		coolUntil: make([]time.Time, len(bases)),
	}
	for i, b := range bases {
		p.urls[i] = strings.TrimRight(b, "/") + "/v1/partition"
	}
	return p
}

// order returns every endpoint index in preference order for one
// request: round-robin from a moving start, with cooled endpoints
// moved to the back (they are last-resort retry targets, not skipped —
// when everything is down the request must still fail against a real
// connection attempt).
func (p *endpointPool) order() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := time.Now()
	warm := make([]int, 0, len(p.urls))
	var cold []int
	for k := 0; k < len(p.urls); k++ {
		i := (p.rr + k) % len(p.urls)
		if now.Before(p.coolUntil[i]) {
			cold = append(cold, i)
		} else {
			warm = append(warm, i)
		}
	}
	p.rr = (p.rr + 1) % len(p.urls)
	return append(warm, cold...)
}

func (p *endpointPool) cool(i int) {
	p.mu.Lock()
	p.coolUntil[i] = time.Now().Add(p.coolDown)
	p.mu.Unlock()
}

// Summary is the JSON report printed on stdout.
type Summary struct {
	Mode            string             `json:"mode"`
	DurationSeconds float64            `json:"duration_seconds"`
	Requests        int                `json:"requests"`
	OK              int                `json:"ok"` // HTTP 200
	Errors          int                `json:"errors"`
	Unexpected      int                `json:"unexpected"` // 5xx without shed_reason, or unknown status
	Statuses        map[string]int     `json:"statuses"`
	ShedReasons     map[string]int     `json:"shed_reasons"`
	Throughput      float64            `json:"throughput_rps"` // 200s per second
	LatencyMS       map[string]float64 `json:"latency_ms"`     // over 200s: p50/p90/p99/max
	// ResultCacheHits counts 200s the daemon answered from its full-solve
	// result cache (result_cache_hit in the response); the ratio is over
	// all 200s, so with rotating seeds it converges to (seeds-1)/seeds
	// once every distinct instance has been solved once.
	ResultCacheHits     int     `json:"result_cache_hits"`
	ResultCacheHitRatio float64 `json:"result_cache_hit_ratio"`
	// CanonHits counts 200s served through a canonical-fingerprint cache
	// key (canon_hit in the response): the daemon recognized the instance
	// as isomorphic to one it had already processed. Always zero for
	// graphs the daemon keys by their labelled forms.
	CanonHits     int     `json:"canon_hits"`
	CanonHitRatio float64 `json:"canon_hit_ratio"`
	// PeerFetchHits counts 200s a daemon answered from an entry it
	// fetched off the owning cluster peer (peer_fetch_hit in the
	// response). Always zero unless the daemons run with -peers.
	PeerFetchHits     int     `json:"peer_fetch_hits"`
	PeerFetchHitRatio float64 `json:"peer_fetch_hit_ratio"`
	// Failovers counts endpoint attempts abandoned on transport error
	// before the request's recorded outcome (multi-endpoint mode).
	Failovers int `json:"failovers"`
	// Endpoints breaks requests down per base URL in multi-endpoint
	// mode (-endpoints with more than one entry); omitted otherwise.
	Endpoints map[string]*EndpointSummary `json:"endpoints,omitempty"`
}

// EndpointSummary is the per-endpoint slice of the report: how one
// daemon behaved under its share of the load.
type EndpointSummary struct {
	Requests    int                `json:"requests"`
	OK          int                `json:"ok"`
	Errors      int                `json:"errors"`
	ShedReasons map[string]int     `json:"shed_reasons,omitempty"`
	LatencyMS   map[string]float64 `json:"latency_ms"` // over 200s: p50/p90/p99/max
	// Failovers counts attempts ABANDONED at this endpoint (transport
	// error, request completed elsewhere or not at all): the endpoint's
	// contribution to cluster-level failover, attributed to the daemon
	// that dropped the connection rather than the one that recovered it.
	Failovers int `json:"failovers"`
	// Retries counts requests this endpoint ANSWERED after at least one
	// other endpoint was abandoned first — the recovery side of the
	// failover ledger. Summed over endpoints, Retries is the number of
	// requests saved by failover.
	Retries int `json:"retries"`
}

// latencyStats computes the p50/p90/p99/max map over 200-latencies,
// sorting its argument in place. Empty input yields an empty map.
func latencyStats(lat []time.Duration) map[string]float64 {
	out := map[string]float64{}
	if len(lat) == 0 {
		return out
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	pct := func(p float64) float64 {
		idx := int(p * float64(len(lat)-1))
		return float64(lat[idx].Microseconds()) / 1000
	}
	out["p50"] = pct(0.50)
	out["p90"] = pct(0.90)
	out["p99"] = pct(0.99)
	out["max"] = float64(lat[len(lat)-1].Microseconds()) / 1000
	return out
}

func main() {
	var (
		target    = flag.String("addr", "http://127.0.0.1:8080", "hgpd base URL (single-endpoint mode; see -endpoints)")
		endpoints = flag.String("endpoints", "", "comma-separated hgpd base URLs to spread load across (cluster mode); overrides -addr. A transport error fails the request over to the next endpoint (cooling the dead one for -failover-cooldown) and the request is counted ONCE, by its final outcome")
		failCool  = flag.Duration("failover-cooldown", time.Second, "how long a transport error keeps an endpoint at the back of the rotation before workers probe it again (multi-endpoint mode)")
		mode      = flag.String("mode", "closed", `"closed" (worker pool) or "open" (fixed arrival rate)`)
		workers   = flag.Int("workers", 4, "closed-loop worker count")
		rate      = flag.Float64("rate", 20, "open-loop arrivals per second")
		duration  = flag.Duration("duration", 10*time.Second, "how long to generate load")
		seeds     = flag.Int("seeds", 4, "rotate this many decomposition seeds (cache hit/miss mix; seeds workload only)")
		trees     = flag.Int("trees", 2, "trees per request")
		timeoutMS = flag.Int("timeout-ms", 2000, "per-request deadline sent to the daemon")
		workload  = flag.String("workload", "seeds", `"seeds" (one instance, rotating decomposition seeds) or "zipf" (multi-tenant: zipf-distributed tenants resubmitting relabelled instances)`)
		tenants   = flag.Int("tenants", 16, "zipf workload: tenant population size")
		zipfS     = flag.Float64("zipf-s", 1.3, "zipf workload: skew exponent (must be > 1; larger = hotter head tenants)")
		strict    = flag.Bool("strict", false, "exit 1 on any transport error or unexpected status")
		sloP99    = flag.Duration("slo-p99", 0, "exit 1 when the p99 latency of 200s exceeds this (0 = no assertion)")
		sloOK     = flag.Float64("slo-success", 0, "exit 1 when the fraction of requests answered 200 is below this")
	)
	flag.Parse()
	if flag.NArg() != 0 || (*mode != "closed" && *mode != "open") || *workers < 1 || *rate <= 0 ||
		*duration <= 0 || *seeds < 1 || *timeoutMS < 0 || *failCool <= 0 ||
		(*workload != "seeds" && *workload != "zipf") || *tenants < 2 || *zipfS <= 1 {
		fmt.Fprintln(os.Stderr, "usage: hgpload [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	// bodyFor yields the next request body. The seeds workload
	// pre-marshals one body per decomposition seed and round-robins;
	// the zipf workload synthesizes a (usually relabelled) tenant
	// instance per call.
	var bodyFor func(seq int) []byte
	if *workload == "zipf" {
		zw := newZipfWorkload(*tenants, *zipfS, *trees, *timeoutMS)
		bodyFor = func(int) []byte { return zw.body() }
	} else {
		bodies := make([][]byte, *seeds)
		for i := range bodies {
			bodies[i] = loadRequest(int64(i+1), *trees, *timeoutMS)
		}
		bodyFor = func(seq int) []byte { return bodies[seq%len(bodies)] }
	}
	client := &http.Client{Timeout: time.Duration(*timeoutMS)*time.Millisecond + 10*time.Second}
	bases := []string{*target}
	if *endpoints != "" {
		bases = nil
		for _, b := range strings.Split(*endpoints, ",") {
			if b = strings.TrimSpace(b); b != "" {
				bases = append(bases, b)
			}
		}
		if len(bases) == 0 {
			fmt.Fprintln(os.Stderr, "hgpload: -endpoints: no usable URLs")
			os.Exit(2)
		}
	}
	pool := newEndpointPool(bases, *failCool)

	var (
		mu      sync.Mutex
		samples []sample
	)
	record := func(s sample) {
		mu.Lock()
		samples = append(samples, s)
		mu.Unlock()
	}
	// shoot issues one request, failing over across endpoints on
	// transport errors. Its return value is the backoff a closed-loop
	// worker should honor before its next shot: the daemon's Retry-After
	// on a shed (capped), a short pause after every endpoint failed (so
	// a dead cluster is polled, not hammered), zero otherwise.
	shoot := func(seq int) time.Duration {
		body := bodyFor(seq)
		order := pool.order()
		t0 := time.Now()
		var abandoned []string
		for attempt, idx := range order {
			resp, err := client.Post(pool.urls[idx], "application/json", bytes.NewReader(body))
			if err != nil {
				pool.cool(idx)
				if attempt < len(order)-1 {
					abandoned = append(abandoned, pool.bases[idx])
					continue // fail over; counted via the final sample's failovers
				}
				record(sample{err: true, latency: time.Since(t0),
					endpoint: pool.bases[idx], failovers: attempt, abandoned: abandoned})
				return 50 * time.Millisecond
			}
			var envelope struct {
				ShedReason     string `json:"shed_reason"`
				ResultCacheHit bool   `json:"result_cache_hit"`
				CanonHit       bool   `json:"canon_hit"`
				PeerFetchHit   bool   `json:"peer_fetch_hit"`
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			_ = json.Unmarshal(raw, &envelope)
			record(sample{status: resp.StatusCode, shed: envelope.ShedReason,
				latency: time.Since(t0), resultHit: envelope.ResultCacheHit,
				canonHit: envelope.CanonHit, peerFetch: envelope.PeerFetchHit,
				endpoint: pool.bases[idx], failovers: attempt, abandoned: abandoned})
			if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
				backoff := 50 * time.Millisecond
				if ra := resp.Header.Get("Retry-After"); ra != "" {
					if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
						backoff = time.Duration(secs) * time.Second
					}
				}
				if backoff > 2*time.Second {
					backoff = 2 * time.Second
				}
				return backoff
			}
			return 0
		}
		return 0 // unreachable: order() is never empty
	}

	start := time.Now()
	deadline := start.Add(*duration)
	var wg sync.WaitGroup
	switch *mode {
	case "closed":
		var seq int64
		var seqMu sync.Mutex
		next := func() int {
			seqMu.Lock()
			defer seqMu.Unlock()
			seq++
			return int(seq)
		}
		for w := 0; w < *workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					remaining := time.Until(deadline)
					if remaining <= 0 {
						return
					}
					if backoff := shoot(next()); backoff > 0 {
						if backoff > remaining {
							backoff = remaining
						}
						time.Sleep(backoff)
					}
				}
			}()
		}
	case "open":
		interval := time.Duration(float64(time.Second) / *rate)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		seq := 0
		for now := range ticker.C {
			if now.After(deadline) {
				break
			}
			seq++
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				shoot(n)
			}(seq)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	sum := Summary{
		Mode:            *mode,
		DurationSeconds: elapsed.Seconds(),
		Requests:        len(samples),
		Statuses:        map[string]int{},
		ShedReasons:     map[string]int{},
		LatencyMS:       map[string]float64{},
	}
	perEndpoint := map[string]*EndpointSummary{}
	epLat := map[string][]time.Duration{}
	epFor := func(base string) *EndpointSummary {
		es := perEndpoint[base]
		if es == nil {
			es = &EndpointSummary{ShedReasons: map[string]int{}}
			perEndpoint[base] = es
		}
		return es
	}
	var okLat []time.Duration
	for _, s := range samples {
		sum.Failovers += s.failovers
		// Per-endpoint failover ledger: each abandoned attempt debits
		// the endpoint that dropped the connection; a request that then
		// completed anywhere credits its final endpoint with the retry.
		for _, base := range s.abandoned {
			epFor(base).Failovers++
		}
		es := epFor(s.endpoint)
		es.Requests++
		if s.failovers > 0 && !s.err {
			es.Retries++
		}
		if s.err {
			sum.Errors++
			es.Errors++
			continue
		}
		sum.Statuses[fmt.Sprint(s.status)]++
		if s.shed != "" {
			sum.ShedReasons[s.shed]++
			es.ShedReasons[s.shed]++
		}
		switch {
		case s.status == http.StatusOK:
			sum.OK++
			es.OK++
			if s.resultHit {
				sum.ResultCacheHits++
			}
			if s.canonHit {
				sum.CanonHits++
			}
			if s.peerFetch {
				sum.PeerFetchHits++
			}
			okLat = append(okLat, s.latency)
			epLat[s.endpoint] = append(epLat[s.endpoint], s.latency)
		case s.status == http.StatusTooManyRequests, s.status == http.StatusGatewayTimeout:
			// Sheds and deadline misses: expected under overload.
		case s.status == http.StatusServiceUnavailable && s.shed != "":
			// Tagged 503 (breaker_open, draining): a deliberate shed.
		default:
			sum.Unexpected++
		}
	}
	sum.LatencyMS = latencyStats(okLat)
	if sum.OK > 0 {
		sum.Throughput = float64(sum.OK) / elapsed.Seconds()
		sum.ResultCacheHitRatio = float64(sum.ResultCacheHits) / float64(sum.OK)
		sum.CanonHitRatio = float64(sum.CanonHits) / float64(sum.OK)
		sum.PeerFetchHitRatio = float64(sum.PeerFetchHits) / float64(sum.OK)
	}
	if len(bases) > 1 {
		for base, es := range perEndpoint {
			es.LatencyMS = latencyStats(epLat[base])
		}
		sum.Endpoints = perEndpoint
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	_ = enc.Encode(sum)

	// SLO gate.
	failed := false
	if *strict && (sum.Errors > 0 || sum.Unexpected > 0) {
		fmt.Fprintf(os.Stderr, "hgpload: strict: %d transport errors, %d unexpected responses\n",
			sum.Errors, sum.Unexpected)
		failed = true
	}
	if *sloP99 > 0 {
		p99 := time.Duration(sum.LatencyMS["p99"] * float64(time.Millisecond))
		if len(okLat) == 0 || p99 > *sloP99 {
			fmt.Fprintf(os.Stderr, "hgpload: SLO: p99 %v exceeds budget %v (or no successes)\n", p99, *sloP99)
			failed = true
		}
	}
	if *sloOK > 0 {
		got := 0.0
		if sum.Requests > 0 {
			got = float64(sum.OK) / float64(sum.Requests)
		}
		if got < *sloOK {
			fmt.Fprintf(os.Stderr, "hgpload: SLO: success rate %.3f below target %.3f\n", got, *sloOK)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}
