package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"hierpart/internal/cache/diskstore"
	"hierpart/internal/faultinject"
)

// fetchOutcome classifies one peer-fetch operation for the
// peer_fetch_total{outcome=...} family. Every fetch ends in exactly one
// outcome, and every outcome except outcomeHit degrades to the local
// solve path.
type fetchOutcome string

const (
	outcomeHit             fetchOutcome = "hit"
	outcomeMiss            fetchOutcome = "miss"
	outcomeError           fetchOutcome = "error"
	outcomeCorrupt         fetchOutcome = "corrupt"
	outcomeVersionMismatch fetchOutcome = "version_mismatch"
	outcomePeerUnhealthy   fetchOutcome = "peer_unhealthy"
)

// fetchOutcomes lists every outcome, for pre-registering the counter
// family at zero.
var fetchOutcomes = []fetchOutcome{
	outcomeHit, outcomeMiss, outcomeError, outcomeCorrupt,
	outcomeVersionMismatch, outcomePeerUnhealthy,
}

// peerHealthView is the body of GET /v1/peer/health — the signal the
// health poller uses to shed a peer at routing time before any fetch
// is attempted against it.
type peerHealthView struct {
	// Status is "ok" or "draining". A draining peer still answers peer
	// fetches for what it holds, but routing sheds it so no new
	// ownership traffic lands on a daemon that is leaving.
	Status string `json:"status"`
	// Breaker is the peer's memory-breaker state (0 closed, 1 open, 2
	// half-open). An open breaker means the peer is shedding its own
	// load; routing treats it as unhealthy rather than adding fetches.
	Breaker int64 `json:"breaker"`
	// QueueDepth and QueueLimit describe the peer's waiting room; a
	// full queue marks the peer overloaded.
	QueueDepth int64 `json:"queue_depth"`
	QueueLimit int64 `json:"queue_limit"`
	// AuthEnabled reports whether the peer's /v1/peer surface requires
	// the cluster shared secret. Informational, not part of the routing
	// verdict: an operator (or soak assertion) reading gossip can spot a
	// node that rebooted without its secret before an attacker does.
	AuthEnabled bool `json:"peer_auth_enabled"`
}

// routable reports whether a peer in this state should receive fetch
// traffic: reachable (the caller established that), not draining, not
// under memory pressure, waiting room not saturated.
func (h peerHealthView) routable() bool {
	if h.Status != "ok" {
		return false
	}
	if h.Breaker == breakerOpen {
		return false
	}
	if h.QueueLimit > 0 && h.QueueDepth >= h.QueueLimit {
		return false
	}
	return true
}

// peerSecretHeader carries the cluster shared secret on every request
// a peer client issues against another daemon's /v1/peer surface.
const peerSecretHeader = "X-Hgpd-Peer-Secret"

// peerClient talks to one peer's internal /v1/peer surface. Each
// method is one attempt under the per-attempt timeout; the retry and
// the peer's health verdict belong to the cluster (cluster.call).
type peerClient struct {
	base    string // peer base URL, no trailing slash
	hc      *http.Client
	timeout time.Duration // per attempt
	secret  string        // cluster shared secret; empty = unauthenticated
}

func newPeerClient(base string, timeout time.Duration, secret string) *peerClient {
	return &peerClient{
		base:    strings.TrimRight(base, "/"),
		hc:      &http.Client{},
		timeout: timeout,
		secret:  secret,
	}
}

// authorize attaches the cluster shared secret, when one is configured.
func (pc *peerClient) authorize(req *http.Request) {
	if pc.secret != "" {
		req.Header.Set(peerSecretHeader, pc.secret)
	}
}

// fetch makes one attempt to GET path from the peer, validates the
// wire frame, and runs decode (the entry-layer parser) on the stripped
// payload. Every attempt ends in exactly one outcome:
//
//   - hit: 200 with a frame that passed checksum + version validation
//     AND whose payload decode accepted; returns the decoded value;
//   - miss: 404 — the peer answered definitively;
//   - version_mismatch / corrupt: the body failed frame validation
//     exactly like a damaged snapshot file, or the frame verified but
//     the entry-layer decode rejected the payload; deterministic, so
//     not retryable;
//   - error: transport errors, timeouts, auth rejections (not
//     retryable), and 5xx/503.
//
// The faultinject.PeerFetch hook fires after the body is read and
// before validation, so injected corruption exercises the same
// rejection path real bit rot would.
func (pc *peerClient) fetch(ctx context.Context, path string, decode func([]byte) (any, error)) (val any, outcome fetchOutcome, retryable bool) {
	actx, cancel := context.WithTimeout(ctx, pc.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodGet, pc.base+path, nil)
	if err != nil {
		return nil, outcomeError, false
	}
	pc.authorize(req)
	resp, err := pc.hc.Do(req)
	if err != nil {
		return nil, outcomeError, true
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusNotFound:
		return nil, outcomeMiss, false
	case resp.StatusCode == http.StatusUnauthorized || resp.StatusCode == http.StatusForbidden:
		// Secret mismatch: a configuration error, deterministic until an
		// operator intervenes — retrying the same credential cannot help.
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, outcomeError, false
	case resp.StatusCode != http.StatusOK:
		// 503 (draining, breaker) and 5xx: the peer may recover by the
		// retry.
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, outcomeError, true
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes+1))
	if err != nil {
		return nil, outcomeError, true
	}
	if len(raw) > maxBodyBytes {
		return nil, outcomeCorrupt, false
	}
	raw, err = faultinject.FireBody(actx, faultinject.PeerFetch, raw)
	if err != nil {
		return nil, outcomeError, true
	}
	payload, err := diskstore.UnwrapWire(raw)
	switch {
	case isVersionMismatch(err):
		return nil, outcomeVersionMismatch, false
	case err != nil:
		return nil, outcomeCorrupt, false
	}
	// Entry layer: the frame verified, now the payload must parse into a
	// structurally valid entry. A failure here is the same verdict as a
	// damaged snapshot file — corrupt.
	if val, err = decode(payload); err != nil {
		return nil, outcomeCorrupt, false
	}
	return val, outcomeHit, false
}

func isVersionMismatch(err error) bool {
	return errors.Is(err, diskstore.ErrVersionMismatch)
}

// push makes one attempt to PUT a wire-framed body to path on the peer
// — the owner-ward replication of an entry this daemon built for a key
// it does not own. A failed push is only a delayed warm-cache
// opportunity: the replica pulls the entry on a later repair sweep.
func (pc *peerClient) push(ctx context.Context, path string, body []byte) (ok, retryable bool) {
	actx, cancel := context.WithTimeout(ctx, pc.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPut, pc.base+path, bytes.NewReader(body))
	if err != nil {
		return false, false
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	pc.authorize(req)
	resp, err := pc.hc.Do(req)
	if err != nil {
		return false, true
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	switch {
	case resp.StatusCode == http.StatusNoContent || resp.StatusCode == http.StatusOK:
		return true, false
	case resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests:
		return false, true
	default:
		// 4xx: the peer rejected the body (validation failure) —
		// retrying the same bytes cannot succeed.
		return false, false
	}
}

// peerKeysView is the body of GET /v1/peer/keys: the peer's current
// cache key inventory, split by entry kind. Cache keys ARE SHA-256
// digests of the content that produced them, so this listing doubles
// as the digest exchange of the anti-entropy protocol — two replicas
// comparing key sets is exactly a Merkle-leaf comparison without the
// tree.
type peerKeysView struct {
	Decomp []string `json:"decomp"`
	Result []string `json:"result"`
}

// maxPeerKeysBody bounds the key-listing response: 64-char keys plus
// JSON overhead put even a 100k-entry inventory well under this.
const maxPeerKeysBody = 16 << 20

// keys GETs the peer's key inventory with a single attempt — the
// repair sweep runs on an interval, so a failed exchange just waits
// for the next sweep.
func (pc *peerClient) keys(ctx context.Context) (peerKeysView, error) {
	actx, cancel := context.WithTimeout(ctx, pc.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodGet, pc.base+"/v1/peer/keys", nil)
	if err != nil {
		return peerKeysView{}, err
	}
	pc.authorize(req)
	resp, err := pc.hc.Do(req)
	if err != nil {
		return peerKeysView{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return peerKeysView{}, fmt.Errorf("peer keys: status %d", resp.StatusCode)
	}
	var kv peerKeysView
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxPeerKeysBody)).Decode(&kv); err != nil {
		return peerKeysView{}, err
	}
	return kv, nil
}

// health GETs the peer's /v1/peer/health with a single short attempt —
// the poller runs on an interval, so retrying inside one poll would
// only delay the next.
func (pc *peerClient) health(ctx context.Context) (peerHealthView, error) {
	actx, cancel := context.WithTimeout(ctx, pc.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodGet, pc.base+"/v1/peer/health", nil)
	if err != nil {
		return peerHealthView{}, err
	}
	pc.authorize(req)
	resp, err := pc.hc.Do(req)
	if err != nil {
		return peerHealthView{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return peerHealthView{}, fmt.Errorf("peer health: status %d", resp.StatusCode)
	}
	var hv peerHealthView
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&hv); err != nil {
		return peerHealthView{}, err
	}
	return hv, nil
}
