package server

import (
	"crypto/subtle"
	"errors"
	"io"
	"net/http"

	"hierpart/internal/cache"
	"hierpart/internal/cache/diskstore"
	"hierpart/internal/hgp"
)

// The /v1/peer surface is the cluster's internal wire: peers exchange
// cache entries by key, framed exactly like snapshot files (WrapWire:
// magic, format version, RNG stream version, length, SHA-256). It is
// registered only in cluster mode and is content-addressed — a GET
// returns the entry under the requested key or 404, never a
// computation. Peer handlers participate in drain bookkeeping like
// partition requests: a draining daemon refuses new peer work with 503
// (its peers' health pollers shed it moments later), and an in-flight
// transfer finishes before Shutdown closes the snapshot store.
//
// Trust boundary: the surface shares the public listener, and a cache
// key is a hash of the request that produced it — unrecoverable from
// the entry, so a receiver cannot verify that a pushed payload belongs
// to its key. Structural validation catches corruption, not deceit: a
// client that can reach the port could PUT a valid-but-wrong entry
// under any key and poison answers served cluster-wide. PeerSecret
// closes this: when configured, every peer request must present it
// (checked first, before drain or key validation, in constant time)
// and everything else is 403. Run clusters with a secret unless the
// listen address is genuinely unreachable by untrusted clients.

// authorizePeer enforces the cluster shared secret, when one is
// configured. It returns false with the 403 already written (and a
// peer_auth_failures_total tick) on a missing or wrong secret.
func (s *Server) authorizePeer(w http.ResponseWriter, r *http.Request) bool {
	if s.cfg.PeerSecret == "" {
		return true
	}
	got := r.Header.Get(peerSecretHeader)
	if subtle.ConstantTimeCompare([]byte(got), []byte(s.cfg.PeerSecret)) == 1 {
		return true
	}
	s.reg.Counter("peer_auth_failures_total").Inc()
	s.writeError(w, http.StatusForbidden, "peer_auth",
		"missing or wrong cluster secret ("+peerSecretHeader+")")
	return false
}

// validPeerKey bounds what a peer may ask for: cache keys are hex
// SHA-256 digests, so anything else is a malformed (or hostile)
// request, rejected before touching any cache.
func validPeerKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

const peerDrainingMsg = "daemon is draining; peer traffic re-routes via health gossip"

// admitPeer runs the shared preamble of every peer data endpoint:
// authentication, drain bookkeeping, key validation — in that order.
// It returns the validated key and whether the request may proceed
// (the response has been written when not).
func (s *Server) admitPeer(w http.ResponseWriter, r *http.Request) (string, bool) {
	if !s.authorizePeer(w, r) {
		return "", false
	}
	if !s.enter(w, peerDrainingMsg) {
		return "", false
	}
	key := r.PathValue("key")
	if !validPeerKey(key) {
		s.inflight.Done()
		s.writeError(w, http.StatusBadRequest, "bad_key", "peer keys are 64-char lowercase hex digests")
		return "", false
	}
	return key, true
}

func writeWireBody(w http.ResponseWriter, payload []byte) {
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(diskstore.WrapWire(payload))
}

// handlePeerDecompGet serves this daemon's copy of a decomposition
// entry. The LRU is consulted with Peek — peer probes must not distort
// the recency order or hit-ratio accounting that describe this
// daemon's own request stream — and falls back to the snapshot store:
// an entry evicted from memory but still on disk is a hit, which is
// what lets a restarted owner serve its keys warm.
func (s *Server) handlePeerDecompGet(w http.ResponseWriter, r *http.Request) {
	key, ok := s.admitPeer(w, r)
	if !ok {
		return
	}
	defer s.inflight.Done()
	if v, ok := s.dec.Peek(key); ok {
		entry := v.(*cache.DecompEntry)
		writeWireBody(w, diskstore.EncodeDecompEntry(entry.Dec, entry.Perm))
		return
	}
	if s.store != nil {
		if dec, perm, ok := s.store.Load(key); ok {
			writeWireBody(w, diskstore.EncodeDecompEntry(dec, perm))
			return
		}
	}
	s.writeError(w, http.StatusNotFound, "not_found", "no entry under key")
}

// handlePeerDecompPut accepts an owner-ward push: a peer that built a
// decomposition this daemon owns hands over the entry. The body runs
// the full snapshot validation gauntlet — frame checksum and versions
// (UnwrapWire), then structural entry validation (DecodeDecompEntry:
// true permutation, parent ordering, demand conservation) — and a
// failure at either layer rejects the push exactly as a damaged
// snapshot file is skipped at startup. Accepted entries enter the LRU
// and the snapshot store, so they survive this daemon's restart.
func (s *Server) handlePeerDecompPut(w http.ResponseWriter, r *http.Request) {
	key, ok := s.admitPeer(w, r)
	if !ok {
		return
	}
	defer s.inflight.Done()
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_body", err.Error())
		return
	}
	payload, err := diskstore.UnwrapWire(raw)
	if err != nil {
		s.rejectPeerBody(w, err)
		return
	}
	dec, perm, err := diskstore.DecodeDecompEntry(payload)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "corrupt_entry", err.Error())
		return
	}
	s.dec.Add(key, &cache.DecompEntry{Dec: dec, Perm: perm})
	if s.store != nil {
		s.store.Enqueue(key, dec, perm)
	}
	w.WriteHeader(http.StatusNoContent)
}

// handlePeerResultGet serves a full solve result from the result
// cache. Results are memory-only (no snapshot store), so a restarted
// daemon 404s here until it re-solves — the decomposition path above
// carries the durable state.
func (s *Server) handlePeerResultGet(w http.ResponseWriter, r *http.Request) {
	key, ok := s.admitPeer(w, r)
	if !ok {
		return
	}
	defer s.inflight.Done()
	if s.results != nil {
		if v, ok := s.results.Peek(key); ok {
			writeWireBody(w, diskstore.EncodeResult(v.(*hgp.Result)))
			return
		}
	}
	s.writeError(w, http.StatusNotFound, "not_found", "no result under key")
}

// handlePeerResultPut accepts an owner-ward result push, validated
// like a decomposition push (frame, then structural decode). Partial
// results are refused: the result cache holds only complete
// full-pipeline results — pushers never send anything else, so the
// receiver enforces the invariant at the trust boundary rather than
// assuming it. With the result cache disabled the push is acknowledged
// and dropped — the pusher's duty ends at delivery.
func (s *Server) handlePeerResultPut(w http.ResponseWriter, r *http.Request) {
	key, ok := s.admitPeer(w, r)
	if !ok {
		return
	}
	defer s.inflight.Done()
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_body", err.Error())
		return
	}
	payload, err := diskstore.UnwrapWire(raw)
	if err != nil {
		s.rejectPeerBody(w, err)
		return
	}
	res, err := diskstore.DecodeResult(payload)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "corrupt_entry", err.Error())
		return
	}
	if res.Partial {
		s.writeError(w, http.StatusBadRequest, "partial_result",
			"partial results never enter the result cache; push refused")
		return
	}
	if s.results != nil {
		s.results.Add(key, res)
	}
	w.WriteHeader(http.StatusNoContent)
}

// handlePeerKeys serves this daemon's cache key inventory for the
// anti-entropy digest exchange. Like the data endpoints it is gated by
// auth and drain (a draining daemon's inventory is about to leave the
// cluster's working set; repair should pull from a stable replica
// instead), and like the peer GETs it consults memory and disk without
// touching recency order or hit/miss accounting.
func (s *Server) handlePeerKeys(w http.ResponseWriter, r *http.Request) {
	if !s.authorizePeer(w, r) {
		return
	}
	if !s.enter(w, peerDrainingMsg) {
		return
	}
	defer s.inflight.Done()
	writeJSON(w, http.StatusOK, s.localKeys())
}

// rejectPeerBody maps a frame validation failure to its rejection:
// version skew is its own code (the pusher can log "upgrade in
// progress" instead of "corruption"), everything else is corruption.
func (s *Server) rejectPeerBody(w http.ResponseWriter, err error) {
	if errors.Is(err, diskstore.ErrVersionMismatch) {
		s.writeError(w, http.StatusBadRequest, "version_mismatch", err.Error())
		return
	}
	s.writeError(w, http.StatusBadRequest, "corrupt_frame", err.Error())
}

// handlePeerHealth is the gossip endpoint: always 200 (once
// authenticated), with the body carrying the routing verdict. Draining is reported distinctly from
// ok — a draining daemon still answers peer fetches for what it holds
// (until drain completes), but peers shed it at routing time so no new
// ownership traffic lands on a daemon that is leaving. The memory
// breaker and waiting-room occupancy ride along so an overloaded peer
// is shed before fetch traffic makes its day worse.
func (s *Server) handlePeerHealth(w http.ResponseWriter, r *http.Request) {
	if !s.authorizePeer(w, r) {
		return
	}
	hv := peerHealthView{
		Status:      "ok",
		QueueDepth:  s.queued.Load(),
		QueueLimit:  int64(s.cfg.MaxConcurrent + s.cfg.MaxQueue),
		AuthEnabled: s.cfg.PeerSecret != "",
	}
	if s.isDraining() {
		hv.Status = "draining"
	}
	if s.brk != nil {
		state, _, _ := s.brk.snapshot()
		hv.Breaker = int64(state)
	}
	writeJSON(w, http.StatusOK, hv)
}
