package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
)

// ringCorpus builds a deterministic corpus of n keys shaped exactly
// like production cache keys: hex SHA-256 digests.
func ringCorpus(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		sum := sha256.Sum256([]byte(fmt.Sprintf("ring-corpus-key-%d", i)))
		keys[i] = hex.EncodeToString(sum[:])
	}
	return keys
}

func ringPeers(n int) []string {
	peers := make([]string, n)
	for i := range peers {
		peers[i] = fmt.Sprintf("http://127.0.0.1:%d", 9000+i)
	}
	return peers
}

func mustRing(t *testing.T, peers []string) *ring {
	t.Helper()
	r, err := newRing(peers)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// Owner assignment must be byte-identical regardless of the order the
// peer list was supplied in: operators hand each daemon the same -peers
// value, but nothing forces them to type it in the same order.
func TestRingOrderInvariance(t *testing.T) {
	peers := ringPeers(5)
	keys := ringCorpus(500)
	base := mustRing(t, peers)
	want := make([]string, len(keys))
	for i, k := range keys {
		want[i] = base.owner(k)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		shuffled := append([]string(nil), peers...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		r := mustRing(t, shuffled)
		for i, k := range keys {
			if got := r.owner(k); got != want[i] {
				t.Fatalf("trial %d: owner(%s) = %s under order %v, want %s", trial, k[:8], got, shuffled, want[i])
			}
		}
	}
	// Duplicates in the list must not shift ownership either.
	dup := append(append([]string(nil), peers...), peers[2], peers[0])
	r := mustRing(t, dup)
	for i, k := range keys {
		if got := r.owner(k); got != want[i] {
			t.Fatalf("duplicated list: owner(%s) = %s, want %s", k[:8], got, want[i])
		}
	}
}

// Removing one peer from N must move exactly the keys that peer owned —
// every other key keeps its owner — and the moved fraction must be
// about 1/N. The bounds are pinned loosely enough to be seed-robust
// (binomial with p=1/5 over 2000 keys has σ≈0.9%) but tight enough
// that a broken ring (e.g. modulo hashing, which reshuffles ~all keys)
// fails instantly.
func TestRingRemovalMovesOnlyRemovedPeersKeys(t *testing.T) {
	peers := ringPeers(5)
	keys := ringCorpus(2000)
	full := mustRing(t, peers)
	for _, victim := range peers {
		var survivors []string
		for _, p := range peers {
			if p != victim {
				survivors = append(survivors, p)
			}
		}
		reduced := mustRing(t, survivors)
		moved := 0
		for _, k := range keys {
			before, after := full.owner(k), reduced.owner(k)
			if before == victim {
				moved++
				if after == victim {
					t.Fatalf("key %s still owned by removed peer", k[:8])
				}
				continue
			}
			if after != before {
				t.Fatalf("key %s moved %s → %s though its owner %s survives", k[:8], before, after, before)
			}
		}
		frac := float64(moved) / float64(len(keys))
		if frac < 0.12 || frac > 0.28 {
			t.Fatalf("removing %s moved %.1f%% of keys, want ~20%% (bounds 12–28%%)", victim, 100*frac)
		}
	}
}

// Adding a peer must steal keys only for the new peer — no key may move
// between two incumbent peers — and the stolen fraction must be about
// 1/(N+1).
func TestRingAdditionStealsOnlyForNewPeer(t *testing.T) {
	peers := ringPeers(5)
	keys := ringCorpus(2000)
	old := mustRing(t, peers[:4])
	grown := mustRing(t, peers)
	stolen := 0
	for _, k := range keys {
		before, after := old.owner(k), grown.owner(k)
		if after == before {
			continue
		}
		if after != peers[4] {
			t.Fatalf("key %s moved %s → %s when only %s was added", k[:8], before, after, peers[4])
		}
		stolen++
	}
	frac := float64(stolen) / float64(len(keys))
	if frac < 0.12 || frac > 0.28 {
		t.Fatalf("new peer stole %.1f%% of keys, want ~20%% (bounds 12–28%%)", 100*frac)
	}
}

// The HRW split over SHA-256-shaped keys must be roughly even — a peer
// owning far less or far more than its share would concentrate load.
func TestRingBalance(t *testing.T) {
	peers := ringPeers(5)
	keys := ringCorpus(2000)
	r := mustRing(t, peers)
	counts := map[string]int{}
	for _, k := range keys {
		counts[r.owner(k)]++
	}
	for _, p := range peers {
		frac := float64(counts[p]) / float64(len(keys))
		if frac < 0.12 || frac > 0.28 {
			t.Fatalf("peer %s owns %.1f%% of keys, want ~20%% (bounds 12–28%%)", p, 100*frac)
		}
	}
}

// ownerAmong restricted to a subset must agree with a ring built from
// that subset: routing-time shedding behaves exactly like membership
// removal, with the same minimal-movement guarantee.
func TestRingOwnerAmongMatchesReducedRing(t *testing.T) {
	peers := ringPeers(5)
	keys := ringCorpus(300)
	full := mustRing(t, peers)
	alive := map[string]bool{peers[0]: true, peers[2]: true, peers[4]: true}
	reduced := mustRing(t, []string{peers[0], peers[2], peers[4]})
	for _, k := range keys {
		got, ok := full.ownerAmong(k, alive)
		if !ok {
			t.Fatalf("ownerAmong found no owner for %s", k[:8])
		}
		if want := reduced.owner(k); got != want {
			t.Fatalf("ownerAmong(%s) = %s, reduced ring says %s", k[:8], got, want)
		}
	}
	if _, ok := full.ownerAmong(keys[0], map[string]bool{}); ok {
		t.Fatal("ownerAmong with no live peers must report !ok")
	}
	if _, ok := full.ownerAmong(keys[0], map[string]bool{"http://unknown:1": true}); ok {
		t.Fatal("ownerAmong must ignore peers outside the ring")
	}
}

func TestRingRejectsEmptyAndBlank(t *testing.T) {
	if _, err := newRing(nil); err == nil {
		t.Fatal("empty peer list must be rejected")
	}
	if _, err := newRing([]string{"http://a:1", ""}); err == nil {
		t.Fatal("blank peer name must be rejected")
	}
}

// owners(key, 1) must agree with owner(key) — rank 0 IS the single
// owner — and the replica set must be distinct peers in a stable order.
func TestRingOwnersRankZeroIsOwner(t *testing.T) {
	r := mustRing(t, ringPeers(5))
	for _, k := range ringCorpus(300) {
		reps := r.owners(k, 3)
		if len(reps) != 3 {
			t.Fatalf("owners(%s, 3) returned %d peers", k[:8], len(reps))
		}
		if reps[0] != r.owner(k) {
			t.Fatalf("owners(%s)[0] = %s, owner = %s", k[:8], reps[0], r.owner(k))
		}
		seen := map[string]bool{}
		for _, p := range reps {
			if seen[p] {
				t.Fatalf("owners(%s, 3) repeats %s", k[:8], p)
			}
			seen[p] = true
		}
	}
}

// Degenerate and over-asked replica counts must clamp, not fail: a
// single-peer cluster serves every key itself at any R, and R above
// the cluster size means "every peer".
func TestRingOwnersClamps(t *testing.T) {
	solo := mustRing(t, ringPeers(1))
	for _, k := range ringCorpus(20) {
		for _, n := range []int{0, 1, 7} {
			reps := solo.owners(k, n)
			if len(reps) != 1 || reps[0] != solo.members()[0] {
				t.Fatalf("single-peer owners(%s, %d) = %v, want the one peer", k[:8], n, reps)
			}
		}
	}
	r := mustRing(t, ringPeers(3))
	for _, k := range ringCorpus(20) {
		if reps := r.owners(k, 99); len(reps) != 3 {
			t.Fatalf("owners(%s, 99) over 3 peers = %d replicas, want 3 (clamped)", k[:8], len(reps))
		}
	}
}

// The HRW rank order must be prefix-stable under membership change:
// removing a peer deletes it from each key's ranked list without
// reordering the survivors, so a key's replica set after a node loss
// is exactly its old ranked list with the dead peer struck out. This
// is the property that lets repair reason about "the same replicas,
// minus the failed one".
func TestRingOwnersPrefixStableUnderMembershipChange(t *testing.T) {
	peers := ringPeers(5)
	full := mustRing(t, peers)
	for _, victim := range peers {
		var survivors []string
		for _, p := range peers {
			if p != victim {
				survivors = append(survivors, p)
			}
		}
		reduced := mustRing(t, survivors)
		for _, k := range ringCorpus(300) {
			var want []string
			for _, p := range full.owners(k, len(peers)) {
				if p != victim {
					want = append(want, p)
				}
			}
			got := reduced.owners(k, len(survivors))
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("removing %s reordered owners(%s): got %v, want %v", victim, k[:8], got, want)
				}
			}
			// In particular the R=2 replica set only changes when the
			// victim was in it.
			before := full.owners(k, 2)
			after := reduced.owners(k, 2)
			if before[0] != victim && before[1] != victim {
				if after[0] != before[0] || after[1] != before[1] {
					t.Fatalf("R=2 replicas of %s changed %v → %v though %s was not a replica", k[:8], before, after, victim)
				}
			}
		}
	}
}
