package cache

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sync"

	"hierpart/internal/canon"
	"hierpart/internal/graph"
	"hierpart/internal/hierarchy"
	"hierpart/internal/treedecomp"
)

// LRU is a thread-safe fixed-capacity least-recently-used cache. Get
// promotes, Add inserts or refreshes, and inserting beyond capacity
// evicts the coldest entry.
type LRU struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element

	hits, misses, evictions int64
}

type lruEntry struct {
	key string
	val any
}

// New builds an LRU holding at most capacity entries; capacity < 1 is
// treated as 1.
func New(capacity int) *LRU {
	if capacity < 1 {
		capacity = 1
	}
	return &LRU{cap: capacity, ll: list.New(), items: map[string]*list.Element{}}
}

// Get returns the value under key and promotes it to most recently
// used. The second result reports whether the key was present; every
// call counts as a hit or a miss.
func (c *LRU) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// Peek returns the value under key without promoting it and without
// ticking the hit/miss counters. It exists for the cluster peer-serve
// path: a peer probing this daemon for a key it may not hold must not
// distort the serving cache's recency order or its hit-ratio
// accounting, which describe this daemon's own request stream.
func (c *LRU) Peek(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	return el.Value.(*lruEntry).val, true
}

// Add inserts val under key (refreshing the entry if present), evicting
// the least recently used entry when the cache is full. It returns the
// evicted value, or nil when nothing was evicted, so a caller whose
// values own outside resources can release them.
func (c *LRU) Add(key string, val any) (evicted any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).val = val
		c.ll.MoveToFront(el)
		return nil
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, val: val})
	if c.ll.Len() <= c.cap {
		return nil
	}
	c.evictions++
	return c.removeLocked(c.ll.Back())
}

// Remove deletes key and returns its value. A removal is the caller's
// decision, not an eviction: it ticks neither the eviction counter nor
// the hit/miss counters.
func (c *LRU) Remove(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	return c.removeLocked(el), true
}

func (c *LRU) removeLocked(el *list.Element) any {
	c.ll.Remove(el)
	e := el.Value.(*lruEntry)
	delete(c.items, e.key)
	return e.val
}

// Keys returns a snapshot of the cached keys, most recently used
// first. Like Peek it leaves recency order and hit/miss accounting
// untouched — it exists for the cluster's key-digest exchange
// (GET /v1/peer/keys), where listing must not distort the accounting
// that describes this daemon's own request stream.
func (c *LRU) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*lruEntry).key)
	}
	return keys
}

// Len returns the current number of entries.
func (c *LRU) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats is a point-in-time view of the cache's accounting.
type Stats struct {
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Evictions int64   `json:"evictions"`
	Len       int     `json:"len"`
	Capacity  int     `json:"capacity"`
	HitRatio  float64 `json:"hit_ratio"` // hits / (hits+misses); 0 when unused
}

// Stats returns the cache's hit/miss/eviction counters.
func (c *LRU) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Len: c.ll.Len(), Capacity: c.cap}
	if total := c.hits + c.misses; total > 0 {
		s.HitRatio = float64(c.hits) / float64(total)
	}
	return s
}

// DecompEntry is the value stored in the decomposition cache: the
// decomposition of a request's canon.Form graph plus the form's
// submission→form permutation of the request that wrote the entry (nil
// for a labelled form). The permutation is provenance — each reader
// translates through its own request's permutation, never the stored
// one — but persisting it lets snapshots round-trip the full entry and
// lets tests pin writer/reader consistency.
type DecompEntry struct {
	Dec  *treedecomp.Decomposition
	Perm []int // submission→form mapping of the writing request; nil for a labelled form
}

// keyHasher accumulates the little-endian serialization of key
// material shared by all cache-key derivations.
type keyHasher struct {
	h   hash.Hash
	buf [8]byte
}

func newKeyHasher() *keyHasher { return &keyHasher{h: sha256.New()} }

func (k *keyHasher) bytes(b []byte) { k.h.Write(b) }

func (k *keyHasher) int(v int64) {
	binary.LittleEndian.PutUint64(k.buf[:], uint64(v))
	k.h.Write(k.buf[:])
}

func (k *keyHasher) float(v float64) {
	binary.LittleEndian.PutUint64(k.buf[:], math.Float64bits(v))
	k.h.Write(k.buf[:])
}

// options folds in the treedecomp option fields that shape the emitted
// tree distribution (Trees, Seed, FMPasses — with the solver's
// effective default of 4 for a zero value — FlowRefine, Strategy).
// Options.Workers is deliberately excluded: the per-tree sub-seeded RNG
// streams make the distribution identical at every worker count, so
// keying on it would only fragment the cache.
func (k *keyHasher) options(opt treedecomp.Options) {
	trees := opt.Trees
	if trees == 0 {
		trees = 1
	}
	passes := opt.FMPasses
	if passes == 0 {
		passes = 4
	}
	k.int(int64(trees))
	k.int(opt.Seed)
	k.int(int64(passes))
	if opt.FlowRefine {
		k.int(1)
	} else {
		k.int(0)
	}
	k.int(int64(opt.Strategy))
}

// hierarchy folds in the hierarchy shape (deg and cm level by level).
func (k *keyHasher) hierarchy(H *hierarchy.Hierarchy) {
	k.int(int64(H.Height()))
	for j := 0; j < H.Height(); j++ {
		k.int(int64(H.Deg(j)))
	}
	for j := 0; j <= H.Height(); j++ {
		k.float(H.CM(j))
	}
}

func (k *keyHasher) sum() string { return hex.EncodeToString(k.h.Sum(nil)) }

// DecompKeyCanon returns the decomposition cache key of a canon.Form
// fingerprint under opt (see keyHasher.options for the included and
// excluded option fields). Any two submissions whose forms share the
// fingerprint share the key, so they share one cached decomposition of
// the form's graph: every isomorphic submission that canonicalizes, and
// every identical resubmission of a graph keyed by its labelled form.
// The "decomp-canon\x02" prefix domain-separates it from the result
// keys. Soundness: equal fingerprints imply byte-identical serialized
// graphs (the fingerprint hashes the serialization, not a WL summary),
// so a hit hands back a decomposition of exactly the graph the reader
// is solving.
func DecompKeyCanon(fingerprint string, opt treedecomp.Options) string {
	k := newKeyHasher()
	k.bytes([]byte("decomp-canon\x02"))
	k.bytes([]byte(fingerprint))
	k.options(opt)
	return k.sum()
}

// ResultKeyCanon returns the cache key for a FULL solve result —
// decomposition plus DP plus gather — so a repeat request can skip both
// phases. It extends DecompKeyCanon's identity (form, tree-distribution
// options) with everything else that determines the returned placement
// — the hierarchy shape (deg and cm level by level) and the solver's
// Eps and MaxStates — under its own "result-canon\x02" domain. The
// translation back to submission labels is a pure relabelling that
// cannot change the cost — see DESIGN.md §12.
//
// Deliberately excluded, because the returned result is bit-identical
// across them (keying on them would only fragment the cache):
//
//   - Workers — per-tree sub-seeded RNGs and the order-independent DP
//     make every worker count produce the same result;
//   - the portfolio-pruning toggle — the identity battery
//     (hgp.TestPruneIdentityBattery and the at-scale variant) pins
//     pruned results bit-identical to unpruned ones. PerTreeCosts
//     sentinels differ (+Inf for pruned trees), so cached results keep
//     whichever sentinel pattern the first solve produced.
func ResultKeyCanon(fingerprint string, H *hierarchy.Hierarchy, opt treedecomp.Options, eps float64, maxStates int) string {
	k := newKeyHasher()
	k.bytes([]byte("result-canon\x02"))
	k.bytes([]byte(DecompKeyCanon(fingerprint, opt)))
	k.hierarchy(H)
	k.float(eps)
	k.int(int64(maxStates))
	return k.sum()
}

// DecompKey is DecompKeyCanon of g's labelled form, kept only for
// perfbench until the next benchmark change.
func DecompKey(g *graph.Graph, opt treedecomp.Options) string {
	return DecompKeyCanon(canon.Labelled(g).Fingerprint, opt)
}

// ResultKey is ResultKeyCanon of g's labelled form, kept only for
// perfbench until the next benchmark change.
func ResultKey(g *graph.Graph, H *hierarchy.Hierarchy, opt treedecomp.Options, eps float64, maxStates int) string {
	return ResultKeyCanon(canon.Labelled(g).Fingerprint, H, opt, eps, maxStates)
}
