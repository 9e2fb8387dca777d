package hgpt

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
)

// TableCache holds the per-node DP tables of a previous solve, keyed by
// a structural hash of the binarized subtree each table summarizes. A
// subsequent solve over a repaired decomposition tree (Solver.Reuse)
// looks nodes up by the same hash: subtrees untouched by the repair
// hash identically, so their tables are served verbatim and the DP
// re-runs only on the dirty subtrees and their ancestor chains — the
// exact dirty-table set, discovered by content rather than bookkeeping.
//
// Soundness: a node's table is a pure function of (the subtree below it
// including child edge weights, the scaled leaf demands, and the run
// parameters captured in the cache's run signature) whenever no
// incumbent bound filters entries. Bounds make tables depend on the
// ceiling and, under a shared bound, on cross-tree timing, so a bounded
// run (Solver.Bound set) is served cached tables but never writes its
// own back (TestReuseUnderBound). Reused tables are immutable: the
// solver never prunes or merges into them, and counts their states
// exactly as a fresh run would, so a warm solve is bit-identical to a
// cold solve over the same tree (Solution fields, States, and MaxStates
// behavior included — the oracle battery in reuse_test.go pins this).
//
// A TableCache is owned by one solve at a time (the hgpd session store
// serializes solves per session); it is not safe for concurrent use.
type TableCache struct {
	sig    string
	tables map[string]*dpTable
}

// NewTableCache returns an empty cache.
func NewTableCache() *TableCache { return &TableCache{} }

// Len returns the number of cached tables (0 for an empty or nil cache).
func (c *TableCache) Len() int {
	if c == nil {
		return 0
	}
	return len(c.tables)
}

// runIdentity fingerprints every run parameter a table's content depends
// on besides the subtree itself: the hierarchy shape (h, scaled
// capacities, per-level cost increments), the demand scaling unit, the
// signature encoding width, the ablation switches, and whether dominance
// pruning ran. Caches recorded under a different identity are ignored
// wholesale rather than risking a stale hit.
func (d *dpRun) runIdentity(pruneOn bool) string {
	hh := sha256.New()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		hh.Write(buf[:])
	}
	put(uint64(d.h))
	for _, c := range d.capS {
		put(uint64(c))
	}
	for _, dl := range d.delta {
		put(math.Float64bits(dl))
	}
	put(math.Float64bits(d.unit))
	put(uint64(d.codec.bits))
	flags := uint64(0)
	if d.literalEq4 {
		flags |= 1
	}
	if d.noZeroRegions {
		flags |= 2
	}
	if pruneOn {
		flags |= 4
	}
	put(flags)
	return string(hh.Sum(nil))
}

// subtreeHashes computes, bottom-up, a structural hash per binarized
// node: leaves hash their scaled demand, internal nodes fold each child's
// hash with its edge weight. Node IDs and leaf labels are deliberately
// absent — a repair renumbers nodes, and table contents depend on
// neither.
func (d *dpRun) subtreeHashes() []string {
	hs := make([]string, d.bt.N())
	var buf [8]byte
	for _, v := range d.bt.PostOrder() {
		hh := sha256.New()
		if d.bt.IsLeaf(v) {
			hh.Write([]byte{'L'})
			binary.LittleEndian.PutUint64(buf[:], uint64(d.du[v]))
			hh.Write(buf[:])
		} else {
			hh.Write([]byte{'I'})
			for _, c := range d.bt.Children(v) {
				hh.Write([]byte(hs[c]))
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(d.bt.EdgeWeight(c)))
				hh.Write(buf[:])
			}
		}
		hs[v] = string(hh.Sum(nil))
	}
	return hs
}

// attachReuse wires a warm cache into the run: hashes are always
// computed (the post-solve repopulation needs them), and the previous
// generation's tables are consulted only when the run identity matches.
func (d *dpRun) attachReuse(c *TableCache, pruneOn bool) {
	d.hashes = d.subtreeHashes()
	d.reuseSig = d.runIdentity(pruneOn)
	if c.sig == d.reuseSig && len(c.tables) > 0 {
		d.reuseTabs = c.tables
	}
}

// reuseLookup serves node v's table from the previous generation, if
// present. A hit is immutable — callers must not prune or mutate it.
func (d *dpRun) reuseLookup(v int) (*dpTable, bool) {
	if d.reuseTabs == nil {
		return nil, false
	}
	tab, ok := d.reuseTabs[d.hashes[v]]
	if ok {
		d.reused.Add(1)
	}
	return tab, ok
}

// repopulate replaces the cache's generation with this solve's tables.
// Identical subtrees within one tree share a hash; their tables are
// bit-identical (same deterministic function of the same inputs), so
// either copy serves.
func (c *TableCache) repopulate(d *dpRun, tabs []*dpTable) {
	c.sig = d.reuseSig
	c.tables = make(map[string]*dpTable, len(tabs))
	for v, tab := range tabs {
		c.tables[d.hashes[v]] = tab
	}
}
