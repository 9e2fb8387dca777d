package canon

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"sort"

	"hierpart/internal/graph"
)

// fingerprintDomain domain-separates canonical fingerprints from every
// other SHA-256 key space in the repo (cache.DecompKey, cache.ResultKey,
// diskstore checksums). Bump the version byte if the certificate layout
// ever changes — old fingerprints must not alias new ones.
const fingerprintDomain = "hgp-canon\x01"

// Options tunes the canonicalizer's escape hatches. The zero value is
// usable: every field ≤ 0 takes its documented default.
type Options struct {
	// MaxClass refuses graphs whose stable WL partition contains a
	// colour class larger than this: the residual automorphism classes
	// are too big for the exact tie-break to enumerate cheaply, so the
	// caller should fall back to a label-sensitive key rather than pay
	// a combinatorial search (or risk a non-canonical ordering).
	// Default 8.
	MaxClass int
	// MaxBranch bounds the individualization-refinement search: the
	// total number of branch nodes explored across the whole search
	// tree. Exceeding it refuses the graph. Default 4096.
	MaxBranch int
	// MaxRounds bounds WL refinement rounds. Refinement needs at most
	// diameter-ish rounds on structured graphs; a graph that has not
	// stabilized by then (very long uniform paths/cycles) is refused
	// rather than canonicalized slowly. Default 64.
	MaxRounds int
}

func (o Options) withDefaults() Options {
	if o.MaxClass <= 0 {
		o.MaxClass = 8
	}
	if o.MaxBranch <= 0 {
		o.MaxBranch = 4096
	}
	if o.MaxRounds <= 0 {
		o.MaxRounds = 64
	}
	return o
}

// Form is the canonical form of a weighted graph: a label-invariant
// fingerprint, the canonical relabelling that produced it, and the
// relabelled graph itself.
//
// Soundness does not rest on Weisfeiler–Leman completeness: the
// fingerprint hashes the canonical SERIALIZATION of the relabelled
// graph (vertex count, demands, sorted weighted edge list), so equal
// fingerprints imply byte-identical canonical graphs — i.e. isomorphic
// inputs — even for WL-equivalent non-isomorphic pairs. WL plus the
// exact tie-break only decide COMPLETENESS: whether two isomorphic
// inputs reach the same canonical ordering (they do whenever
// Canonicalize succeeds, which is what makes cross-user cache hits
// work).
type Form struct {
	// Fingerprint is the label-invariant identity: hex SHA-256 over the
	// canonical graph's serialization, domain-separated from every
	// other key space in the repo. Two graphs share a Fingerprint iff
	// they are isomorphic (as vertex-weighted, edge-weighted graphs).
	Fingerprint string
	// Perm maps submission vertex IDs to canonical IDs: submission
	// vertex v is canonical vertex Perm[v].
	Perm []int
	// Graph is the canonical relabelling of the input: demands and
	// edges carried through Perm, edges inserted in sorted canonical
	// order so downstream float summations are identical for every
	// isomorphic submission.
	Graph *graph.Graph
	// Rounds is how many WL refinement rounds stabilization took.
	Rounds int
	// Branches is how many individualization-refinement branch nodes
	// the exact tie-break explored; 0 means refinement alone was
	// already discrete.
	Branches int
}

// TranslateAssignment maps a canonical-space placement back into the
// submission's own vertex labels: submission vertex v is placed where
// canonical vertex Perm[v] was. The result is a fresh slice — cached
// canonical results are shared across requests and must not be mutated.
func (f *Form) TranslateAssignment(a []int) []int {
	out := make([]int, len(f.Perm))
	for v, c := range f.Perm {
		out[v] = a[c]
	}
	return out
}

// Canonicalize computes the canonical form of g under default Options.
// The boolean reports success; false means the graph's residual
// automorphism structure exceeded the cheap-search budget and the
// caller should fall back to a label-sensitive cache key.
func Canonicalize(g *graph.Graph) (*Form, bool) {
	return CanonicalizeOpts(g, Options{})
}

// CanonicalizeOpts is Canonicalize with explicit budgets.
//
// The algorithm is iterated Weisfeiler–Leman colour refinement over the
// weighted graph (initial colours from vertex demands; each round a
// vertex's colour absorbs the sorted multiset of (neighbour colour,
// edge weight) pairs), followed — when refinement stabilizes with
// non-singleton classes — by an exact individualization-refinement
// backtracking search: the first (lowest-colour) non-singleton class is
// the target cell, every member is individualized in turn, and the
// lexicographically smallest certificate over all leaves of the search
// wins. Because the target cell choice is isomorphism-invariant and
// every cell member is tried, the minimum certificate is a true
// canonical form; the budgets only decide whether we finish the search,
// never which answer it returns.
func CanonicalizeOpts(g *graph.Graph, opt Options) (*Form, bool) {
	opt = opt.withDefaults()
	n := g.N()
	if n == 0 {
		sum := sha256.Sum256([]byte(fingerprintDomain))
		return &Form{Fingerprint: hex.EncodeToString(sum[:]), Perm: []int{}, Graph: graph.New(0)}, true
	}

	r := newRefiner(g)
	ranks, classes, rounds, ok := r.refine(initialRanks(g), opt.MaxRounds)
	if !ok {
		return nil, false
	}

	var perm []int
	var cert []byte
	branches := 0
	if classes == n {
		perm = ranks
		cert = certificate(g, perm)
	} else {
		if largestClass(ranks, classes) > opt.MaxClass {
			return nil, false
		}
		s := &searcher{g: g, r: r, opt: opt}
		s.explore(ranks, classes)
		if s.refused || s.best == nil {
			return nil, false
		}
		perm, cert, branches = s.bestPerm, s.best, s.nodes
	}

	h := sha256.New()
	h.Write([]byte(fingerprintDomain))
	h.Write(cert)
	return &Form{
		Fingerprint: hex.EncodeToString(h.Sum(nil)),
		Perm:        perm,
		Graph:       Permute(g, perm),
		Rounds:      rounds,
		Branches:    branches,
	}, true
}

// Permute returns a copy of g with vertex v relabelled to perm[v].
// Edges are inserted in sorted new-label order, so two Permute calls
// that produce the same labelled graph produce byte-identical internal
// state — neighbour iteration order included, which keeps downstream
// deterministic float summations identical across isomorphic
// submissions.
func Permute(g *graph.Graph, perm []int) *graph.Graph {
	out := graph.FromEdges(g.N(), relabelledEdges(g, perm))
	for v := 0; v < g.N(); v++ {
		out.SetDemand(perm[v], g.Demand(v))
	}
	return out
}

// relabelledEdges returns g's edges with vertex v relabelled to
// perm[v], each with U < V, sorted by (U, V).
func relabelledEdges(g *graph.Graph, perm []int) []graph.Edge {
	es := g.Edges()
	for i, e := range es {
		u, v := perm[e.U], perm[e.V]
		es[i] = graph.Edge{U: min(u, v), V: max(u, v), Weight: e.Weight}
	}
	slices.SortFunc(es, func(a, b graph.Edge) int {
		if a.U != b.U {
			return a.U - b.U
		}
		return a.V - b.V
	})
	return es
}

// certificate serializes g under the discrete colouring perm (vertex v
// → canonical ID perm[v]): vertex count, demands in canonical order,
// then the sorted canonical edge list with weight bits. Two inputs
// produce equal certificates iff their canonical relabellings are
// identical graphs.
func certificate(g *graph.Graph, perm []int) []byte {
	n := g.N()
	buf := make([]byte, 0, 8+8*n+24*g.M())
	w64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	w64(uint64(n))
	inv := make([]int, n)
	for v, c := range perm {
		inv[c] = v
	}
	for c := 0; c < n; c++ {
		w64(math.Float64bits(g.Demand(inv[c])))
	}
	for _, e := range relabelledEdges(g, perm) {
		w64(uint64(e.U))
		w64(uint64(e.V))
		w64(math.Float64bits(e.Weight))
	}
	return buf
}

// initialRanks colours vertices by demand alone; the first refinement
// round folds in degrees and incident weights. The rank assignment is
// label-invariant: ranks order by demand bits, not vertex ID.
func initialRanks(g *graph.Graph) []int {
	n := g.N()
	codes := make([]uint64, n)
	for v := 0; v < n; v++ {
		codes[v] = mix(0x9E3779B97F4A7C15, math.Float64bits(g.Demand(v)))
	}
	ranks, _ := denseRank(codes)
	return ranks
}

// mix folds x into hash state h (splitmix64-style). Collisions can only
// merge colour classes — which coarsens the partition and at worst
// causes a refusal or a missed cross-user hit, never a wrong
// fingerprint (the fingerprint hashes the certificate, not the
// colours).
func mix(h, x uint64) uint64 {
	h ^= x + 0x9E3779B97F4A7C15 + (h << 6) + (h >> 2)
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return h
}

// denseRank maps arbitrary per-vertex codes to dense ranks 0..k-1,
// ordered by code value — a label-invariant renaming of the colour
// classes.
func denseRank(codes []uint64) ([]int, int) {
	sorted := append([]uint64(nil), codes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	uniq := sorted[:0]
	var prev uint64
	for i, c := range sorted {
		if i == 0 || c != prev {
			uniq = append(uniq, c)
		}
		prev = c
	}
	ranks := make([]int, len(codes))
	for v, c := range codes {
		ranks[v] = sort.Search(len(uniq), func(i int) bool { return uniq[i] >= c })
	}
	return ranks, len(uniq)
}

func largestClass(ranks []int, classes int) int {
	sizes := make([]int, classes)
	for _, r := range ranks {
		sizes[r]++
	}
	max := 0
	for _, s := range sizes {
		if s > max {
			max = s
		}
	}
	return max
}

// refiner runs WL rounds over one graph, reusing scratch across rounds
// and search branches.
type refiner struct {
	g     *graph.Graph
	codes []uint64
	pairs []nbrPair // scratch: one vertex's neighbour multiset
}

type nbrPair struct {
	rank uint64
	w    uint64
}

func newRefiner(g *graph.Graph) *refiner {
	return &refiner{g: g, codes: make([]uint64, g.N())}
}

// refine iterates WL rounds from the given colouring until the class
// count stops growing (the partition is stable: each round's colouring
// refines the previous one, so an unchanged count means an unchanged
// partition), returning the stable ranks, class count, and rounds
// taken. ok is false when maxRounds passed without stabilizing.
func (r *refiner) refine(ranks []int, maxRounds int) ([]int, int, int, bool) {
	n := r.g.N()
	classes := countClasses(ranks)
	for round := 1; round <= maxRounds; round++ {
		for v := 0; v < n; v++ {
			r.pairs = r.pairs[:0]
			r.g.Neighbors(v, func(u int, w float64) {
				r.pairs = append(r.pairs, nbrPair{rank: uint64(ranks[u]), w: math.Float64bits(w)})
			})
			sort.Slice(r.pairs, func(i, j int) bool {
				if r.pairs[i].rank != r.pairs[j].rank {
					return r.pairs[i].rank < r.pairs[j].rank
				}
				return r.pairs[i].w < r.pairs[j].w
			})
			h := mix(0x243F6A8885A308D3, uint64(ranks[v]))
			for _, p := range r.pairs {
				h = mix(h, p.rank)
				h = mix(h, p.w)
			}
			r.codes[v] = h
		}
		next, nextClasses := denseRank(r.codes)
		if nextClasses == classes {
			return next, nextClasses, round, true
		}
		ranks, classes = next, nextClasses
		if classes == n {
			return ranks, classes, round, true
		}
	}
	return nil, 0, maxRounds, false
}

func countClasses(ranks []int) int {
	seen := map[int]bool{}
	for _, r := range ranks {
		seen[r] = true
	}
	return len(seen)
}

// searcher is the exact individualization-refinement tie-break: a
// depth-first search over individualization choices, keeping the
// lexicographically smallest certificate seen at any discrete leaf.
type searcher struct {
	g        *graph.Graph
	r        *refiner
	opt      Options
	nodes    int
	refused  bool
	best     []byte
	bestPerm []int
}

func (s *searcher) explore(ranks []int, classes int) {
	if s.refused {
		return
	}
	n := s.g.N()
	if classes == n {
		cert := certificate(s.g, ranks)
		if s.best == nil || bytes.Compare(cert, s.best) < 0 {
			s.best = cert
			s.bestPerm = append([]int(nil), ranks...)
		}
		return
	}
	// Target cell: the non-singleton class with the smallest rank — an
	// isomorphism-invariant choice, which is what makes the minimum
	// over the full search a canonical form.
	sizes := make([]int, classes)
	for _, r := range ranks {
		sizes[r]++
	}
	target := -1
	for r := 0; r < classes; r++ {
		if sizes[r] > 1 {
			target = r
			break
		}
	}
	var cell []int
	for v, r := range ranks {
		if r == target {
			cell = append(cell, v)
		}
	}
	for _, v := range cell {
		s.nodes++
		if s.nodes > s.opt.MaxBranch {
			s.refused = true
			return
		}
		// Individualize v: split its class into {v} (ordered first) and
		// the rest, then re-refine to a new stable partition.
		codes := make([]uint64, n)
		for u, r := range ranks {
			codes[u] = uint64(r)*2 + 1
		}
		codes[v] = uint64(ranks[v]) * 2
		indiv, _ := denseRank(codes)
		next, nextClasses, _, ok := s.r.refine(indiv, s.opt.MaxRounds)
		if !ok {
			s.refused = true
			return
		}
		s.explore(next, nextClasses)
		if s.refused {
			return
		}
	}
}
