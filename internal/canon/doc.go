// Package canon gives every graph submitted to hgpd one cache identity,
// a Form, so that isomorphic submissions — the same topology under
// relabelled vertex IDs, the common case when autoscaled tenants
// resubmit replicas of one pipeline/diamond/join-tree family — map to a
// single label-invariant key.
//
// Canonicalize runs iterated Weisfeiler–Leman colour refinement over
// the graph (vertex demands seed the colours; each round absorbs the
// sorted multiset of (neighbour colour, edge weight) pairs) and, when
// refinement stabilizes short of discrete, an exact
// individualization-refinement backtracking search that breaks the
// residual automorphism-class ties: the lexicographically smallest
// certificate over the full search is a true canonical form. The
// result is a Form: a SHA-256 Fingerprint hashed from the canonical
// graph's serialization, the permutation that produced it, and the
// canonically relabelled graph itself.
//
// One work budget keeps the worst case cheap: every WL round, at the
// root and in every branch of the search, is charged n + m, and a graph
// whose search would pass 8·(n + m) + 16 384 is refused; so is one
// whose first stable partition has a colour class over 8 (tori,
// complete bipartite graphs), after one round. Both rules count only
// label-invariant work, so relabellings of one graph are all refused or
// all canonicalized. A refused graph is keyed by Labelled: its own
// serialization under the identity permutation, fingerprinted in the
// same domain — a missed cross-user hit, never a wrong one.
//
// Soundness never depends on WL completeness, nor on the form's kind:
// the fingerprint covers the serialization of the form's graph, so two
// forms — canonical or labelled — share a fingerprint only if their
// graphs are byte-identical, and WL-equivalent non-isomorphic graphs
// either receive distinct fingerprints (the tie-break resolved them)
// or are refused.
//
// internal/cache derives every cache key from the Fingerprint, and
// internal/server translates cached placements back through
// Form.TranslateAssignment. See DESIGN.md §12 for the soundness
// argument and the measured budget.
package canon
