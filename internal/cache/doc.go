// Package cache provides the caching layer of the hgpd serving stack: a
// thread-safe LRU plus the content hashes that key every cache in the
// daemon.
//
// Building the decomposition tree distribution (§4 of the paper,
// internal/treedecomp) is a fixed share of every cold solve: on
// perfbench's traced cold-ladder workload (2-vCPU host, GOMAXPROCS 2)
// it measured about 12 ms per op against about 66 ms for the DP
// (hgp.solve). The distribution is also a pure function of (graph,
// Trees, Seed, FMPasses, FlowRefine, Strategy) — per-tree sub-seeded
// RNG streams make it independent of worker count and build order.
// That purity is what makes caching sound: two requests with the same
// key receive bit-identical tree distributions, so a cache hit skips
// the embed phase entirely without changing the response.
//
// One key family covers the two artifacts worth reusing. Every key
// derives from a canon.Form fingerprint: the request's canonical form,
// shared by every isomorphic submission, or — when canonicalization
// refuses — its labelled form, the submission's own serialization
// hashed in the same fingerprint domain. Equal fingerprints imply
// byte-identical serialized graphs, so a hit always hands back an
// artifact of exactly the graph the reader solves (DESIGN.md §12).
//
//   - DecompKeyCanon identifies a decomposition (the embed phase's
//     output); the cached value is a DecompEntry carrying the
//     decomposition of the form's graph plus the writing request's
//     permutation (none for a labelled form).
//   - ResultKeyCanon identifies a FULL solve result (decomposition, DP
//     and gather), extending the decomposition identity with the
//     hierarchy shape and the solver's Eps and MaxStates. Workers and
//     the portfolio-pruning toggle are deliberately excluded from every
//     key: the result is bit-identical across them, so keying on them
//     would only fragment the cache.
//
// The two occupy their own hash domains ("decomp-canon\x02",
// "result-canon\x02"), so they can never alias each other. DecompKey
// and ResultKey are one-line wrappers over the labelled form's keys,
// kept only because perfbench calls them; they go in the next
// benchmark change.
//
// Main entry points: New builds an LRU of bounded entry count with
// hit/miss/eviction accounting (LRU.Stats); LRU.Get / LRU.Add are the
// lookup and insert.
package cache
