// Package cache provides the caching layer of the hgpd serving stack: a
// thread-safe LRU plus the canonical content hashes that key every
// cache in the daemon.
//
// Building the decomposition tree distribution (§4 of the paper,
// internal/treedecomp) is a fixed share of every cold solve: on
// perfbench's traced cold-ladder workload (2-vCPU host, GOMAXPROCS 2)
// it measured about 12 ms per op against about 66 ms for the DP
// (hgp.solve). The distribution is also a pure function of (graph,
// Trees, Seed, FMPasses, FlowRefine, Strategy) — per-tree sub-seeded
// RNG streams make it independent of worker count and build order.
// That purity is what makes caching sound: two requests with the same
// canonical key receive bit-identical tree distributions, so a cache
// hit skips the embed phase entirely without changing the response.
//
// Two key families cover the two artifacts worth reusing:
//
//   - DecompKey / DecompKeyCanon identify a decomposition (the embed
//     phase's output). DecompKey hashes the labelled graph directly —
//     vertex demands plus the sorted edge list, so vertex-identical
//     graphs collide deliberately and relabelled isomorphic graphs
//     miss. DecompKeyCanon instead hashes a label-invariant
//     canonical-form fingerprint from internal/canon, so isomorphic
//     submissions from different users share one entry; the cached
//     value is then a DecompEntry carrying the canonical graph's
//     decomposition plus the writing request's orig→canonical
//     permutation.
//   - ResultKey / ResultKeyCanon identify a FULL solve result
//     (decomposition + DP + gather), extending the decomposition
//     identity with the hierarchy shape and the solver's Eps and
//     MaxStates. Workers and the portfolio-pruning toggle are
//     deliberately excluded from every key: the result is bit-identical
//     across them, so keying on them would only fragment the cache.
//
// Each family occupies its own hash domain ("result\x00",
// "decomp-canon\x02", "result-canon\x02", and DecompKey's raw
// serialization), so the four key spaces can never alias one another.
//
// Main entry points: New builds an LRU of bounded entry count with
// hit/miss/eviction accounting (LRU.Stats); LRU.Get / LRU.Add are the
// lookup and insert.
package cache
