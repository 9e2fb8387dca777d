// Package server implements hgpd's HTTP serving layer: a long-running
// partitioning daemon that amortizes the expensive decomposition embed
// (§4 of the paper) across requests and bounds worst-case work, which
// Feldmann-style hardness results say cannot be eliminated — only
// deadline-bounded and load-shed.
//
// Request lifecycle of POST /v1/partition:
//
//	decode+validate → admission (bounded queue, 429 on overflow)
//	→ per-request deadline (context.Context, 504 on expiry)
//	→ decomposition cache (internal/cache LRU; hit skips §4 entirely)
//	→ per-tree signature DPs (§3, hgp.Solver.SolveDecomposition)
//	→ respond (assignment, costs, per-tree diagnostics, phase timings)
//
// The session routes (/v1/graphs) run the same drain, decode,
// validation, admission and error-mapping stages (pipeline.go), so both
// solve routes shed and fail alike.
//
// Shutdown is graceful: Drain flips /v1/healthz to "draining" and
// rejects new solves with 503 while Shutdown waits for every in-flight
// solve to finish.
//
// With Config.Peers set the daemon joins a static shard group
// (DESIGN.md §13): a rendezvous-hash ring gives every cache key one
// owner, non-owners fetch the owner's copy over the internal
// /v1/peer/* surface (snapshot wire framing, validated like snapshot
// files) before building, and push their own builds owner-ward.
// Retry/backoff, a per-peer circuit breaker, and health gossip bound
// the cost of dead or draining peers; every fetch failure falls back
// to the local solve path.
//
// Main entry points: New builds a Server from a Config; Server.Handler
// returns the http.Handler exposing /v1/partition, /v1/healthz,
// /v1/stats (JSON or Prometheus text via ?format=prometheus), and
// /debug/pprof/*; Server.Shutdown drains. Observability flows through
// internal/telemetry (request counters, queue gauges, per-phase latency
// histograms). API.md documents the wire format with runnable examples.
package server
