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
// With Config.Peers set the daemon joins a shard group (DESIGN.md
// §13–§14): a rendezvous-hash ring homes every cache key on its top-R
// peers (Config.Replication). Non-replicas fetch a replica's copy over
// the internal /v1/peer/* surface (snapshot wire framing, validated
// like snapshot files) before building, and push their own builds to
// every routable replica. Anti-entropy repair restocks a replica that
// missed a push: it sweeps at startup, when a peer recovers, after a
// membership reload, and on Config.RepairInterval. Each peer has one
// routability verdict: a failed health poll demotes it, and so does a
// peer call (at most two attempts) whose attempts all failed; only a
// clean poll restores it. Every fetch failure falls back to the local solve path.
// Sessions stay on the daemon that registered them.
//
// Main entry points: New builds a Server from a Config; Server.Handler
// returns the http.Handler exposing /v1/partition, the /v1/graphs
// session routes, /v1/healthz, /v1/stats (JSON or Prometheus text via
// ?format=prometheus), and /debug/pprof/*; Server.ReloadPeers swaps
// cluster membership; Server.Shutdown drains. Observability flows
// through internal/telemetry (request counters, queue gauges,
// per-phase latency histograms). API.md documents the wire format with
// runnable examples.
package server
