package main

import (
	"fmt"
	"net/http"
	"strings"

	"hierpart/internal/server"
)

// statsDelta is the change in the daemon's /v1/stats counters over one
// timed phase: the workload-integrity counts printed with every run.
type statsDelta struct {
	resultHits, resultMisses, resultEvictions int64
	decompHits, decompMisses, decompEvictions int64
	decompBuilds                              int64
	canonAttempts, canonOK, canonFallback     int64
	degraded                                  map[string]int64 // by tier
	treesPruned                               int64
	incremental, cold                         int64
	dirtyTables, reusedTables                 int64
	boundFallbacks, conflicts                 int64
}

func fetchStats(h http.Handler) (*server.StatsResponse, error) {
	var st server.StatsResponse
	if err := expectOK(h, "GET", "/v1/stats", nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

var tierNames = []string{"full_dp", "capped_dp", "baseline"}

func diffStats(a, b *server.StatsResponse) *statsDelta {
	d := &statsDelta{degraded: map[string]int64{}}
	if a.ResultCache != nil && b.ResultCache != nil {
		d.resultHits = b.ResultCache.Hits - a.ResultCache.Hits
		d.resultMisses = b.ResultCache.Misses - a.ResultCache.Misses
		d.resultEvictions = b.ResultCache.Evictions - a.ResultCache.Evictions
	}
	if a.Cache != nil && b.Cache != nil {
		d.decompHits = b.Cache.Hits - a.Cache.Hits
		d.decompMisses = b.Cache.Misses - a.Cache.Misses
		d.decompEvictions = b.Cache.Evictions - a.Cache.Evictions
	}
	counter := func(name string) int64 { return b.Metrics.Counters[name] - a.Metrics.Counters[name] }
	d.decompBuilds = counter("decomp_builds_total")
	d.canonAttempts = b.Canon.AttemptsTotal - a.Canon.AttemptsTotal
	d.canonOK = b.Canon.OKTotal - a.Canon.OKTotal
	d.canonFallback = b.Canon.FallbackTotal - a.Canon.FallbackTotal
	for _, t := range tierNames {
		d.degraded[t] = counter(fmt.Sprintf("degraded_total{tier=%q}", t))
	}
	d.treesPruned = b.Portfolio.TreesPrunedTotal - a.Portfolio.TreesPrunedTotal
	d.incremental = b.Sessions.IncrementalSolvesTotal - a.Sessions.IncrementalSolvesTotal
	for reason, n := range b.Sessions.ColdFallbacks {
		d.cold += n - a.Sessions.ColdFallbacks[reason]
	}
	d.dirtyTables = b.Sessions.DirtyTablesTotal - a.Sessions.DirtyTablesTotal
	d.reusedTables = b.Sessions.ReusedTablesTotal - a.Sessions.ReusedTablesTotal
	d.boundFallbacks = b.Sessions.BoundFallbacksTotal - a.Sessions.BoundFallbacksTotal
	d.conflicts = b.Sessions.ConflictsTotal - a.Sessions.ConflictsTotal
	return d
}

func (d *statsDelta) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "result_cache hits=%d misses=%d evictions=%d\n", d.resultHits, d.resultMisses, d.resultEvictions)
	fmt.Fprintf(&sb, "decomp_cache hits=%d misses=%d evictions=%d builds=%d\n", d.decompHits, d.decompMisses, d.decompEvictions, d.decompBuilds)
	fmt.Fprintf(&sb, "canon        attempts=%d ok=%d fallback=%d\n", d.canonAttempts, d.canonOK, d.canonFallback)
	fmt.Fprintf(&sb, "degraded     full_dp=%d capped_dp=%d baseline=%d  trees_pruned=%d\n",
		d.degraded["full_dp"], d.degraded["capped_dp"], d.degraded["baseline"], d.treesPruned)
	fmt.Fprintf(&sb, "sessions     incremental=%d cold=%d dirty_tables=%d reused_tables=%d bound_fallbacks=%d conflicts=%d",
		d.incremental, d.cold, d.dirtyTables, d.reusedTables, d.boundFallbacks, d.conflicts)
	return sb.String()
}
