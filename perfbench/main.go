// Command perfbench is the hgpd benchmark. It drives the daemon's real
// HTTP handler in-process with one of three seeded closed-loop
// workloads, checks every answer outside the timed window, and prints
// the end-to-end metrics; with -trace 1 it instead replays the same ops
// through each layer's public functions and prints per-layer metrics.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload cold-ladder --seed 1 --seconds 30 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the daemon sees, reported by every
// untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_ops_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"live_heap_mb", "MB"},
	{"cost_ratio", "ratio"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reports 0.
var perLayer = []metricDef{
	{"server.decode_ms", "ms"},
	{"server.encode_ms", "ms"},
	{"server.patch_ms", "ms"},
	{"server.self_ms", "ms"},
	{"instio.materialize_ms", "ms"},
	{"canon.canonicalize_ms", "ms"},
	{"canon.translate_ms", "ms"},
	{"canon.ok_ratio", "ratio"},
	{"cache.key_ms", "ms"},
	{"cache.result_hit_ratio", "ratio"},
	{"cache.decomp_hit_ratio", "ratio"},
	{"cache.evictions_per_op", "count/op"},
	{"anytime.solve_ms", "ms"},
	{"anytime.full_win_ratio", "ratio"},
	{"anytime.loser_ms", "ms"},
	{"treedecomp.build_ms", "ms"},
	{"treedecomp.repair_ms", "ms"},
	{"treedecomp.repair_reused_frac", "ratio"},
	{"treedecomp.alloc_mb", "MB"},
	{"hgp.solve_ms", "ms"},
	{"hgp.self_ms", "ms"},
	{"hgp.trees_pruned_frac", "ratio"},
	{"hgp.prune_abort_frac", "ratio"},
	{"hgp.warm_bounded_frac", "ratio"},
	{"hgp.bound_fallbacks", "count"},
	{"hgp.alloc_mb", "MB"},
	{"hgpt.dp_ms", "ms"},
	{"hgpt.tree_ms_p90", "ms"},
	{"hgpt.states", "count"},
	{"hgpt.dirty_table_frac", "ratio"},
	{"hgpt.dp_ms.k1", "ms"},
	{"hgpt.dp_ms.k2", "ms"},
	{"hgpt.dp_ms.k3", "ms"},
	{"hgpt.dp_ms.k4", "ms"},
	{"hgpt.dirty_table_frac.k1", "ratio"},
	{"hgpt.dirty_table_frac.k2", "ratio"},
	{"hgpt.dirty_table_frac.k3", "ratio"},
	{"hgpt.dirty_table_frac.k4", "ratio"},
	{"dynamic.diff_ms", "ms"},
	{"dynamic.moved_frac", "ratio"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"trace.uncovered_frac", "ratio"},
	{"trace.overhead_ms", "ms"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "cold-ladder, relabel-hits, session-reweight, or all")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same op sequence")
		seconds = flag.Float64("seconds", 30, "timed seconds of one run")
		trace   = flag.Int("trace", 0, "1: traced per-layer run instead of the end-to-end run")
	)
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	names := []string{*name}
	if *name == "all" {
		// Every workload in turn, each ending in its own result line.
		names = workloadNames
	} else if !slices.Contains(workloadNames, *name) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v or all)\n", *name, workloadNames)
		os.Exit(2)
	}
	for _, n := range names {
		var res *result
		var err error
		if *trace == 1 {
			res, err = tracedRun(os.Stdout, n, *seed, *seconds)
		} else {
			res, err = endToEndRun(os.Stdout, n, *seed, *seconds)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
}

// finite keeps a metric JSON-encodable: a percentile that lands on a
// failed op reads as the largest float.
func finite(x float64) float64 {
	if math.IsInf(x, 1) {
		return math.MaxFloat64
	}
	if math.IsNaN(x) || math.IsInf(x, -1) {
		return 0
	}
	return x
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// header prints the run's identity: what ran, on what, with which
// inputs, and how many timed samples back the percentiles.
func header(out io.Writer, name string, seed int64, seconds float64, mode string, w workload, timedOps int) {
	fmt.Fprintf(out, "# perfbench %s  mode=%s  seed=%d  seconds=%g  closed loop, %d client(s)\n", name, mode, seed, seconds, w.clients())
	fmt.Fprintf(out, "op_sequence_sha256 %s\n", w.hash())
	fmt.Fprintf(out, "num_cpu %d  gomaxprocs %d  go %s  git_sha %s  tree_sha256 %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), gitSHA(), treeHash())
	fmt.Fprintf(out, "timed_ops %d (percentile sample size)\n", timedOps)
}

func gitSHA() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// treeHash identifies the code under test where no git metadata
// exists: SHA-256 over the repository's Go sources and module files,
// walked from the working directory in lexical order.
func treeHash() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

func printMetrics(out io.Writer, defs []metricDef, m map[string]metricValue) {
	for _, d := range defs {
		fmt.Fprintf(out, "  %-30s %14.6g %s\n", d.name, m[d.name].Value, d.unit)
	}
}

// ---------------------------------------------------------------- end-to-end run

func endToEndRun(out io.Writer, name string, seed int64, seconds float64) (*result, error) {
	lat := make([]float64, 0, latCap(name, seconds))
	var setups []float64
	var d *daemon
	for r := 0; r < setupReps; r++ {
		if d != nil {
			d.close()
			d = nil
		}
		var err error
		if d, err = setUp(name, seed, seconds); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.setup.Seconds())
	}
	defer d.close()

	before, err := fetchStats(d.h)
	if err != nil {
		return nil, err
	}
	ph := runTimed(d.w, d.h, seconds, lat)
	after, err := fetchStats(d.h)
	if err != nil {
		return nil, err
	}
	delta := diffStats(before, after)
	live := float64(int64(liveHeap())-int64(d.baseHeap)) / (1 << 20)

	ops := float64(ph.ops)
	m := map[string]metricValue{}
	set := func(name string, v float64) { m[name] = metricValue{finite(v), unitOf(endToEnd, name)} }
	set("setup_s", percentile(setups, 0.5))
	set("throughput_ops_s", ops/ph.wall.Seconds())
	set("latency_p50_ms", percentile(ph.lat, 0.5))
	set("latency_p90_ms", percentile(ph.lat, 0.9))
	set("cpu_ms_per_op", float64(ph.cpu.Nanoseconds())/1e6/ops)
	set("alloc_mb_per_op", float64(ph.allocs)/(1<<20)/ops)
	set("live_heap_mb", live)
	set("cost_ratio", ratio(ph.agg.costSum, ph.agg.rootSum))

	bad := d.w.integrity(delta, ph.ops)
	header(out, name, seed, seconds, "end-to-end", d.w, ph.ops)
	fmt.Fprintf(out, "setup_s_reps %v\n", setups)
	fmt.Fprintln(out, "integrity (/v1/stats deltas over the timed phase):")
	fmt.Fprintln(out, indent(delta.String()))
	if len(ph.agg.failures) > 0 {
		fmt.Fprintf(out, "failures %v\n", ph.agg.failures)
	}
	if name == "cold-ladder" {
		fmt.Fprintf(out, "full_dp wins %d of %d ladder ops; losing tiers ran %.1f ms per op\n", ph.agg.fullWins, ph.agg.ladderOps, ratio(ph.agg.loserMS, ops))
	}
	for _, b := range bad {
		fmt.Fprintf(out, "INTEGRITY FAILURE: %s\n", b)
	}
	beyond := ph.ops - int(math.Ceil(0.9*ops))
	fmt.Fprintf(out, "end-to-end metrics (%d timed ops, %d beyond p90):\n", ph.ops, beyond)
	if beyond < 10 {
		fmt.Fprintln(out, "  WARNING: fewer than 10 ops beyond p90; latency_p90_ms is poorly sampled")
	}
	printMetrics(out, endToEnd, m)
	// error_rate and churn_ratio are zero on a healthy run, so the
	// result line carries them as failed/attempted and as the traced
	// dynamic.moved_frac instead of as gated metrics.
	fmt.Fprintf(out, "  %-30s %14.6g ratio (%d of %d ops failed, were shed or failed a check)\n",
		"error_rate", ratio(float64(ph.failed), ops), ph.failed, ph.ops)
	if name == "session-reweight" {
		fmt.Fprintf(out, "  %-30s %14.6g ratio (Σ moved_tasks %d / Σ n %d)\n", "churn_ratio",
			ratio(float64(ph.agg.movedTasks), float64(ph.agg.nSum)), ph.agg.movedTasks, ph.agg.nSum)
	}
	return &result{
		Correct:   ph.failed == 0 && len(bad) == 0 && ph.ops > 0,
		Attempted: ph.ops, Failed: ph.failed, Metrics: m,
	}, nil
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("unknown metric " + name)
}

func indent(s string) string { return "  " + strings.ReplaceAll(s, "\n", "\n  ") }

// ---------------------------------------------------------------- traced run

// tracedRun measures per-layer metrics. The first half of the time
// budget runs the workload untraced through the daemon (stats and
// response counts, GC share, and the untraced latency of each op); the
// second half replays exactly the ops that phase completed through the
// layers' public functions with spans on.
func tracedRun(out io.Writer, name string, seed int64, seconds float64) (*result, error) {
	d, err := setUp(name, seed, seconds)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	before, err := fetchStats(d.h)
	if err != nil {
		return nil, err
	}
	ph := runTimed(d.w, d.h, seconds/2, nil)
	after, err := fetchStats(d.h)
	if err != nil {
		return nil, err
	}
	d.close()
	delta := diffStats(before, after)
	bad := d.w.integrity(delta, ph.ops)
	untracedMean := meanFinite(ph.lat)
	d = nil
	runtime.GC()

	// Replay: a fresh copy of the workload (its checks keep state) and
	// the replay's own caches, warmed the same way, then spans on.
	w, err := newWorkload(name, seed, seconds)
	if err != nil {
		return nil, err
	}
	rw := w.(replayable)
	rp := newReplayer()
	if err := rw.replaySetup(rp); err != nil {
		return nil, err
	}
	rp.tr = newTracer()
	outs := make([]outcome, ph.ops)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < w.clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= ph.ops {
					return
				}
				outs[i] = rw.replay(rp, i)
			}
		}()
	}
	wg.Wait()
	var agg aggregate
	failed := 0
	var tracedLat []float64
	for k := range outs {
		if err := w.check(&outs[k], &agg); err != nil {
			failed++
			agg.fail("replay: " + err.Error())
		}
		tracedLat = append(tracedLat, outs[k].lat)
	}

	m, report := layerMetrics(ph, delta, rp, untracedMean, meanFinite(tracedLat))
	header(out, name, seed, seconds, "traced", w, ph.ops)
	fmt.Fprintln(out, "integrity (/v1/stats deltas over the untraced half):")
	fmt.Fprintln(out, indent(delta.String()))
	for _, b := range bad {
		fmt.Fprintf(out, "INTEGRITY FAILURE: %s\n", b)
	}
	if ph.failed+failed > 0 {
		fmt.Fprintf(out, "failures %v %v\n", ph.agg.failures, agg.failures)
	}
	fmt.Fprint(out, report)
	fmt.Fprintln(out, "per-layer metrics:")
	printMetrics(out, perLayer, m)
	return &result{
		Correct:   ph.failed == 0 && failed == 0 && len(bad) == 0 && ph.ops > 0,
		Attempted: ph.ops, Failed: ph.failed + failed, Metrics: m,
	}, nil
}

// layerMetrics reduces the traced replay (and the untraced half's stats
// and responses) into the per-layer metrics, and renders the ledger.
func layerMetrics(ph *phase, delta *statsDelta, rp *replayer, untracedMean, tracedMean float64) (map[string]metricValue, string) {
	var sb strings.Builder
	m := map[string]metricValue{}
	for _, d := range perLayer {
		m[d.name] = metricValue{0, d.unit}
	}
	set := func(name string, v float64) { m[name] = metricValue{finite(v), unitOf(perLayer, name)} }
	nOps := float64(ph.ops)

	// Span times: per-op means of inclusive time per span name.
	layers, roots := reduce(rp.tr.spans)
	incl := map[string]float64{}
	self := map[string]float64{}
	for op, byName := range layers {
		if _, ok := roots[op]; !ok {
			continue
		}
		for n, lt := range byName {
			incl[n] += float64(lt.incl) / 1e6
			self[n] += float64(lt.self) / 1e6
		}
	}
	var wall, covered float64
	for _, r := range roots {
		wall += float64(r.wall) / 1e6
		covered += float64(r.covered) / 1e6
	}
	perOp := func(x float64) float64 { return ratio(x, nOps) }
	for metric, span := range map[string]string{
		"server.decode_ms": "server.decode", "server.encode_ms": "server.encode",
		"server.patch_ms": "server.patch", "instio.materialize_ms": "instio.materialize",
		"canon.canonicalize_ms": "canon.canonicalize", "canon.translate_ms": "canon.translate",
		"cache.key_ms": "cache", "anytime.solve_ms": "anytime.solve",
		"treedecomp.build_ms": "treedecomp.build", "treedecomp.repair_ms": "treedecomp.repair",
		"hgp.solve_ms": "hgp.solve", "dynamic.diff_ms": "dynamic.diff",
	} {
		set(metric, perOp(incl[span]))
	}
	set("server.self_ms", untracedMean-perOp(covered))
	set("trace.uncovered_frac", ratio(wall-covered, wall))
	set("trace.overhead_ms", tracedMean-untracedMean)

	// Untraced stats and responses.
	set("canon.ok_ratio", ratio(float64(delta.canonOK), float64(delta.canonAttempts)))
	set("cache.result_hit_ratio", ratio(float64(delta.resultHits), float64(delta.resultHits+delta.resultMisses)))
	set("cache.decomp_hit_ratio", ratio(float64(delta.decompHits), float64(delta.decompHits+delta.decompMisses)))
	set("cache.evictions_per_op", ratio(float64(delta.resultEvictions+delta.decompEvictions), nOps))
	set("anytime.full_win_ratio", ratio(float64(ph.agg.fullWins), float64(ph.agg.ladderOps)))
	set("anytime.loser_ms", ratio(ph.agg.loserMS, float64(ph.agg.ladderOps)))
	set("runtime.gc_cpu_frac", ratio(ph.gcCPU, ph.busyCPU))

	// Solver results of the traced calls.
	var selfMS, dpMS, states float64
	var treeWalls, abortFracs []float64
	trees, pruned, warm, fallbacks, computed, reused := 0, 0, 0, 0, 0, 0
	var solveAlloc uint64
	kOf := map[int]int{}
	for _, s := range rp.sessOps {
		kOf[s.op] = s.k
	}
	var dpK, computedK, totalK [5]float64
	for _, n := range rp.solves {
		r := n.res
		wallSum := 0.0
		for _, t := range r.TreeStats {
			wallSum += t.WallMS
			treeWalls = append(treeWalls, t.WallMS)
			if t.Outcome == "pruned" {
				abortFracs = append(abortFracs, t.AbortFrac)
			}
		}
		lanes := r.ParallelTrees
		if lanes < 1 {
			lanes = 1
		}
		selfMS += n.solveMS - wallSum/float64(lanes)
		dpMS += wallSum
		states += float64(r.States)
		trees += len(r.TreeStats)
		pruned += r.TreesPruned
		warm += n.warmBounded
		fallbacks += r.BoundFallbacks
		computed += r.TablesComputed
		reused += r.TablesReused
		solveAlloc += n.allocBytes
		if k := kOf[n.op]; k > 0 {
			dpK[k] += wallSum
			computedK[k] += float64(r.TablesComputed)
			totalK[k] += float64(r.TablesComputed + r.TablesReused)
		}
	}
	set("hgp.self_ms", perOp(selfMS))
	set("hgp.trees_pruned_frac", ratio(float64(pruned), float64(trees)))
	set("hgp.prune_abort_frac", meanFinite(abortFracs))
	set("hgp.bound_fallbacks", float64(fallbacks))
	set("hgpt.dp_ms", perOp(dpMS))
	if len(treeWalls) > 0 {
		set("hgpt.tree_ms_p90", percentile(treeWalls, 0.9))
	}
	set("hgpt.states", perOp(states))
	set("hgpt.dirty_table_frac", ratio(float64(computed), float64(computed+reused)))

	if len(rp.sessOps) > 0 {
		var repairAlloc uint64
		var reusedFrac float64
		moved, nSum := 0, 0
		var opsK [5]float64
		for _, s := range rp.sessOps {
			repairAlloc += s.repairAllocBytes
			reusedFrac += s.reusedFrac
			moved += s.moved
			nSum += s.n
			opsK[s.k]++
		}
		sessN := float64(len(rp.sessOps))
		set("hgp.warm_bounded_frac", ratio(float64(warm), float64(trees)))
		set("hgp.alloc_mb", float64(solveAlloc)/(1<<20)/sessN)
		set("treedecomp.alloc_mb", float64(repairAlloc)/(1<<20)/sessN)
		set("treedecomp.repair_reused_frac", reusedFrac/sessN)
		set("dynamic.moved_frac", ratio(float64(moved), float64(nSum)))
		for k := 1; k <= 4; k++ {
			set(fmt.Sprintf("hgpt.dp_ms.k%d", k), ratio(dpK[k], opsK[k]))
			set(fmt.Sprintf("hgpt.dirty_table_frac.k%d", k), ratio(computedK[k], totalK[k]))
		}
		sb.WriteString(byBatchSize(layers, roots, kOf, dpK, computedK, totalK, opsK))
	}

	// The ledger: every span name's per-op inclusive and self time.
	names := make([]string, 0, len(incl))
	for n := range incl {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(&sb, "ledger (per traced op, ms): op wall %.4g, covered by layer spans %.4g, untraced op %.4g\n",
		perOp(wall), perOp(covered), untracedMean)
	fmt.Fprintf(&sb, "  %-22s %12s %12s\n", "span", "inclusive", "self")
	for _, n := range names {
		fmt.Fprintf(&sb, "  %-22s %12.4g %12.4g\n", n, perOp(incl[n]), perOp(self[n]))
	}
	if b, dp := incl["treedecomp.build"], dpMS; b > 0 {
		fmt.Fprintf(&sb, "decomposition vs DP: treedecomp.build %.4g ms/op, hgpt.dp %.4g ms/op (build share %.3f)\n",
			perOp(b), perOp(dp), b/(b+dp))
	}
	return m, sb.String()
}

// byBatchSize renders session-reweight's per-layer rows split by the
// PATCH batch size k.
func byBatchSize(layers map[int]map[string]*layerTime, roots map[int]opTime, kOf map[int]int, dpK, computedK, totalK, opsK [5]float64) string {
	var sb strings.Builder
	var opMS, patch, repair, solve, diff [5]float64
	for op, r := range roots {
		k := kOf[op]
		opMS[k] += float64(r.wall) / 1e6
		ms := func(n string) float64 {
			if lt := layers[op][n]; lt != nil {
				return float64(lt.incl) / 1e6
			}
			return 0
		}
		patch[k] += ms("server.patch")
		repair[k] += ms("treedecomp.repair")
		solve[k] += ms("hgp.solve")
		diff[k] += ms("dynamic.diff")
	}
	fmt.Fprintf(&sb, "session-reweight by batch size k (per op, ms):\n  %2s %5s %9s %9s %9s %9s %9s %9s %7s\n",
		"k", "ops", "op", "patch", "repair", "hgp", "hgpt.dp", "diff", "dirty")
	for k := 1; k <= 4; k++ {
		n := opsK[k]
		fmt.Fprintf(&sb, "  %2d %5.0f %9.4g %9.4g %9.4g %9.4g %9.4g %9.4g %7.3f\n", k, n,
			ratio(opMS[k], n), ratio(patch[k], n), ratio(repair[k], n), ratio(solve[k], n),
			ratio(dpK[k], n), ratio(diff[k], n), ratio(computedK[k], totalK[k]))
	}
	return sb.String()
}
