package main

import (
	"context"
	"math"
	"net/http"
	"runtime"
	rtm "runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hierpart/internal/server"
	"hierpart/internal/telemetry"
)

// batchDur is the length of one timed batch. Between batches the clock
// stops while answers are checked and the heap is collected, so checks
// never run inside the timed window and their garbage is not charged to
// the ops.
const batchDur = 500 * time.Millisecond

// setupReps is how many times a run sets up from scratch; setup_s is
// the median, and the last set-up daemon serves the timed phase.
const setupReps = 3

// daemonConfig is the one daemon configuration every workload uses:
// hgpd defaults plus canonical fingerprinting, a fresh registry, no
// state directory (no snapshot fsyncs) and no peers.
func daemonConfig() server.Config {
	return server.Config{Canon: true, Registry: telemetry.NewRegistry()}
}

// daemon is a set-up daemon and its workload.
type daemon struct {
	w        workload
	srv      *server.Server
	h        http.Handler
	setup    time.Duration
	baseHeap uint64 // live heap with the inputs generated, before the daemon
}

func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = d.srv.Shutdown(ctx) // no background work to drain without a state dir or peers
}

// setUp generates the workload, builds a daemon and warms it. The
// timed part is input generation plus daemon construction and warm-up;
// the live-heap baseline is read in between with the clock stopped.
func setUp(name string, seed int64, seconds float64) (*daemon, error) {
	t0 := time.Now()
	w, err := newWorkload(name, seed, seconds)
	if err != nil {
		return nil, err
	}
	genDur := time.Since(t0)
	base := liveHeap()
	t1 := time.Now()
	srv, err := server.New(daemonConfig())
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	if err := w.setup(h); err != nil {
		return nil, err
	}
	return &daemon{w: w, srv: srv, h: h, setup: genDur + time.Since(t1), baseHeap: base}, nil
}

// liveHeap forces collection and returns the bytes still reachable.
// Two cycles also empty sync.Pool victim caches.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// rtSample is one reading of process CPU time and runtime counters.
type rtSample struct {
	cpu                    time.Duration // user + system, whole process
	allocs                 uint64        // cumulative heap bytes allocated
	gcCPU, totCPU, idleCPU float64       // runtime CPU-class estimates, seconds
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func sampleRuntime() rtSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := make([]rtm.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	rtm.Read(s)
	return rtSample{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs:  s[0].Value.Uint64(),
		gcCPU:   s[1].Value.Float64(),
		totCPU:  s[2].Value.Float64(),
		idleCPU: s[3].Value.Float64(),
	}
}

// phase is what one timed phase measured.
type phase struct {
	ops, failed    int
	lat            []float64 // ms per attempted op; +Inf for a failed op
	wall           time.Duration
	cpu            time.Duration
	allocs         uint64
	gcCPU, busyCPU float64
	agg            aggregate
}

// runTimed drives w closed-loop for about seconds of timed wall clock
// (or until its op sequence ends), in batches of batchDur. Every op is
// checked after its batch, in op order.
func runTimed(w workload, h http.Handler, seconds float64, lat []float64) *phase {
	ph := &phase{lat: lat[:0]}
	var next atomic.Int64
	limit := int64(w.opLimit())
	budget := time.Duration(seconds * float64(time.Second))
	for ph.wall < budget && next.Load() < limit {
		dur := batchDur
		if rest := budget - ph.wall; rest < dur {
			dur = rest
		}
		before := sampleRuntime()
		t0 := time.Now()
		deadline := t0.Add(dur)
		outs := make([][]outcome, w.clients())
		var wg sync.WaitGroup
		for c := range outs {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for time.Now().Before(deadline) {
					i := next.Add(1) - 1
					if i >= limit {
						return
					}
					s := time.Now()
					o := w.do(h, int(i))
					o.lat = float64(time.Since(s).Nanoseconds()) / 1e6
					outs[c] = append(outs[c], o)
				}
			}(c)
		}
		wg.Wait()
		ph.wall += time.Since(t0)
		after := sampleRuntime()
		ph.cpu += after.cpu - before.cpu
		ph.allocs += after.allocs - before.allocs
		ph.gcCPU += after.gcCPU - before.gcCPU
		ph.busyCPU += (after.totCPU - after.idleCPU) - (before.totCPU - before.idleCPU)

		var all []outcome
		for _, o := range outs {
			all = append(all, o...)
		}
		sort.Slice(all, func(a, b int) bool { return all[a].i < all[b].i })
		ph.record(w, all)
		all, outs = nil, nil
		runtime.GC()
	}
	return ph
}

// record checks one batch's outcomes (in op order) and folds them into
// the phase. Workloads whose checks keep no state are checked on
// checkWorkers goroutines.
func (ph *phase) record(w workload, all []outcome) {
	workers := 1
	if w.statelessChecks() {
		workers = checkWorkers
	}
	errs := make([]error, len(all))
	aggs := make([]aggregate, workers)
	var wg sync.WaitGroup
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := c; k < len(all); k += workers {
				errs[k] = w.check(&all[k], &aggs[c])
			}
		}(c)
	}
	wg.Wait()
	for c := range aggs {
		ph.agg.merge(&aggs[c])
	}
	for k, err := range errs {
		ph.ops++
		if err != nil {
			ph.failed++
			ph.agg.fail(err.Error())
			ph.lat = append(ph.lat, math.Inf(1))
			continue
		}
		ph.lat = append(ph.lat, all[k].lat)
	}
}

// checkWorkers matches the 2-vCPU hosts the benchmark was tuned on;
// checks run with the clock stopped, so more only shortens the run.
const checkWorkers = 2

// percentile returns the q-quantile of xs by linear interpolation
// between closest ranks. A failed op (+Inf) counts as slower than any
// success.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := q * float64(len(s)-1)
	lo := int(math.Floor(r))
	hi := int(math.Ceil(r))
	if math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (s[hi]-s[lo])*(r-float64(lo))
}

// meanFinite averages the finite entries of xs.
func meanFinite(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if !math.IsInf(x, 0) && !math.IsNaN(x) {
			sum += x
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// latCap sizes the latency buffer, allocated before the live-heap
// baseline so it is not counted as daemon memory.
func latCap(name string, seconds float64) int {
	switch name {
	case "cold-ladder":
		return coldOpCount(seconds)
	case "session-reweight":
		return sessionOpCount(seconds)
	}
	return int(seconds * 40_000)
}
