package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"hierpart/internal/faultinject"
	"hierpart/internal/metrics"
	"hierpart/internal/telemetry"
)

// waitGoroutines asserts the goroutine count settles back to (near) the
// baseline: solver pools, ladder tiers, and singleflight waiters must
// all terminate once their requests finish. Retries absorb the brief
// tail of goroutines that are mid-exit when a request returns.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: baseline %d, now %d\n%s",
				base, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// The chaos battery: the serving path under deterministic injected
// slowdowns, spurious errors, allocation spikes, and mid-DP panics at
// every hook point. The invariants, per the degradation ladder's
// contract: every request gets HTTP 200 with a fully-assigned,
// capacity-feasible partition and a coherent degradation block; the
// deadline is never overshot by more than a poll interval; and no
// goroutines or solve slots leak.
func TestChaosBattery(t *testing.T) {
	reg := telemetry.NewRegistry()
	// Result caching off: warm repeats would otherwise bypass the ladder
	// entirely, and this battery exists to stress the ladder under
	// faults. The result cache has its own httptest suite.
	s := newTestServer(t, Config{Registry: reg, MaxConcurrent: 4, MaxQueue: 64, ResultCacheEntries: -1})
	base := runtime.NumGoroutine()

	injected := errors.New("chaos: injected phase error")
	in := faultinject.New(42).
		On(faultinject.TreedecompSplit, faultinject.Fault{Prob: 0.15, Delay: 5 * time.Millisecond}).
		On(faultinject.TreedecompSplit, faultinject.Fault{Prob: 0.05, Err: injected}).
		On(faultinject.HgptTable, faultinject.Fault{Prob: 0.10, Delay: 2 * time.Millisecond}).
		On(faultinject.HgptTable, faultinject.Fault{Prob: 0.03, PanicMsg: "chaos"}).
		On(faultinject.HgptTable, faultinject.Fault{Prob: 0.05, AllocBytes: 1 << 20}).
		On(faultinject.CacheLookup, faultinject.Fault{Prob: 0.10, Delay: time.Millisecond})
	t.Cleanup(faultinject.Activate(in))

	// The instance has slack: total demand 4.0 over 8 unit leaves, so a
	// capacity-feasible placement always exists for every tier. The DP
	// tiers' bicriteria guarantee is (1+eps) with the default eps = 0.5.
	g, H, err := testRequest().Instance.Materialize()
	if err != nil {
		t.Fatal(err)
	}

	const (
		rounds    = 48
		burst     = 8
		timeoutMS = 250
	)
	codes := map[int]int{}
	var mu sync.Mutex
	oneRound := func(seed int64) {
		req := ladderRequest()
		req.Seed = seed // rotate decompositions so cold and warm paths both run
		req.TimeoutMS = timeoutMS
		start := time.Now()
		rec := postPartition(t, s.Handler(), req)
		elapsed := time.Since(start)
		mu.Lock()
		codes[rec.Code]++
		mu.Unlock()
		if rec.Code != http.StatusOK {
			t.Errorf("seed %d: status = %d (body %s)", seed, rec.Code, rec.Body.String())
			return
		}
		// A ladder response may legitimately exceed the deadline by one
		// poll interval (the gap between cancellation checks) while the
		// baseline rung finishes; it must never blow far past it.
		if elapsed > time.Duration(timeoutMS)*time.Millisecond+2*time.Second {
			t.Errorf("seed %d: response took %v against a %dms budget", seed, elapsed, timeoutMS)
		}
		resp := decodeResponse(t, rec)
		a := metrics.Assignment(resp.Assignment)
		if err := a.Validate(g, H); err != nil {
			t.Errorf("seed %d: invalid partition: %v", seed, err)
			return
		}
		if v := metrics.MaxViolation(g, H, a); v > 1.5+1e-9 {
			t.Errorf("seed %d: capacity violation %v beyond the (1+eps) guarantee", seed, v)
		}
		d := resp.Degradation
		if d == nil {
			t.Errorf("seed %d: missing degradation block", seed)
			return
		}
		switch d.Tier {
		case "full_dp", "baseline":
		default:
			t.Errorf("seed %d: unknown tier %q", seed, d.Tier)
		}
		if d.Degraded != (d.Tier != "full_dp" || d.Partial) {
			t.Errorf("seed %d: incoherent degradation block %+v", seed, d)
		}
	}

	// Sequential rounds, then concurrent bursts: the faults interleave
	// differently but the invariants must hold in both regimes.
	for r := 0; r < rounds/2; r++ {
		oneRound(int64(r % 6))
	}
	var wg sync.WaitGroup
	for r := 0; r < rounds/2; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			oneRound(int64(r % burst))
		}()
	}
	wg.Wait()

	if codes[http.StatusGatewayTimeout] != 0 {
		t.Fatalf("got %d 504s; the ladder must degrade, not time out, when any tier can finish", codes[http.StatusGatewayTimeout])
	}
	if codes[http.StatusOK] < rounds*99/100 {
		t.Fatalf("only %d/%d requests returned 200 under chaos: %v", codes[http.StatusOK], rounds, codes)
	}
	// No stuck solve slots or phantom queue entries.
	if _, inUse, waiting := s.lim.snapshot(); inUse != 0 || waiting != 0 {
		t.Fatalf("%d solve slots held, %d waiters queued after the battery", inUse, waiting)
	}
	if q := s.queued.Load(); q != 0 {
		t.Fatalf("queue gauge stuck at %d", q)
	}
	waitGoroutines(t, base)

	// The injector must have actually exercised the hook points — a
	// battery that never fires is vacuous.
	for _, p := range []faultinject.Point{faultinject.TreedecompSplit, faultinject.HgptTable, faultinject.CacheLookup} {
		if in.Visits(p) == 0 {
			t.Errorf("hook point %s was never visited", p)
		}
	}
}

// The cancellation storm: many requests whose clients vanish at random
// moments, racing the solver at every poll point. Run under -race this
// checks for partial-result corruption; afterwards every solve slot
// must be free and a clean request must succeed.
func TestCancellationStorm(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 2, MaxQueue: 64})
	base := runtime.NumGoroutine()

	const storms = 24
	var wg sync.WaitGroup
	for i := 0; i < storms; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := testRequest()
			req.Seed = int64(i % 5)
			req.NoDegrade = i%2 == 0 // storm both serving paths
			body, err := json.Marshal(req)
			if err != nil {
				t.Error(err)
				return
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			go func() {
				time.Sleep(time.Duration(i%7) * time.Millisecond)
				cancel()
			}()
			rec := httptest.NewRecorder()
			r := httptest.NewRequest(http.MethodPost, "/v1/partition", bytes.NewReader(body)).WithContext(ctx)
			s.Handler().ServeHTTP(rec, r) // must terminate whatever the timing
			switch rec.Code {
			case http.StatusOK, 499:
			default:
				t.Errorf("storm %d: unexpected status %d (body %s)", i, rec.Code, rec.Body.String())
			}
			if rec.Code == http.StatusOK {
				// A 200 that did get produced must still be a complete
				// placement — cancellation must never ship a torn result.
				if resp := decodeResponse(t, rec); len(resp.Assignment) != 8 {
					t.Errorf("storm %d: torn assignment %v", i, resp.Assignment)
				}
			}
		}()
	}
	wg.Wait()

	if _, inUse, waiting := s.lim.snapshot(); inUse != 0 || waiting != 0 {
		t.Fatalf("%d solve slots held, %d waiters queued after the storm", inUse, waiting)
	}
	if q := s.queued.Load(); q != 0 {
		t.Fatalf("queue gauge stuck at %d", q)
	}
	if rec := postPartition(t, s.Handler(), testRequest()); rec.Code != http.StatusOK {
		t.Fatalf("clean request after the storm: status = %d", rec.Code)
	}
	waitGoroutines(t, base)
}

// The NaN sentinel crosses the API boundary as JSON null: a tree whose
// solve failed is null in per_tree_costs (NaN is unrepresentable in
// JSON), decodes to a nil pointer, and survives a full round trip.
func TestPerTreeCostsNaNSentinelJSONRoundTrip(t *testing.T) {
	restore := faultinject.Activate(
		faultinject.New(11).On(faultinject.HgptTable, faultinject.Fault{Prob: 1, Count: 1, PanicMsg: "one tree dies"}))
	defer restore()

	s := newTestServer(t, Config{})
	req := testRequest()
	req.Trees = 3
	rec := postPartition(t, s.Handler(), req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d (body %s)", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "null") {
		t.Fatalf("failed tree not rendered as JSON null: %s", rec.Body.String())
	}
	resp := decodeResponse(t, rec)
	if len(resp.PerTreeCosts) != 3 {
		t.Fatalf("per_tree_costs has %d entries, want 3", len(resp.PerTreeCosts))
	}
	nulls := 0
	for _, c := range resp.PerTreeCosts {
		if c == nil {
			nulls++
		} else if math.IsNaN(*c) || *c < 0 {
			t.Fatalf("present cost %v, want finite non-negative", *c)
		}
	}
	if nulls != 1 {
		t.Fatalf("%d null sentinels, want exactly 1 (the panicked tree)", nulls)
	}
	// Round trip: re-encoding preserves the null (nil pointer → null).
	re, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	var back PartitionResponse
	if err := json.Unmarshal(re, &back); err != nil {
		t.Fatal(err)
	}
	reNulls := 0
	for _, c := range back.PerTreeCosts {
		if c == nil {
			reNulls++
		}
	}
	if reNulls != 1 {
		t.Fatalf("round trip lost the null sentinel: %d", reNulls)
	}
}
