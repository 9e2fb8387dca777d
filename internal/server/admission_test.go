package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hierpart/internal/faultinject"
	"hierpart/internal/telemetry"
)

// waitWaiting polls until the limiter's waiting room holds n requests.
func waitWaiting(t *testing.T, l *limiter, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, waiting := l.snapshot(); waiting == n {
			return
		}
		if time.Now().After(deadline) {
			_, _, waiting := l.snapshot()
			t.Fatalf("waiting room stuck at %d, want %d", waiting, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// The waiting room is EDF: with one slot and three queued requests, the
// slot is granted in deadline order regardless of arrival order.
func TestLimiterEDFOrder(t *testing.T) {
	l := newLimiter(1, 10, false)
	if err := l.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}

	base := time.Now()
	// Arrival order deliberately scrambles deadline order.
	deadlines := []time.Duration{30 * time.Second, 10 * time.Second, 20 * time.Second}
	order := make(chan int, len(deadlines))
	var wg sync.WaitGroup
	for i, d := range deadlines {
		i, d := i, d
		ctx, cancel := context.WithDeadline(context.Background(), base.Add(d))
		defer cancel()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := l.acquire(ctx); err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			order <- i
			l.release()
		}()
		// Serialize arrival so seq numbers match arrival order.
		waitWaiting(t, l, i+1)
	}

	l.release()
	wg.Wait()
	close(order)
	var got []int
	for i := range order {
		got = append(got, i)
	}
	want := []int{1, 2, 0} // 10s, 20s, 30s deadlines
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grant order = %v, want %v", got, want)
		}
	}
}

// A waiter whose deadline passes while queued is shed at dispatch — it
// never occupies a slot — and surfaces errShedExpired.
func TestLimiterShedsExpiredWaiter(t *testing.T) {
	l := newLimiter(1, 10, false)
	if err := l.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The waiter's ctx deadline is far enough out that ctx.Done never
	// fires; the fake clock below makes dispatch see it as expired.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(time.Hour))
	defer cancel()
	got := make(chan error, 1)
	go func() { got <- l.acquire(ctx) }()
	waitWaiting(t, l, 1)

	l.mu.Lock()
	l.now = func() time.Time { return time.Now().Add(2 * time.Hour) }
	l.mu.Unlock()
	l.release()

	select {
	case err := <-got:
		if !errors.Is(err, errShedExpired) {
			t.Fatalf("acquire = %v, want errShedExpired", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shed waiter never woke")
	}
	if ceiling, inUse, waiting := l.snapshot(); ceiling != 1 || inUse != 0 || waiting != 0 {
		t.Fatalf("limiter state after shed = (%d, %d, %d), want (1, 0, 0)", ceiling, inUse, waiting)
	}
}

func TestLimiterQueueFull(t *testing.T) {
	l := newLimiter(1, 0, false)
	if err := l.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := l.acquire(context.Background()); !errors.Is(err, errQueueFull) {
		t.Fatalf("acquire with no waiting room = %v, want errQueueFull", err)
	}
}

// AIMD: deadline pressure halves the ceiling (rate-limited to one
// decrease per window), a ceiling-worth of headroomy completions raises
// it by one, and the ceiling stays within [1, maxC].
func TestLimiterAIMD(t *testing.T) {
	l := newLimiter(8, 10, true)
	clock := time.Unix(1000, 0)
	l.now = func() time.Time { return clock }

	budget := time.Second
	l.observe(budget, budget, true) // miss → halve
	if c, _, _ := l.snapshot(); c != 4 {
		t.Fatalf("ceiling after first decrease = %d, want 4", c)
	}
	l.observe(budget, budget, true) // within the rate-limit window: no-op
	if c, _, _ := l.snapshot(); c != 4 {
		t.Fatalf("ceiling must not halve twice in one window, got %d", c)
	}
	clock = clock.Add(2 * time.Second)
	l.observe(budget*95/100, budget, false) // >90% of budget counts as pressure
	if c, _, _ := l.snapshot(); c != 2 {
		t.Fatalf("ceiling after near-deadline completion = %d, want 2", c)
	}
	clock = clock.Add(2 * time.Second)
	l.observe(budget, budget, true)
	clock = clock.Add(2 * time.Second)
	l.observe(budget, budget, true)
	if c, _, _ := l.snapshot(); c != 1 {
		t.Fatalf("ceiling must floor at 1, got %d", c)
	}

	// Additive increase: one +1 per ceiling-worth of headroomy solves.
	l.observe(budget/10, budget, false)
	if c, _, _ := l.snapshot(); c != 2 {
		t.Fatalf("ceiling after 1 headroomy solve at ceiling 1 = %d, want 2", c)
	}
	l.observe(budget/10, budget, false)
	if c, _, _ := l.snapshot(); c != 2 {
		t.Fatalf("ceiling must need 2 headroomy solves at ceiling 2, got %d", c)
	}
	l.observe(budget/10, budget, false)
	if c, _, _ := l.snapshot(); c != 3 {
		t.Fatalf("ceiling after 2 headroomy solves = %d, want 3", c)
	}

	// Non-adaptive limiters never move.
	fixed := newLimiter(4, 10, false)
	fixed.observe(budget, budget, true)
	if c, _, _ := fixed.snapshot(); c != 4 {
		t.Fatalf("non-adaptive ceiling moved to %d", c)
	}
}

// The breaker walks closed → open → half-open (single probe) → closed,
// and a failed probe re-opens it with a fresh cooldown.
func TestBreakerStateMachine(t *testing.T) {
	heap := uint64(2000)
	clock := time.Unix(1000, 0)
	b := newBreaker(1000, 100*time.Millisecond)
	b.readHeap = func() uint64 { return heap }
	b.now = func() time.Time { return clock }

	if got := b.admit(); got != modeFloor {
		t.Fatalf("admit over the ceiling = %v, want modeFloor", got)
	}
	if state, trips, retry := b.snapshot(); state != breakerOpen || trips != 1 || retry <= 0 {
		t.Fatalf("after trip: state=%d trips=%d retry=%v", state, trips, retry)
	}
	if got := b.admit(); got != modeFloor {
		t.Fatalf("admit during cooldown = %v, want modeFloor", got)
	}

	clock = clock.Add(150 * time.Millisecond)
	if got := b.admit(); got != modeProbe {
		t.Fatalf("admit after cooldown = %v, want modeProbe", got)
	}
	// Only one probe at a time: concurrent admits stay on the floor.
	if got := b.admit(); got != modeFloor {
		t.Fatalf("second admit during probe = %v, want modeFloor", got)
	}

	// Probe fails → re-open, cooldown restarts.
	b.probeDone(false)
	if state, _, _ := b.snapshot(); state != breakerOpen {
		t.Fatalf("state after failed probe = %d, want open", state)
	}
	clock = clock.Add(150 * time.Millisecond)
	if got := b.admit(); got != modeProbe {
		t.Fatalf("re-probe after failed probe = %v, want modeProbe", got)
	}

	// Probe succeeds but the heap is still high → re-open.
	b.probeDone(true)
	if state, _, _ := b.snapshot(); state != breakerOpen {
		t.Fatalf("state after probe with high heap = %d, want open", state)
	}

	// Heap subsides → successful probe closes the breaker.
	heap = 500
	clock = clock.Add(150 * time.Millisecond)
	if got := b.admit(); got != modeProbe {
		t.Fatalf("final probe = %v, want modeProbe", got)
	}
	b.probeDone(true)
	if state, _, _ := b.snapshot(); state != breakerClosed {
		t.Fatalf("state after recovery = %d, want closed", state)
	}
	if got := b.admit(); got != modeNormal {
		t.Fatalf("admit after recovery = %v, want modeNormal", got)
	}
}

// A nil breaker (MaxHeapBytes 0) is a no-op: full service always.
func TestBreakerDisabled(t *testing.T) {
	if b := newBreaker(0, time.Second); b != nil {
		t.Fatal("zero threshold must disable the breaker")
	}
	var b *breaker
	if got := b.admit(); got != modeNormal {
		t.Fatalf("nil breaker admit = %v, want modeNormal", got)
	}
	b.probeDone(true) // must not panic
}

// Queue-full sheds carry the machine-readable plumbing: Retry-After
// header, shed_reason field, and a shed_total{reason} tick.
func TestShedResponsePlumbing(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: -1, Registry: reg})
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s.solve = blockingSolve(started, release)

	done := make(chan struct{})
	go func() {
		defer close(done)
		postPartition(t, s.Handler(), testRequest())
	}()
	<-started

	rec := postPartition(t, s.Handler(), testRequest())
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body %s)", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("Retry-After"); got == "" {
		t.Fatal("429 must carry a Retry-After header")
	}
	body := rec.Body.String()
	if want := `"shed_reason": "queue_full"`; !strings.Contains(body, want) {
		t.Fatalf("body missing %s: %s", want, body)
	}
	if got := reg.Counter(`shed_total{reason="queue_full"}`).Value(); got != 1 {
		t.Fatalf("shed_total{reason=queue_full} = %d, want 1", got)
	}
	close(release)
	<-done

	// Draining sheds are tagged too.
	s.Drain()
	rec = postPartition(t, s.Handler(), testRequest())
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), `"shed_reason": "draining"`) {
		t.Fatalf("draining shed = %d %s", rec.Code, rec.Body.String())
	}
	if got := reg.Counter(`shed_total{reason="draining"}`).Value(); got != 1 {
		t.Fatalf("shed_total{reason=draining} = %d, want 1", got)
	}
}

// A queued request whose own deadline fires while the only slot is held
// is answered as the dispatcher's deadline shed is: 504
// deadline_exceeded with shed_reason deadline_expired, counted once in
// deadline_timeouts_total and partition_errors_total.
func TestQueuedDeadlineExpiryIsShed(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: 4, Registry: reg})
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s.solve = blockingSolve(started, release)

	done := make(chan struct{})
	go func() {
		defer close(done)
		postPartition(t, s.Handler(), testRequest())
	}()
	<-started // the only slot is held until release

	timeouts := reg.Counter("deadline_timeouts_total").Value()
	errs := reg.Counter("partition_errors_total").Value()
	req := testRequest()
	req.TimeoutMS = 50
	rec := postPartition(t, s.Handler(), req)
	close(release)
	<-done

	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %s)", rec.Code, rec.Body.String())
	}
	var e apiError
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("error envelope %s: %v", rec.Body.String(), err)
	}
	if e.Code != "deadline_exceeded" || e.ShedReason != "deadline_expired" {
		t.Fatalf("code %q, shed_reason %q; want deadline_exceeded, deadline_expired", e.Code, e.ShedReason)
	}
	if d := reg.Counter("deadline_timeouts_total").Value() - timeouts; d != 1 {
		t.Fatalf("deadline_timeouts_total rose by %d, want 1", d)
	}
	if d := reg.Counter("partition_errors_total").Value() - errs; d != 1 {
		t.Fatalf("partition_errors_total rose by %d, want 1", d)
	}
	if got := reg.Counter(`shed_total{reason="deadline_expired"}`).Value(); got != 1 {
		t.Fatalf("shed_total{reason=deadline_expired} = %d, want 1", got)
	}
}

// An open breaker floors degradable requests onto the ladder's baseline
// tier (HTTP 200, tier "baseline") and sheds no-degrade requests with a
// 503 carrying breaker_open; once pressure subsides a half-open probe
// restores full service.
func TestBreakerFloorsAndRecovers(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := newTestServer(t, Config{Registry: reg, MaxHeapBytes: 1000, BreakerCooldown: 50 * time.Millisecond})
	heap := uint64(2000)
	var mu sync.Mutex
	s.brk.readHeap = func() uint64 { mu.Lock(); defer mu.Unlock(); return heap }

	// Degradable request while tripped: 200 from the floor tier.
	req := testRequest()
	req.NoDegrade = false
	rec := postPartition(t, s.Handler(), req)
	if rec.Code != http.StatusOK {
		t.Fatalf("floored request status = %d (body %s)", rec.Code, rec.Body.String())
	}
	if resp := decodeResponse(t, rec); resp.Degradation == nil || resp.Degradation.Tier != "baseline" {
		t.Fatalf("floored request must come from the baseline tier: %+v", resp.Degradation)
	}
	if reg.Counter("breaker_floor_served_total").Value() == 0 {
		t.Fatal("floor service not counted")
	}

	// No-degrade request while open: 503 with the breaker tag.
	rec = postPartition(t, s.Handler(), testRequest())
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("no-degrade under breaker = %d, want 503 (body %s)", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), `"shed_reason": "breaker_open"`) {
		t.Fatalf("503 body missing breaker_open: %s", rec.Body.String())
	}

	// Pressure subsides; after the cooldown the next request probes and
	// closes the breaker, restoring full service.
	mu.Lock()
	heap = 100
	mu.Unlock()
	time.Sleep(60 * time.Millisecond)
	rec = postPartition(t, s.Handler(), testRequest())
	if rec.Code != http.StatusOK {
		t.Fatalf("probe request status = %d (body %s)", rec.Code, rec.Body.String())
	}
	if state, _, _ := s.brk.snapshot(); state != breakerClosed {
		t.Fatalf("breaker state after successful probe = %d, want closed", state)
	}
	if rec := postPartition(t, s.Handler(), testRequest()); rec.Code != http.StatusOK {
		t.Fatalf("post-recovery status = %d", rec.Code)
	}
}

// Session solves are gated like no_degrade requests (they have no floor
// tier): 503 breaker_open with Retry-After while the breaker is open,
// and a half-open session solve is the probe that closes it — a fresh
// solve, and equally a stored replay.
func TestSessionSolveHonoursBreaker(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := newTestServer(t, Config{Registry: reg, MaxHeapBytes: 1000, BreakerCooldown: 50 * time.Millisecond})
	heap := uint64(2000)
	var mu sync.Mutex
	setHeap := func(v uint64) { mu.Lock(); heap = v; mu.Unlock() }
	s.brk.readHeap = func() uint64 { mu.Lock(); defer mu.Unlock(); return heap }
	h := s.Handler()
	view := createSession(t, h, sessionCreateRequest())
	path := "/v1/graphs/" + view.ID + "/partition"

	shed := func(what string) {
		t.Helper()
		rec := doJSON(t, h, http.MethodPost, path, nil)
		if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), `"shed_reason": "breaker_open"`) {
			t.Fatalf("%s: session solve = %d %s, want 503 breaker_open", what, rec.Code, rec.Body.String())
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Fatalf("%s: 503 breaker_open must carry Retry-After", what)
		}
	}
	probe := func(what string, stored bool) {
		t.Helper()
		setHeap(100)
		time.Sleep(60 * time.Millisecond) // past the cooldown
		if resp := solveSession(t, h, view.ID, nil); resp.Stored != stored {
			t.Fatalf("%s: stored = %v, want %v", what, resp.Stored, stored)
		}
		if state, _, _ := s.brk.snapshot(); state != breakerClosed {
			t.Fatalf("%s: breaker state after the session probe = %d, want closed", what, state)
		}
	}

	shed("first solve under pressure")
	probe("fresh solve", false)

	// Trip again (after the heap sampler's 100ms rate limit lapses);
	// the unchanged session now replays its stored answer as the probe.
	setHeap(2000)
	time.Sleep(110 * time.Millisecond)
	shed("stored replay under pressure")
	probe("stored replay", true)
}

// A half-open probe request that dies before the solve (here: an
// injected ServerSolve fault; the same applies to queue-full sheds,
// waiting-room deadline expiry, and client cancels) must still settle
// the probe. If the probing flag leaked, the breaker could never close
// and the daemon would serve floor-only responses until restart.
func TestBreakerProbeSettlesOnEarlyExit(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := newTestServer(t, Config{Registry: reg, MaxHeapBytes: 1000, BreakerCooldown: 30 * time.Millisecond})
	heap := uint64(2000)
	var mu sync.Mutex
	s.brk.readHeap = func() uint64 { mu.Lock(); defer mu.Unlock(); return heap }

	// Trip the breaker (no-degrade request → 503 breaker_open).
	if rec := postPartition(t, s.Handler(), testRequest()); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("trip request = %d, want 503 (body %s)", rec.Code, rec.Body.String())
	}

	// Pressure subsides; after the cooldown the next request is the
	// probe — and it dies before the solve on an injected fault.
	mu.Lock()
	heap = 100
	mu.Unlock()
	time.Sleep(40 * time.Millisecond)
	restore := faultinject.Activate(faultinject.New(1).
		On(faultinject.ServerSolve, faultinject.Fault{Prob: 1, Count: 1, Err: errors.New("injected")}))
	defer restore()
	if rec := postPartition(t, s.Handler(), testRequest()); rec.Code != http.StatusInternalServerError {
		t.Fatalf("faulted probe = %d, want 500 (body %s)", rec.Code, rec.Body.String())
	}

	// The dead probe must have settled as a failure: breaker re-opened
	// with a fresh cooldown, not half-open with the probe slot leaked.
	if state, _, _ := s.brk.snapshot(); state != breakerOpen {
		t.Fatalf("state after dead probe = %d, want open", state)
	}

	// After the next cooldown a fresh probe runs and closes the breaker.
	time.Sleep(40 * time.Millisecond)
	if rec := postPartition(t, s.Handler(), testRequest()); rec.Code != http.StatusOK {
		t.Fatalf("recovery probe = %d, want 200 (body %s)", rec.Code, rec.Body.String())
	}
	if state, _, _ := s.brk.snapshot(); state != breakerClosed {
		t.Fatalf("state after recovery probe = %d, want closed", state)
	}
}

// The stats endpoint surfaces the limiter and breaker blocks.
func TestStatsReportsAdmissionState(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 3, MaxQueue: 7, Adaptive: true, MaxHeapBytes: 1 << 40})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	body := rec.Body.String()
	for _, want := range []string{`"ceiling": 3`, `"adaptive": true`, `"state": "closed"`} {
		if !strings.Contains(body, want) {
			t.Fatalf("stats missing %s:\n%s", want, body)
		}
	}
}
