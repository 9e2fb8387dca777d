package server

import (
	"container/heap"
	"context"
	"errors"
	"runtime"
	"sync"
	"time"
)

// Shed reasons: the machine-readable `shed_reason` field of 429/503/504
// responses and the label of the shed_total{reason=...} counters.
const (
	shedQueueFull       = "queue_full"
	shedDeadlineExpired = "deadline_expired"
	shedBreakerOpen     = "breaker_open"
	shedDraining        = "draining"
)

var (
	errQueueFull = errors.New("server: admission queue full")
	// errShedExpired is returned to a waiter whose deadline passed while
	// it sat in the waiting room: a solve slot was never occupied.
	errShedExpired = errors.New("server: deadline expired in the waiting room")
)

// limiter is the admission gate: a concurrency ceiling plus a bounded,
// deadline-ordered (EDF) waiting room. When adaptive, the ceiling moves
// AIMD-style with observed solve latency vs. deadline headroom — the
// daemon sheds early under sustained overload instead of letting every
// queued request ride to its deadline and time out having occupied
// resources for nothing.
type limiter struct {
	mu      sync.Mutex
	ceiling int // current concurrency ceiling (adaptive: minC ≤ ceiling ≤ maxC)
	minC    int
	maxC    int
	maxWait int // waiting-room bound beyond the running ceiling
	inUse   int
	waiters waiterHeap
	seq     int64

	adaptive bool
	// AIMD state: one additive increase per ceiling-worth of headroomy
	// completions, multiplicative decrease on deadline pressure, rate
	// limited so one burst of misses is one decrease, not many.
	successes    int
	lastDecrease time.Time
	decreaseMin  time.Duration // minimum spacing between decreases

	// now is a test hook.
	now func() time.Time
}

// waiter is one queued request. It owns a ready channel closed exactly
// once, under the limiter lock, with granted/shed recording the verdict.
type waiter struct {
	deadline time.Time
	seq      int64
	ready    chan struct{}
	granted  bool
	shed     bool
	index    int
}

type waiterHeap []*waiter

func (h waiterHeap) Len() int { return len(h) }
func (h waiterHeap) Less(i, j int) bool {
	if !h[i].deadline.Equal(h[j].deadline) {
		return h[i].deadline.Before(h[j].deadline)
	}
	return h[i].seq < h[j].seq // FIFO among equal deadlines
}
func (h waiterHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *waiterHeap) Push(x any) {
	w := x.(*waiter)
	w.index = len(*h)
	*h = append(*h, w)
}
func (h *waiterHeap) Pop() any {
	old := *h
	w := old[len(old)-1]
	old[len(old)-1] = nil
	w.index = -1
	*h = old[:len(old)-1]
	return w
}

func newLimiter(maxConcurrent, maxQueue int, adaptive bool) *limiter {
	return &limiter{
		ceiling:     maxConcurrent,
		minC:        1,
		maxC:        maxConcurrent,
		maxWait:     maxQueue,
		adaptive:    adaptive,
		decreaseMin: time.Second,
		now:         time.Now,
	}
}

// acquire obtains a solve slot, waiting in deadline order if the
// ceiling is saturated. It returns nil when a slot is held (pair with
// release), errQueueFull when the waiting room is at capacity,
// errShedExpired when the waiter's deadline passed before a slot freed,
// or ctx.Err() when the context died while waiting.
func (l *limiter) acquire(ctx context.Context) error {
	l.mu.Lock()
	if l.inUse < l.ceiling && len(l.waiters) == 0 {
		l.inUse++
		l.mu.Unlock()
		return nil
	}
	if len(l.waiters) >= l.maxWait {
		l.mu.Unlock()
		return errQueueFull
	}
	deadline, ok := ctx.Deadline()
	if !ok {
		// Deadline-less requests sort last: they can afford to wait.
		deadline = l.now().Add(24 * time.Hour)
	}
	w := &waiter{deadline: deadline, seq: l.seq, ready: make(chan struct{})}
	l.seq++
	heap.Push(&l.waiters, w)
	l.mu.Unlock()

	select {
	case <-w.ready:
		l.mu.Lock()
		defer l.mu.Unlock()
		if w.shed {
			return errShedExpired
		}
		return nil
	case <-ctx.Done():
		l.mu.Lock()
		defer l.mu.Unlock()
		select {
		case <-w.ready:
			// The dispatch raced the cancellation. If a slot was granted
			// it must go back; a shed verdict stands.
			if w.granted {
				l.inUse--
				l.dispatchLocked()
			}
		default:
			if w.index >= 0 {
				heap.Remove(&l.waiters, w.index)
			}
		}
		return ctx.Err()
	}
}

// release returns a slot and dispatches the waiting room.
func (l *limiter) release() {
	l.mu.Lock()
	l.inUse--
	l.dispatchLocked()
	l.mu.Unlock()
}

// dispatchLocked grants free slots in EDF order. A waiter whose deadline
// already passed is shed — woken with a verdict instead of a slot — so
// expired requests never occupy solve capacity ahead of live ones.
func (l *limiter) dispatchLocked() {
	now := l.now()
	for l.inUse < l.ceiling && len(l.waiters) > 0 {
		w := heap.Pop(&l.waiters).(*waiter)
		if now.After(w.deadline) {
			w.shed = true
			close(w.ready)
			continue
		}
		w.granted = true
		l.inUse++
		close(w.ready)
	}
}

// observe feeds one completed solve into the AIMD controller: latency is
// the time the request held its slot, budget its full deadline budget,
// and deadlineMiss whether the deadline expired mid-solve. Headroomy
// completions (latency under half the budget) vote to raise the
// ceiling; a miss — or a completion that consumed over 90% of its
// budget — halves it.
func (l *limiter) observe(latency, budget time.Duration, deadlineMiss bool) {
	if !l.adaptive {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	pressured := deadlineMiss || (budget > 0 && latency > budget*9/10)
	switch {
	case pressured:
		l.successes = 0
		if now := l.now(); now.Sub(l.lastDecrease) >= l.decreaseMin {
			l.lastDecrease = now
			if c := l.ceiling / 2; c >= l.minC {
				l.ceiling = c
			} else {
				l.ceiling = l.minC
			}
		}
	case budget == 0 || latency*2 <= budget:
		l.successes++
		if l.successes >= l.ceiling {
			l.successes = 0
			if l.ceiling < l.maxC {
				l.ceiling++
				l.dispatchLocked()
			}
		}
	}
}

// snapshot reports (ceiling, in-use slots, waiting-room depth).
func (l *limiter) snapshot() (ceiling, inUse, waiting int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ceiling, l.inUse, len(l.waiters)
}

// Breaker states, exported as the breaker_state gauge.
const (
	breakerClosed   = 0
	breakerOpen     = 1
	breakerHalfOpen = 2
)

// breaker is the memory-pressure circuit breaker: when the heap's
// high-water crosses the configured ceiling the daemon stops running
// the memory-hungry DP tier and serves only the degradation ladder's
// floor rung (or sheds, for no-degrade requests) until pressure
// subsides. Open → half-open transitions probe with a single full
// request; the probe's outcome closes or re-opens the breaker.
type breaker struct {
	maxHeapBytes uint64
	cooldown     time.Duration

	mu         sync.Mutex
	state      int
	openedAt   time.Time
	probing    bool
	trips      int64
	lastSample time.Time
	lastHeap   uint64

	// test hooks
	readHeap func() uint64
	now      func() time.Time
}

// admitMode is the breaker's verdict for one request.
type admitMode int

const (
	// modeNormal: full service.
	modeNormal admitMode = iota
	// modeFloor: serve the ladder-floor tier only (or shed if the
	// request cannot degrade).
	modeFloor
	// modeProbe: full service, and report the outcome via probeDone.
	modeProbe
)

func newBreaker(maxHeapBytes int64, cooldown time.Duration) *breaker {
	if maxHeapBytes <= 0 {
		return nil
	}
	if cooldown <= 0 {
		cooldown = 2 * time.Second
	}
	return &breaker{
		maxHeapBytes: uint64(maxHeapBytes),
		cooldown:     cooldown,
		readHeap:     liveHeapBytes,
		now:          time.Now,
	}
}

// liveHeapBytes samples the live heap. ReadMemStats stops the world for
// tens of microseconds; the breaker rate-limits calls to it.
func liveHeapBytes() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// heapNow returns a (rate-limited) heap sample.
func (b *breaker) heapNow(force bool) uint64 {
	now := b.now()
	if force || now.Sub(b.lastSample) >= 100*time.Millisecond {
		b.lastHeap = b.readHeap()
		b.lastSample = now
	}
	return b.lastHeap
}

// admit decides how this request may be served.
func (b *breaker) admit() admitMode {
	if b == nil {
		return modeNormal
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		if b.heapNow(false) > b.maxHeapBytes {
			b.state = breakerOpen
			b.openedAt = b.now()
			b.trips++
			return modeFloor
		}
		return modeNormal
	case breakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return modeFloor
		}
		b.state = breakerHalfOpen
		b.probing = true
		return modeProbe
	default: // half-open
		if !b.probing {
			// The probe slot is free (its request died before probeDone);
			// claim it.
			b.probing = true
			return modeProbe
		}
		return modeFloor
	}
}

// probeDone reports a probe request's outcome: the breaker closes when
// the probe succeeded and the heap is back under the ceiling, and
// re-opens (restarting the cooldown) otherwise.
func (b *breaker) probeDone(ok bool) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != breakerHalfOpen {
		return
	}
	b.probing = false
	if ok && b.heapNow(true) <= b.maxHeapBytes {
		b.state = breakerClosed
		return
	}
	b.state = breakerOpen
	b.openedAt = b.now()
}

// snapshot reports (state, trips, cooldown remaining when open).
func (b *breaker) snapshot() (state int, trips int64, retryAfter time.Duration) {
	if b == nil {
		return breakerClosed, 0, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerOpen {
		if rem := b.cooldown - b.now().Sub(b.openedAt); rem > 0 {
			retryAfter = rem
		}
	}
	return b.state, b.trips, retryAfter
}
