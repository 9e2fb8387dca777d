package cache

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The core coalescing guarantee: N concurrent callers of the same key
// trigger exactly one build, and all N observe its value.
func TestGroupCoalescesToOneBuild(t *testing.T) {
	var g Group
	var builds atomic.Int64
	release := make(chan struct{})

	const n = 16
	var wg sync.WaitGroup
	vals := make([]any, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], _, errs[i] = g.Do(context.Background(), "k", func() (any, error) {
				builds.Add(1)
				<-release // hold every other caller in the waiting room
				return "decomp", nil
			})
		}(i)
	}
	// Wait until all non-leaders are parked on the call, then release.
	for {
		g.mu.Lock()
		waiting := g.coalesced
		g.mu.Unlock()
		if waiting == n-1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := builds.Load(); got != 1 {
		t.Fatalf("builds = %d, want exactly 1 for %d concurrent misses", got, n)
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil || vals[i] != "decomp" {
			t.Fatalf("caller %d got (%v, %v), want the shared build", i, vals[i], errs[i])
		}
	}
	st := g.Stats()
	if st.Leads != 1 || st.Coalesced != n-1 {
		t.Fatalf("stats = %+v, want 1 lead and %d coalesced", st, n-1)
	}
}

func TestGroupDistinctKeysDoNotCoalesce(t *testing.T) {
	var g Group
	var builds atomic.Int64
	var wg sync.WaitGroup
	for _, key := range []string{"a", "b", "c"} {
		wg.Add(1)
		go func(key string) {
			defer wg.Done()
			_, _, _ = g.Do(context.Background(), key, func() (any, error) {
				builds.Add(1)
				return key, nil
			})
		}(key)
	}
	wg.Wait()
	if got := builds.Load(); got != 3 {
		t.Fatalf("builds = %d, want 3 (one per key)", got)
	}
}

// A follower whose own deadline expires leaves the waiting room with
// its context error; the leader's build is unaffected.
func TestGroupFollowerHonoursOwnDeadline(t *testing.T) {
	var g Group
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)

	go func() {
		_, _, _ = g.Do(context.Background(), "k", func() (any, error) {
			close(started)
			<-release
			return "v", nil
		})
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, shared, err := g.Do(ctx, "k", func() (any, error) {
		t.Error("follower must never build")
		return nil, nil
	})
	if !errors.Is(err, context.DeadlineExceeded) || !shared {
		t.Fatalf("follower got (shared=%v, %v), want its own deadline error", shared, err)
	}
}

// A cancelled leader must not poison the key: a live follower re-runs
// the election and builds successfully.
func TestGroupCancelledLeaderHandsOver(t *testing.T) {
	var g Group
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderIn := make(chan struct{})
	followerWaiting := make(chan struct{})

	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := g.Do(leaderCtx, "k", func() (any, error) {
			close(leaderIn)
			<-followerWaiting // ensure the follower is parked before dying
			cancelLeader()
			return nil, leaderCtx.Err()
		})
		leaderDone <- err
	}()
	<-leaderIn

	go func() {
		for {
			g.mu.Lock()
			waiting := g.coalesced
			g.mu.Unlock()
			if waiting >= 1 {
				close(followerWaiting)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	val, _, err := g.Do(context.Background(), "k", func() (any, error) {
		return "rebuilt", nil
	})
	if err != nil || val != "rebuilt" {
		t.Fatalf("follower after leader cancellation got (%v, %v), want to rebuild", val, err)
	}
	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want its own cancellation", err)
	}
	if st := g.Stats(); st.Retries != 1 || st.Leads != 2 {
		t.Fatalf("stats = %+v, want 1 retry and 2 leads", st)
	}
}

// Non-cancellation build errors are shared: the herd fails once, not N
// times.
func TestGroupSharesRealErrors(t *testing.T) {
	var g Group
	boom := errors.New("embed failed")
	var builds atomic.Int64
	release := make(chan struct{})

	const n = 4
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = g.Do(context.Background(), "k", func() (any, error) {
				builds.Add(1)
				<-release
				return nil, boom
			})
		}(i)
	}
	for {
		g.mu.Lock()
		waiting := g.coalesced
		g.mu.Unlock()
		if waiting == n-1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := builds.Load(); got != 1 {
		t.Fatalf("builds = %d, want 1 (error shared, not retried)", got)
	}
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("caller %d err = %v, want the shared build error", i, err)
		}
	}
}

// A build that panics retires its call: the panic reaches the leader,
// every waiter gets ErrBuildPanicked, and the next call for the key runs
// a fresh build instead of waiting on the dead one.
func TestGroupPanicRetiresCall(t *testing.T) {
	var g Group
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	release := make(chan struct{})
	leaderPanic := make(chan any, 1)
	go func() {
		defer func() { leaderPanic <- recover() }()
		_, _, _ = g.Do(ctx, "k", func() (any, error) {
			<-release
			panic("build bug")
		})
	}()
	for g.Stats().Leads == 0 {
		time.Sleep(time.Millisecond)
	}
	waiterErr := make(chan error, 1)
	go func() {
		_, _, err := g.Do(ctx, "k", func() (any, error) { return "duplicate", nil })
		waiterErr <- err
	}()
	for g.Stats().Coalesced == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)

	if r := <-leaderPanic; r != "build bug" {
		t.Fatalf("leader recovered %v, want the build's panic", r)
	}
	if err := <-waiterErr; !errors.Is(err, ErrBuildPanicked) {
		t.Fatalf("waiter err = %v, want ErrBuildPanicked", err)
	}
	v, shared, err := g.Do(ctx, "k", func() (any, error) { return "fresh", nil })
	if err != nil || shared || v != "fresh" {
		t.Fatalf("next call = (%v, shared %v, %v), want a fresh build", v, shared, err)
	}
	if st := g.Stats(); st.Leads != 2 || st.Coalesced != 1 {
		t.Fatalf("stats = %+v, want 2 leads and 1 coalesced", st)
	}
}
