package cache

import (
	"context"
	"errors"
	"sync"
)

// Group coalesces concurrent builds of the same key: while one caller
// (the leader) runs the build function, every other caller asking for
// the same key blocks on the leader's outcome instead of duplicating
// the work. This is the decomposition cache's miss-storm guard — N
// identical requests arriving together used to run N redundant
// multi-second embeds; with the group they run exactly one.
//
// Cancellation semantics: a follower whose own context expires stops
// waiting and returns its context error. A leader whose build fails
// with a cancellation error (its request died mid-build) does not
// poison the key — the call is retired without publishing the error,
// and one of the still-live followers takes over as the new leader.
// Non-cancellation build errors are shared with every waiter: a build
// that genuinely failed would fail identically N times, so the herd
// has nothing to gain by retrying in lockstep. A build that panics
// retires its call too: the waiters get ErrBuildPanicked and the panic
// goes on up the leader's stack, so the key is free for the next call.
//
// The zero Group is ready to use.
type Group struct {
	mu    sync.Mutex
	calls map[string]*flightCall

	leads, coalesced, retries int64
}

// ErrBuildPanicked is what the waiters of a coalesced call get when the
// leader's build panicked; the leader itself re-panics.
var ErrBuildPanicked = errors.New("cache: the coalesced build panicked")

type flightCall struct {
	done chan struct{} // closed when the leader retires the call
	val  any
	err  error
	// retry marks a leader cancelled mid-build: waiters must not adopt
	// err, they re-enter Do and elect a new leader.
	retry bool
}

// GroupStats is a point-in-time view of the group's accounting.
type GroupStats struct {
	// Leads counts builds actually executed.
	Leads int64 `json:"leads"`
	// Coalesced counts callers that shared another caller's build.
	Coalesced int64 `json:"coalesced"`
	// Retries counts leader re-elections after a cancelled leader.
	Retries int64 `json:"retries"`
}

// Do returns the result of build for key, coalescing concurrent calls:
// exactly one caller per key executes build at a time, everyone else
// waits for that result. shared reports whether this caller's value
// came from another caller's build.
func (g *Group) Do(ctx context.Context, key string, build func() (any, error)) (val any, shared bool, err error) {
	for {
		g.mu.Lock()
		if g.calls == nil {
			g.calls = map[string]*flightCall{}
		}
		if c, ok := g.calls[key]; ok {
			g.coalesced++
			g.mu.Unlock()
			select {
			case <-c.done:
			case <-ctx.Done():
				return nil, true, ctx.Err()
			}
			if c.retry {
				// The leader's request died, not the build itself. This
				// caller is still live — run the election again.
				g.mu.Lock()
				g.retries++
				g.mu.Unlock()
				continue
			}
			return c.val, true, c.err
		}
		c := &flightCall{done: make(chan struct{}), err: ErrBuildPanicked}
		g.calls[key] = c
		g.leads++
		g.mu.Unlock()
		g.lead(ctx, key, c, build)
		return c.val, false, c.err
	}
}

// lead runs build for key's call and retires the call however build
// ends, a panic included (c.err then stays ErrBuildPanicked for the
// waiters). The call leaves the map before its waiters wake, so a
// retrying follower finds the slot empty and can lead immediately.
func (g *Group) lead(ctx context.Context, key string, c *flightCall, build func() (any, error)) {
	defer func() {
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
		close(c.done)
	}()
	c.val, c.err = build()
	if c.err != nil && ctx.Err() != nil &&
		(errors.Is(c.err, context.Canceled) || errors.Is(c.err, context.DeadlineExceeded)) {
		c.retry = true
	}
}

// Stats returns the group's lead/coalesce/retry counters.
func (g *Group) Stats() GroupStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return GroupStats{Leads: g.leads, Coalesced: g.coalesced, Retries: g.retries}
}
