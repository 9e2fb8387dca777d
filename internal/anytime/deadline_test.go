package anytime

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"hierpart/internal/gen"
	"hierpart/internal/hgp"
	"hierpart/internal/hierarchy"
)

// TestLadderAnswersAtDeadlineOnLargeDP pins bounded DP cancellation. On
// a sparse n = 1024 community graph one near-root DP merge runs for
// seconds, so a DP that only polled its context between tables answered
// seconds past the deadline. The DP now stops inside the merge, and
// the ladder answers (with the floor's placement) within 50 ms of its
// deadline, at one worker and at two.
func TestLadderAnswersAtDeadlineOnLargeDP(t *testing.T) {
	if raceEnabled {
		t.Skip("a wall-clock bound means nothing under the race detector's slowdown")
	}
	const n, deadline, slack = 1024, 2 * time.Second, 50 * time.Millisecond
	rng := rand.New(rand.NewSource(1))
	g := gen.Community(rng, 4, n/4, 16.0/n, 0.7/n, 10, 1)
	gen.EqualDemands(g, 0.6*16/n)
	H := hierarchy.NUMASockets(4, 4)
	for _, workers := range []int{1, 2} {
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		start := time.Now()
		out, err := Solve(ctx, g, H, Options{Solver: hgp.Solver{Eps: 0.5, Trees: 4, Seed: 1, Workers: workers}})
		elapsed := time.Since(start)
		cancel()
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		assertValid(t, g, H, out)
		if elapsed > deadline+slack {
			t.Errorf("workers %d: answered after %v, %v past the %v deadline (tier %s)",
				workers, elapsed, elapsed-deadline, deadline, out.Tier)
		}
	}
}
