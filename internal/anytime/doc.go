// Package anytime is the degradation ladder: a budget-aware
// orchestrator that races the paper's full HGP pipeline against one
// cheap rung — a k-BGP-style heuristic mapped onto the hierarchy — and
// always returns the best feasible partition found before the
// deadline, annotated with the tier that produced it.
//
// The ladder exists because the bicriteria pipeline is all-or-nothing
// on its own: a deadline or state blowup mid-DP used to surrender
// nothing. With anytime semantics a cancelled full solve yields its
// best-so-far incumbent (hgp.Solver.AllowPartial), and the heuristic
// rung needs no decomposition or DP, so a serving path built on this
// package degrades in quality instead of failing.
//
// Main entry points: Solve, Options, Outcome, Tier.
package anytime
