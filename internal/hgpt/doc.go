// Package hgpt implements the paper's core contribution: hierarchical
// graph partitioning on trees (HGPT, §3). The solver runs the signature
// dynamic program of Theorem 4 over the relaxed problem (RHGPT,
// Definition 4), reconstructs the optimal nice solution (Definition 6,
// Theorem 3), and repacks it into a strict HGPT solution per Theorem 5,
// violating Level-(j) capacities by at most (1+ε)(1+j).
//
// The DP state at a tree node v is the signature (D⁽¹⁾, …, D⁽ʰ⁾): the
// scaled demand of the (v, j)-active set at every hierarchy level j
// (Definition 8). Children tables are merged with the (j₁, j₂)-consistent
// rule of Definition 9, paying boundary costs derived from Equation (4)
// for every level at which a child edge is cut. Instead of looping over
// all parent signatures and searching for consistent child pairs (the
// paper's O(D^{2h+2}) bound), the implementation loops over realized
// child signature pairs and derives the unique parent signature, keeping
// tables sparse. The loop runs over projected child tables: a child row
// cut above level j contributes only its demands at levels ≤ j and its
// region depth, so each table groups its rows by those (P_j) and the
// merge pairs only each group's cheapest row, following the rows whose
// sums round to the same value so that the tables stay bit-identical to
// the exhaustive merge (see dpTable and crossInto).
//
// Two refinements over the paper's literal presentation were required
// for the computed optimum to match the brute-force Equation (3) optimum
// (both verified against exhaustive search in internal/exact):
//
//  1. A cut child edge charges (cm(k−1)−cm(k))/2 once for the closed
//     child-side set AND once more when the merged Level-(k) active
//     region still contains v — the edge then lies on that region's
//     boundary too (Lemma 4 forces the two mirrors apart). Equation (4)
//     as printed charges only the child side.
//  2. Definition 8 ties "active set exists" to D > 0, but a minimum cut
//     (Definition 5) may route a set's mirror through a subtree holding
//     none of its leaves, when the interior edges are cheaper than the
//     subtree's root edge. The signature alphabet here therefore
//     distinguishes, per level, "no region", "region with zero demand"
//     (such an incursion), and "region with demand D". Zero-demand
//     regions may open spontaneously at internal nodes and must merge
//     upward — cutting them off is invalid (a mirror component with no
//     member leaf cannot exist).
//
// Main entry points: a Solver value configures ε, the worker budget,
// and the state cap; Solve runs the DP on a tree and hierarchy,
// SolveContext does the same under a context.Context, and both return a
// Solution (leaf assignment, relaxed cost, state diagnostics).
// FamilyCost, AssignmentFamily, and AssignmentCost bridge to the
// laminar-family view used by the structural tests; FamilyCost, which
// also prices every Solution, reads each set's cut weight from one
// tree.CutWeight.
package hgpt
