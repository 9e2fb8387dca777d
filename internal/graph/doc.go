// Package graph provides the weighted undirected graph type used
// throughout the hierarchical graph partitioning library.
//
// Vertices are dense integer IDs 0..N-1. Each vertex carries a demand
// (the CPU load of the task it models) and each edge carries a
// non-negative weight (communication volume). Parallel edges are merged
// on insertion; self-loops are rejected because they never contribute to
// any cut.
//
// Main entry points: New builds a Graph; AddEdge/SetDemand populate it;
// FromEdges builds one from a whole edge list in O(n + m); Edges returns
// a deterministic sorted edge list (the canonical form the decomposition
// cache hashes); WriteDOT renders Graphviz output for debugging.
package graph
