// Package tree provides the rooted, edge-weighted tree type shared by
// the HGPT dynamic program (§3 of the paper) and the decomposition-tree
// embedding (§4). Leaves carry demands (they are the jobs); edges carry
// non-negative weights, with +Inf permitted for the dummy edges
// introduced by binarisation and by the node→leaf reduction.
//
// Main entry points: New and AddChild build a Tree; Binarize produces
// the binary form the DP requires; CutLeafSet computes the minimum cut
// separating a leaf set (Definition 5), the primitive behind the
// mirror-cost evaluations. CutWeight returns the same cut's weight, bit
// for bit, for many leaf sets of one tree: it skips the reconstruction
// of the mirror and the cut edges and reuses one post-order and its
// buffers across sets, which is what pricing a whole family needs.
package tree
