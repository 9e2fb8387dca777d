package hierarchy

import (
	"errors"
	"fmt"
	"math"
)

// Hierarchy is an immutable regular hierarchy tree. Construct with New
// or one of the presets.
type Hierarchy struct {
	deg []int     // deg[j] = DEG(j), children per Level-(j) node, j in [0,h)
	cm  []float64 // cm[j], j in [0,h]
	// leavesPer[j] = number of leaves under one Level-(j) node
	//              = Π_{j' ≥ j} deg[j'], so leavesPer[h] = 1.
	leavesPer []int
	// nodes[j] = number of Level-(j) nodes = Π_{j' < j} deg[j'].
	nodes []int
}

// New builds a hierarchy with the given per-level degrees and cost
// multipliers. len(cm) must be len(deg)+1 and cm must be finite and
// non-increasing; every degree must be at least 1 and cost multipliers
// non-negative. The tree DP's cost ceilings rest on a finite per-level
// increment Δ(j) = (cm(j−1)−cm(j))/2 ≥ 0.
func New(deg []int, cm []float64) (*Hierarchy, error) {
	h := len(deg)
	if h == 0 {
		return nil, errors.New("hierarchy: height must be at least 1")
	}
	if len(cm) != h+1 {
		return nil, fmt.Errorf("hierarchy: need %d cost multipliers for height %d, got %d", h+1, h, len(cm))
	}
	for j, d := range deg {
		if d < 1 {
			return nil, fmt.Errorf("hierarchy: DEG(%d) = %d, must be ≥ 1", j, d)
		}
	}
	for j, c := range cm {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return nil, fmt.Errorf("hierarchy: cm(%d) = %v, must be finite", j, c)
		}
	}
	for j := 0; j < h; j++ {
		if cm[j] < cm[j+1] {
			return nil, fmt.Errorf("hierarchy: cm(%d) = %v < cm(%d) = %v, must be non-increasing", j, cm[j], j+1, cm[j+1])
		}
	}
	if cm[h] < 0 {
		return nil, fmt.Errorf("hierarchy: cm(%d) = %v, must be non-negative", h, cm[h])
	}
	hi := &Hierarchy{
		deg:       append([]int(nil), deg...),
		cm:        append([]float64(nil), cm...),
		leavesPer: make([]int, h+1),
		nodes:     make([]int, h+1),
	}
	hi.leavesPer[h] = 1
	for j := h - 1; j >= 0; j-- {
		hi.leavesPer[j] = hi.leavesPer[j+1] * deg[j]
	}
	hi.nodes[0] = 1
	for j := 1; j <= h; j++ {
		hi.nodes[j] = hi.nodes[j-1] * deg[j-1]
	}
	return hi, nil
}

// MustNew is New but panics on error; for tests and literals.
func MustNew(deg []int, cm []float64) *Hierarchy {
	h, err := New(deg, cm)
	if err != nil {
		panic(err)
	}
	return h
}

// Height returns h, the number of levels below the root.
func (h *Hierarchy) Height() int { return len(h.deg) }

// Leaves returns k, the number of leaves (unit-capacity slots).
func (h *Hierarchy) Leaves() int { return h.leavesPer[0] }

// Deg returns DEG(j), the number of children of each Level-(j) node.
func (h *Hierarchy) Deg(j int) int { return h.deg[j] }

// CM returns the cost multiplier cm(j) for level j in [0, h].
func (h *Hierarchy) CM(j int) float64 { return h.cm[j] }

// NumNodes returns the number of Level-(j) nodes.
func (h *Hierarchy) NumNodes(j int) int { return h.nodes[j] }

// Cap returns CP(j), the capacity of one Level-(j) node: the number of
// unit-capacity leaves in its subtree.
func (h *Hierarchy) Cap(j int) float64 { return float64(h.leavesPer[j]) }

// LeavesPer returns the number of leaves under one Level-(j) node as an
// integer (CP(j) with unit leaves).
func (h *Hierarchy) LeavesPer(j int) int { return h.leavesPer[j] }

// AncestorAt returns the index of the Level-(j) ancestor of the given
// leaf (j = Height() returns the leaf itself, j = 0 returns 0, the root).
func (h *Hierarchy) AncestorAt(leaf, j int) int {
	if leaf < 0 || leaf >= h.Leaves() {
		panic(fmt.Sprintf("hierarchy: leaf %d out of range [0,%d)", leaf, h.Leaves()))
	}
	if j < 0 || j > h.Height() {
		panic(fmt.Sprintf("hierarchy: level %d out of range [0,%d]", j, h.Height()))
	}
	return leaf / h.leavesPer[j]
}

// LeafRange returns the half-open range [lo, hi) of leaves under the
// Level-(j) node with the given index.
func (h *Hierarchy) LeafRange(j, idx int) (lo, hi int) {
	if idx < 0 || idx >= h.nodes[j] {
		panic(fmt.Sprintf("hierarchy: level-%d node %d out of range [0,%d)", j, idx, h.nodes[j]))
	}
	return idx * h.leavesPer[j], (idx + 1) * h.leavesPer[j]
}

// LCALevel returns the level of the lowest common ancestor of leaves a
// and b: the deepest j such that both leaves lie under the same
// Level-(j) node. LCALevel(a, a) == Height().
func (h *Hierarchy) LCALevel(a, b int) int {
	if a < 0 || a >= h.Leaves() || b < 0 || b >= h.Leaves() {
		panic(fmt.Sprintf("hierarchy: leaves %d, %d out of range [0,%d)", a, b, h.Leaves()))
	}
	for j := h.Height(); j > 0; j-- {
		if a/h.leavesPer[j] == b/h.leavesPer[j] {
			return j
		}
	}
	return 0
}

// EdgeCost returns the objective contribution of a unit-weight edge whose
// endpoints are placed on leaves a and b: cm(LCALevel(a, b)).
func (h *Hierarchy) EdgeCost(a, b int) float64 {
	return h.cm[h.LCALevel(a, b)]
}

// Normalized returns a copy of h whose cost multipliers have cm(h) = 0,
// plus the per-unit-weight offset that was subtracted (Lemma 1): for any
// placement p, cost_h(p) = cost_normalized(p) + offset · totalEdgeWeight.
func (h *Hierarchy) Normalized() (*Hierarchy, float64) {
	off := h.cm[len(h.cm)-1]
	if off == 0 {
		return h, 0
	}
	cm := make([]float64, len(h.cm))
	for i, c := range h.cm {
		cm[i] = c - off
	}
	return MustNew(h.deg, cm), off
}

// IsNormalized reports whether cm(h) == 0.
func (h *Hierarchy) IsNormalized() bool { return h.cm[len(h.cm)-1] == 0 }

// String returns a compact description such as
// "H(h=3, deg=[4 8 2], cm=[100 30 5 0], k=64)".
func (h *Hierarchy) String() string {
	return fmt.Sprintf("H(h=%d, deg=%v, cm=%v, k=%d)", h.Height(), h.deg, h.cm, h.Leaves())
}

// FlatKWay returns the height-1 hierarchy whose special case of HGP is
// the classical k-balanced graph partitioning problem: k leaves, cutting
// an edge costs its weight (cm = [1, 0]).
func FlatKWay(k int) *Hierarchy {
	return MustNew([]int{k}, []float64{1, 0})
}

// NUMAServer returns the paper's motivating topology: a commodity server
// with 4 CPU sockets, 8 cores per socket, and 2 hyperthreads per core
// (64 schedulable leaves, h = 3). The default multipliers model relative
// communication cost: cross-socket traffic over the memory backplane is
// far more expensive than same-socket L3 sharing, which is more expensive
// than hyperthread siblings sharing L1/L2; co-located tasks cost nothing.
func NUMAServer() *Hierarchy {
	return MustNew([]int{4, 8, 2}, []float64{100, 25, 4, 0})
}

// NUMASockets returns a two-level server model (sockets × cores) used by
// experiments that need h = 2.
func NUMASockets(sockets, coresPerSocket int) *Hierarchy {
	return MustNew([]int{sockets, coresPerSocket}, []float64{20, 4, 0})
}

// Datacenter returns a rack/host/core hierarchy (h = 3) with multipliers
// modeling network hop costs: cross-rack, cross-host (same rack), and
// cross-core (same host).
func Datacenter(racks, hostsPerRack, coresPerHost int) *Hierarchy {
	return MustNew([]int{racks, hostsPerRack, coresPerHost}, []float64{1000, 100, 10, 0})
}
