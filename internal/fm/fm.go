package fm

import (
	"slices"

	"hierpart/internal/graph"
)

// Config controls Refine.
type Config struct {
	// MinFrac and MaxFrac bound the true-side weight as a fraction of
	// the cluster weight. Zeroes mean [0.25, 0.75].
	MinFrac, MaxFrac float64
	// Passes caps the number of FM passes. Zero means 8.
	Passes int
}

// Refine improves the bisection `side` (vertex → true/false) of the
// given cluster of g in place, minimizing the weight of edges whose
// endpoints disagree, subject to the balance window. Vertices outside
// the cluster are ignored entirely; cluster lists distinct vertices.
// weight gives each vertex's balance contribution and is called once
// per vertex. It reports whether the cut weight strictly improved.
//
// Refine numbers the cluster's vertices in ascending ID order and builds
// their cluster-local adjacency once, so its passes run over dense
// slices: no map lookup per neighbour visit. Every sum adds the same
// terms in the same order as a vertex-ID-keyed implementation would
// (neighbours in g.Neighbors order, vertices in ascending ID order), so
// the result is bit-reproducible across the two.
func Refine(g *graph.Graph, cluster []int, side map[int]bool, weight func(v int) float64, cfg Config) bool {
	minFrac, maxFrac := cfg.MinFrac, cfg.MaxFrac
	if minFrac == 0 && maxFrac == 0 {
		minFrac, maxFrac = 0.25, 0.75
	}
	passes := cfg.Passes
	if passes == 0 {
		passes = 8
	}
	if len(cluster) < 2 {
		return false
	}

	r := newRefiner(g, cluster, side, weight)
	if r.totalW == 0 {
		return false
	}
	lo, hi := r.totalW*minFrac, r.totalW*maxFrac

	improvedEver := false
	for pass := 0; pass < passes; pass++ {
		if !r.onePass(lo, hi) {
			break
		}
		improvedEver = true
	}
	// Write back only the sides that moved.
	for i, v := range r.order {
		if side[v] != r.side[i] {
			side[v] = r.side[i]
		}
	}
	return improvedEver
}

// refiner is one Refine call's working set. Local vertex i is order[i];
// its in-cluster neighbours are nbr[off[i]:off[i+1]] with edge weights
// wt[off[i]:off[i+1]], in g.Neighbors order.
type refiner struct {
	order  []int
	off    []int32
	nbr    []int32
	wt     []float64
	w      []float64 // balance weight per local vertex
	totalW float64
	side   []bool

	// Per-pass state, reset at the start of every pass.
	gain     []float64
	version  []int32
	locked   []bool
	q        gainQueue
	moves    []int32
	deferBuf []gainItem
}

func newRefiner(g *graph.Graph, cluster []int, side map[int]bool, weight func(v int) float64) *refiner {
	n := len(cluster)
	order := slices.Clone(cluster)
	slices.Sort(order)
	local := func(v int) (int, bool) { return slices.BinarySearch(order, v) }

	r := &refiner{order: order, w: make([]float64, n)}
	// The cluster weight sums in the caller's order.
	for _, v := range cluster {
		x := weight(v)
		i, _ := local(v)
		r.w[i] = x
		r.totalW += x
	}
	if r.totalW == 0 {
		return r
	}
	deg := 0
	for _, v := range order {
		deg += g.Degree(v)
	}
	r.off = make([]int32, n+1)
	r.nbr = make([]int32, 0, deg)
	r.wt = make([]float64, 0, deg)
	r.side = make([]bool, n)
	r.gain = make([]float64, n)
	r.version = make([]int32, n)
	r.locked = make([]bool, n)
	for i, v := range order {
		r.side[i] = side[v]
		g.Neighbors(v, func(u int, w float64) {
			if j, ok := local(u); ok {
				r.nbr = append(r.nbr, int32(j))
				r.wt = append(r.wt, w)
			}
		})
		r.off[i+1] = int32(len(r.nbr))
	}
	return r
}

// computeGain returns the cut reduction of moving local vertex i.
func (r *refiner) computeGain(i int32) float64 {
	var toOwn, toOther float64
	s := r.side[i]
	for e := r.off[i]; e < r.off[i+1]; e++ {
		if r.side[r.nbr[e]] == s {
			toOwn += r.wt[e]
		} else {
			toOther += r.wt[e]
		}
	}
	return toOther - toOwn
}

func (r *refiner) push(i int32) {
	r.gain[i] = r.computeGain(i)
	r.version[i]++
	r.q.push(gainItem{gain: r.gain[i], v: i, version: r.version[i]})
}

// cutWeight sums the cut edges, each once from its lower-ID endpoint.
func (r *refiner) cutWeight() float64 {
	var c float64
	for i := range r.order {
		for e := r.off[i]; e < r.off[i+1]; e++ {
			if j := r.nbr[e]; int32(i) < j && r.side[j] != r.side[i] {
				c += r.wt[e]
			}
		}
	}
	return c
}

// onePass performs one FM pass and reports whether it strictly lowered
// the cut. side is updated to the best prefix (or left unchanged).
func (r *refiner) onePass(lo, hi float64) bool {
	clear(r.version)
	clear(r.locked)
	r.q = r.q[:0]
	r.moves = r.moves[:0]

	var trueW float64
	for i, s := range r.side {
		if s {
			trueW += r.w[i]
		}
	}
	for i := range r.order {
		r.push(int32(i))
	}

	startCut := r.cutWeight()
	curCut := startCut
	bestCut := startCut
	bestPrefix := 0

	for len(r.q) > 0 {
		// Pop the best unlocked, balance-feasible vertex. Infeasible
		// entries are re-collected and reinserted after the move.
		deferred := r.deferBuf[:0]
		picked := int32(-1)
		for len(r.q) > 0 {
			it := r.q.pop()
			if r.locked[it.v] || it.version != r.version[it.v] {
				continue
			}
			var newTrueW float64
			if r.side[it.v] {
				newTrueW = trueW - r.w[it.v]
			} else {
				newTrueW = trueW + r.w[it.v]
			}
			if newTrueW < lo || newTrueW > hi {
				deferred = append(deferred, it)
				continue
			}
			picked = it.v
			break
		}
		for _, it := range deferred {
			r.q.push(it)
		}
		r.deferBuf = deferred
		if picked == -1 {
			break
		}

		// Tentatively move picked.
		curCut -= r.gain[picked]
		if r.side[picked] {
			trueW -= r.w[picked]
		} else {
			trueW += r.w[picked]
		}
		r.side[picked] = !r.side[picked]
		r.locked[picked] = true
		r.moves = append(r.moves, picked)
		if curCut < bestCut-1e-12 {
			bestCut = curCut
			bestPrefix = len(r.moves)
		}
		for e := r.off[picked]; e < r.off[picked+1]; e++ {
			if u := r.nbr[e]; !r.locked[u] {
				r.push(u)
			}
		}
	}

	// Roll back to the best prefix.
	for i := len(r.moves) - 1; i >= bestPrefix; i-- {
		r.side[r.moves[i]] = !r.side[r.moves[i]]
	}
	return bestCut < startCut-1e-12
}

// gainItem is a queue entry; stale entries (version mismatch) are
// skipped on pop.
type gainItem struct {
	gain    float64
	v       int32
	version int32
}

// before orders the max-heap on gain, ties broken by the lower vertex
// (local indices follow vertex IDs, so this is the vertex-ID order).
func (a gainItem) before(b gainItem) bool {
	if a.gain != b.gain {
		return a.gain > b.gain
	}
	return a.v < b.v
}

// gainQueue is a binary max-heap that sifts exactly as container/heap
// does — up on push; on pop the root swaps with the last element and
// sifts down — so equal-gain entries pop in the same order.
type gainQueue []gainItem

func (q *gainQueue) push(it gainItem) {
	h := append(*q, it)
	j := len(h) - 1
	for j > 0 {
		p := (j - 1) / 2
		if !it.before(h[p]) {
			break
		}
		h[j] = h[p]
		j = p
	}
	h[j] = it
	*q = h
}

func (q *gainQueue) pop() gainItem {
	h := *q
	n := len(h) - 1
	top := h[0]
	x := h[n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c2 := c + 1; c2 < n && h[c2].before(h[c]) {
			c = c2
		}
		if !h[c].before(x) {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = x
	}
	*q = h[:n]
	return top
}
