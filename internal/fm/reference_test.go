package fm

import (
	"container/heap"
	"sort"

	"hierpart/internal/graph"
)

// refineReference is the map-based Refine that the flat-array kernel
// replaced, kept verbatim (identifiers renamed) as the oracle of
// FuzzRefineMatchesReference: both must return the same value and leave
// every cluster vertex on the same side.
func refineReference(g *graph.Graph, cluster []int, side map[int]bool, weight func(v int) float64, cfg Config) bool {
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

	inCluster := make(map[int]bool, len(cluster))
	var totalW float64
	for _, v := range cluster {
		inCluster[v] = true
		totalW += weight(v)
	}
	if totalW == 0 {
		return false
	}
	lo, hi := totalW*minFrac, totalW*maxFrac

	order := append([]int(nil), cluster...)
	sort.Ints(order)

	cutWeight := func() float64 {
		var c float64
		for _, v := range order {
			g.Neighbors(v, func(u int, w float64) {
				if inCluster[u] && v < u && side[u] != side[v] {
					c += w
				}
			})
		}
		return c
	}

	improvedEver := false
	for pass := 0; pass < passes; pass++ {
		if !onePassReference(g, order, inCluster, side, weight, lo, hi, cutWeight) {
			break
		}
		improvedEver = true
	}
	return improvedEver
}

// refGainItem is a queue entry; stale entries (version mismatch) are
// skipped on pop.
type refGainItem struct {
	gain    float64
	v       int
	version int
}

type refGainQueue []refGainItem

func (q refGainQueue) Len() int { return len(q) }
func (q refGainQueue) Less(i, j int) bool {
	if q[i].gain != q[j].gain {
		return q[i].gain > q[j].gain // max-heap on gain
	}
	return q[i].v < q[j].v // deterministic tie-break
}
func (q refGainQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refGainQueue) Push(x interface{}) { *q = append(*q, x.(refGainItem)) }
func (q *refGainQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// onePassReference performs one FM pass and reports whether it strictly lowered
// the cut. side is updated to the best prefix (or left unchanged).
func onePassReference(g *graph.Graph, order []int, inCluster map[int]bool, side map[int]bool,
	weight func(v int) float64, lo, hi float64, cutWeight func() float64) bool {

	gain := map[int]float64{}
	version := map[int]int{}
	locked := map[int]bool{}
	var q refGainQueue

	computeGain := func(v int) float64 {
		var toOwn, toOther float64
		g.Neighbors(v, func(u int, w float64) {
			if !inCluster[u] {
				return
			}
			if side[u] == side[v] {
				toOwn += w
			} else {
				toOther += w
			}
		})
		return toOther - toOwn
	}
	push := func(v int) {
		gain[v] = computeGain(v)
		version[v]++
		heap.Push(&q, refGainItem{gain: gain[v], v: v, version: version[v]})
	}

	var trueW float64
	for _, v := range order {
		if side[v] {
			trueW += weight(v)
		}
	}
	for _, v := range order {
		push(v)
	}

	startCut := cutWeight()
	curCut := startCut
	bestCut := startCut
	bestPrefix := 0
	var moves []int

	for q.Len() > 0 {
		// Pop the best unlocked, balance-feasible vertex. Infeasible
		// entries are re-collected and reinserted after the move.
		var deferred []refGainItem
		picked := -1
		for q.Len() > 0 {
			it := heap.Pop(&q).(refGainItem)
			if locked[it.v] || it.version != version[it.v] {
				continue
			}
			var newTrueW float64
			if side[it.v] {
				newTrueW = trueW - weight(it.v)
			} else {
				newTrueW = trueW + weight(it.v)
			}
			if newTrueW < lo || newTrueW > hi {
				deferred = append(deferred, it)
				continue
			}
			picked = it.v
			break
		}
		for _, it := range deferred {
			heap.Push(&q, it)
		}
		if picked == -1 {
			break
		}

		// Tentatively move picked.
		curCut -= gain[picked]
		if side[picked] {
			trueW -= weight(picked)
		} else {
			trueW += weight(picked)
		}
		side[picked] = !side[picked]
		locked[picked] = true
		moves = append(moves, picked)
		if curCut < bestCut-1e-12 {
			bestCut = curCut
			bestPrefix = len(moves)
		}
		g.Neighbors(picked, func(u int, _ float64) {
			if inCluster[u] && !locked[u] {
				push(u)
			}
		})
	}

	// Roll back to the best prefix.
	for i := len(moves) - 1; i >= bestPrefix; i-- {
		side[moves[i]] = !side[moves[i]]
	}
	return bestCut < startCut-1e-12
}
