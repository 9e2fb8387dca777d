package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"

	"hierpart/internal/canon"
	"hierpart/internal/gen"
	"hierpart/internal/graph"
	"hierpart/internal/instio"
	"hierpart/internal/server"
	"hierpart/internal/stream"
	"hierpart/internal/treedecomp"
)

// Every workload is a seeded, pre-generated op sequence: the same seed
// yields byte-identical request bodies in identical order, so two runs
// of one seed submit the same inputs. The seed only drives weights,
// demands, edges, relabellings and draws; sizes, family mixes and
// batch sizes follow fixed schedules, so different seeds load the
// daemon with the same shape of work.

// hierSpec is the one hierarchy every workload partitions onto: 4
// sockets × 4 cores (16 leaves), multipliers 20/4/0.
var hierSpec = instio.HierarchySpec{Deg: []int{4, 4}, CM: []float64{20, 4, 0}}

// loadShare is the demand each instance carries relative to the 16
// leaf capacities: about 60%.
const loadShare = 0.6 * 16

// golden is the fractional part of the golden ratio; stepping a point
// by it spreads instance sizes evenly over their range for any prefix
// of the sequence.
const golden = 0.6180339887498949

func subRNG(seed, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + salt))
}

func instanceOf(g *graph.Graph) instio.Instance {
	in := instio.Instance{Hierarchy: hierSpec, N: g.N(), Demands: make([]float64, g.N())}
	for v := range in.Demands {
		in.Demands[v] = g.Demand(v)
	}
	for _, e := range g.Edges() {
		in.Edges = append(in.Edges, [3]float64{float64(e.U), float64(e.V), e.Weight})
	}
	return in
}

// scaleDemands rescales g's demands so they sum to total.
func scaleDemands(g *graph.Graph, total float64) {
	sum := 0.0
	for v := 0; v < g.N(); v++ {
		sum += g.Demand(v)
	}
	for v := 0; v < g.N(); v++ {
		g.SetDemand(v, g.Demand(v)*total/sum)
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs of numbers and slices are marshalled
	}
	return b
}

// seqHash folds request bodies (and the integers that route them) into
// the op-sequence hash printed in the run header.
type seqHash struct{ h [32]byte }

func newSeqHash(name string) *seqHash {
	return &seqHash{h: sha256.Sum256([]byte("perfbench-ops\x00" + name))}
}

func (s *seqHash) add(ints []int64, body []byte) {
	h := sha256.New()
	h.Write(s.h[:])
	for _, x := range ints {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
	h.Write(body)
	copy(s.h[:], h.Sum(nil))
}

func (s *seqHash) String() string { return hex.EncodeToString(s.h[:]) }

// ---------------------------------------------------------------- cold-ladder

// coldOp is one one-shot POST /v1/partition of a graph no other op
// submits.
type coldOp struct {
	family string
	body   []byte
}

type coldPlan struct {
	// fill are tiny no_degrade requests that fill the result and
	// decomposition LRUs to capacity during set-up, so every timed op
	// inserts into and evicts from both.
	fill [][]byte
	// warm are full-size ladder requests outside the timed sequence.
	warm [][]byte
	ops  []coldOp
	hash string
}

// Cache capacities of the hgpd defaults; the fill covers both.
const (
	resultCacheCap = 256
	decompCacheCap = 128
)

// coldOpCount sizes the sequence so a fast machine cannot run out
// within the measured seconds (the smallest instance solves in about
// 60 ms on a 2-vCPU host).
func coldOpCount(seconds float64) int { return int(seconds*12) + 16 }

// coldGraph builds the op's graph. Families rotate on a fixed 8-op
// pattern; u in [0,1) places the size continuously within the family's
// range so latency percentiles do not sit on gaps between size
// clusters.
func coldGraph(rng *rand.Rand, slot int, u float64) (*graph.Graph, string) {
	switch slot % 8 {
	case 1, 5:
		g := stream.Diamond(rng, 10+int(u*9), 0.1, 0.4, 64).CommGraph() // n = 41..73
		scaleDemands(g, loadShare)
		return g, "diamond"
	case 7:
		g := stream.JoinTree(rng, 32, 0.1, 0.4, 64).CommGraph() // n = 63
		scaleDemands(g, loadShare)
		return g, "join-tree"
	default:
		n := 64 + 4*int(u*17) // 64..128
		g := gen.Community(rng, 4, n/4, 0.5, 0.03, 10, 1)
		gen.EqualDemands(g, loadShare/float64(n))
		return g, "community"
	}
}

func genColdLadder(seed int64, seconds float64) *coldPlan {
	p := &coldPlan{}
	hs := newSeqHash("cold-ladder")
	fillRNG := subRNG(seed, 11)
	for i := 0; i < resultCacheCap; i++ {
		// A 6-cycle with random chords, weights and demands; the
		// request seed alone keeps every key distinct.
		g := graph.New(6)
		for v := 0; v < 6; v++ {
			g.SetDemand(v, 0.2+0.6*fillRNG.Float64())
			g.AddEdge(v, (v+1)%6, 1+9*fillRNG.Float64())
		}
		g.AddEdge(0, 2+fillRNG.Intn(3), 1+9*fillRNG.Float64())
		body := mustJSON(server.PartitionRequest{Instance: instanceOf(g), Seed: int64(1_000_000 + i), NoDegrade: true})
		p.fill = append(p.fill, body)
		hs.add(nil, body)
	}
	warmRNG := subRNG(seed, 12)
	for i := 0; i < 3; i++ {
		g, _ := coldGraph(warmRNG, 0, 0.4)
		body := mustJSON(server.PartitionRequest{Instance: instanceOf(g), Seed: int64(2_000_000 + i)})
		p.warm = append(p.warm, body)
		hs.add(nil, body)
	}
	rng := subRNG(seed, 13)
	u := rng.Float64()
	for i := 0; i < coldOpCount(seconds); i++ {
		u += golden
		u -= float64(int(u))
		g, fam := coldGraph(rng, i, u)
		body := mustJSON(server.PartitionRequest{Instance: instanceOf(g), Seed: int64(i + 1)})
		p.ops = append(p.ops, coldOp{family: fam, body: body})
		hs.add([]int64{int64(i)}, body)
	}
	p.hash = hs.String()
	return p
}

// ---------------------------------------------------------------- relabel-hits

// tenant owns one small streaming-topology instance and resubmits it.
type tenant struct {
	base *graph.Graph
	seed int64
	// register is the set-up request: the instance under its own
	// labels with no_degrade, so the full-DP answer lands in the result
	// cache (the result key ignores no_degrade).
	register []byte
}

// relabelOp is one resubmission of a tenant's instance.
type relabelOp struct {
	tenant int
	// perm relabels the tenant's base graph: submitted vertex perm[v]
	// is base vertex v. Nil is an identity resubmission.
	perm []int
	body []byte
}

type relabelPlan struct {
	tenants []tenant
	// pool is the op sequence; op i submits pool[i mod len(pool)].
	pool []relabelOp
	hash string
}

const (
	relabelTenants = 32 // below the 256-entry result cache
	relabelPool    = 2048
	zipfS          = 1.3
	identityShare  = 0.1
)

// tenantGraph gives tenant t its family (rotating through the five
// internal/stream families) and a size from a fixed schedule, n≈15–37.
func tenantGraph(rng *rand.Rand, t int) *graph.Graph {
	v := t / 5
	switch t % 5 {
	case 0:
		return stream.Pipeline(rng, 5+v%3, 3, 0.1, 0.4, 64).CommGraph()
	case 1:
		return stream.Diamond(rng, 5+v%5, 0.1, 0.4, 64).CommGraph()
	case 2:
		return stream.FanInAggregation(rng, 8+v%5, 3, 0.1, 0.4, 60).CommGraph()
	case 3:
		return stream.WordCount(rng, 10+v%5, 6, 0.1, 0.4, 64).CommGraph()
	default:
		return stream.JoinTree(rng, 16, 0.1, 0.4, 64).CommGraph()
	}
}

func genRelabelHits(seed int64) *relabelPlan {
	p := &relabelPlan{}
	hs := newSeqHash("relabel-hits")
	for t := 0; t < relabelTenants; t++ {
		g := tenantGraph(subRNG(seed, int64(100+t)), t)
		tn := tenant{base: g, seed: int64(t + 1)}
		tn.register = mustJSON(server.PartitionRequest{Instance: instanceOf(g), Seed: tn.seed, NoDegrade: true})
		hs.add(nil, tn.register)
		p.tenants = append(p.tenants, tn)
	}
	rng := subRNG(seed, 21)
	zipf := rand.NewZipf(rng, zipfS, 1, relabelTenants-1)
	for i := 0; i < relabelPool; i++ {
		t := int(zipf.Uint64())
		tn := p.tenants[t]
		op := relabelOp{tenant: t}
		g := tn.base
		if rng.Float64() >= identityShare {
			op.perm = rng.Perm(g.N())
			g = canon.Permute(g, op.perm)
		}
		op.body = mustJSON(server.PartitionRequest{Instance: instanceOf(g), Seed: tn.seed})
		hs.add([]int64{int64(t)}, op.body)
		p.pool = append(p.pool, op)
	}
	p.hash = hs.String()
	return p
}

// ---------------------------------------------------------------- session-reweight

// sessionSpec is one registered graph.
type sessionSpec struct {
	base     *graph.Graph
	intra    []graph.Edge // intra-community edges, the reweight targets
	register []byte       // POST /v1/graphs body
}

// sessionOp is one PATCH of k intra-community reweights on session
// sess, followed by a solve of the patched version.
type sessionOp struct {
	sess    int
	k       int
	version int64 // version the PATCH targets; the solve must answer version+1
	deltas  []server.GraphDelta
	body    []byte
}

type sessionPlan struct {
	sessions []sessionSpec
	ops      []sessionOp
	hash     string
}

// sessionSizes spreads eight sessions over n = 96..152; averaging over
// eight graphs keeps one graph's DP cost from setting a run's figures.
var sessionSizes = []int{96, 104, 112, 120, 128, 136, 144, 152}

// sessionOpCount sizes the sequence beyond what a fast host completes
// (a k=1 op at n=96 takes about 12 ms).
func sessionOpCount(seconds float64) int { return int(seconds*120) + 16 }

func genSessionReweight(seed int64, seconds float64) *sessionPlan {
	p := &sessionPlan{}
	hs := newSeqHash("session-reweight")
	for s, n := range sessionSizes {
		rng := subRNG(seed, int64(300+s))
		g := gen.Community(rng, 4, n/4, 0.5, 0.03, 8, 1)
		gen.EqualDemands(g, loadShare/float64(n))
		spec := sessionSpec{base: g}
		block := n / 4
		for _, e := range g.Edges() {
			if e.U/block == e.V/block {
				spec.intra = append(spec.intra, e)
			}
		}
		spec.register = mustJSON(server.GraphCreateRequest{Instance: instanceOf(g), Seed: int64(s + 1)})
		hs.add(nil, spec.register)
		p.sessions = append(p.sessions, spec)
	}
	rng := subRNG(seed, 31)
	S := len(p.sessions)
	for i := 0; i < sessionOpCount(seconds); i++ {
		s := i % S
		op := sessionOp{sess: s, k: 1 + (i/S)%4, version: int64(1 + i/S)}
		intra := p.sessions[s].intra
		for _, j := range rng.Perm(len(intra))[:op.k] {
			e := intra[j]
			// Reweights scale the registered weight, so a long run
			// never compounds an edge's weight.
			op.deltas = append(op.deltas, server.GraphDelta{
				Op: "reweight_edge", U: e.U, V: e.V, Weight: e.Weight * (0.5 + 1.5*rng.Float64()),
			})
		}
		op.body = mustJSON(server.GraphPatchRequest{Version: op.version, Deltas: op.deltas})
		hs.add([]int64{int64(s), int64(op.k)}, op.body)
		p.ops = append(p.ops, op)
	}
	p.hash = hs.String()
	return p
}

// treeDeltas converts wire reweights into the treedecomp deltas the
// daemon applies for them.
func treeDeltas(ds []server.GraphDelta) ([]treedecomp.Delta, error) {
	out := make([]treedecomp.Delta, len(ds))
	for i, d := range ds {
		if d.Op != "reweight_edge" {
			return nil, fmt.Errorf("unexpected delta op %q", d.Op)
		}
		out[i] = treedecomp.Delta{Op: treedecomp.DeltaReweightEdge, U: d.U, V: d.V, Weight: d.Weight}
	}
	return out, nil
}
