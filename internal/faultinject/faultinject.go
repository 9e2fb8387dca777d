package faultinject

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Point identifies an instrumented site in the solver or serving path.
// Hook points sit at the natural cancellation-poll granularity of each
// layer, so an injected fault exercises exactly the code path a real
// slow phase, error, or panic would take.
type Point string

const (
	// TreedecompSplit fires once per cluster bisection during
	// decomposition building (treedecomp.builder.attach).
	TreedecompSplit Point = "treedecomp.split"
	// HgptTable fires once per completed DP table, in both the
	// sequential post-order walk and every scheduler task.
	HgptTable Point = "hgpt.table"
	// CacheLookup fires on every decomposition-cache consultation in the
	// server's solve path, before the LRU is touched.
	CacheLookup Point = "cache.lookup"
	// ServerSolve fires at the top of every admitted partition solve.
	ServerSolve Point = "server.solve"
	// DiskWrite fires before every snapshot-entry write in the
	// decomposition disk store (diskstore.Store.Save), after the payload
	// is encoded but before any byte reaches the filesystem.
	DiskWrite Point = "disk.write"
	// DiskSync fires before the fsync-then-rename commit step shared by
	// snapshot entries and session files — the window where a crash
	// leaves only the temp file.
	DiskSync Point = "disk.sync"
	// PeerFetch fires in the cluster peer-fetch client after a peer's
	// response body has been read but before it is validated — the
	// window where a real network can delay, drop, or corrupt the
	// bytes. Use FireBody at this site so a CorruptBody fault can
	// actually mangle the payload.
	PeerFetch Point = "peer.fetch"
	// RepairPull fires in the anti-entropy sweep before each missing
	// entry is pulled from a replica — an injected error defers the key
	// to a later sweep and ticks repair_pull_errors_total.
	RepairPull Point = "repair.pull"
	// SessionPatch fires in the hgpd session store while a PATCH's
	// deltas are being applied to the scratch graph, before the swap —
	// an injected error must leave the session at its prior version with
	// no delta half-applied.
	SessionPatch Point = "session.patch"
	// DecompRepair fires in treedecomp.Repair before each dirty subtree
	// is rebuilt — an injected error aborts the repair, and the serving
	// path must degrade to a cold solve rather than keep a half-repaired
	// decomposition.
	DecompRepair Point = "decomp.repair"
)

// Points lists every hook point compiled into the binary, for batteries
// that want to inject at all of them.
var Points = []Point{TreedecompSplit, HgptTable, CacheLookup, ServerSolve, DiskWrite, DiskSync, PeerFetch, RepairPull, SessionPatch, DecompRepair}

// Fault describes what happens when a hook point fires. Zero-valued
// actions are skipped; several may be combined in one Fault (e.g. a
// delay followed by an error).
type Fault struct {
	// Prob is the chance, per visit, that this fault fires ∈ [0, 1].
	// 1 fires on every visit.
	Prob float64
	// Count caps how many times the fault may fire; 0 means unlimited.
	Count int
	// Delay stalls the visiting goroutine, waking early if ctx dies —
	// a forced slow phase.
	Delay time.Duration
	// AllocBytes allocates (and immediately drops) this much memory on
	// fire — an allocation-pressure spike.
	AllocBytes int
	// Err is returned from Fire after the delay/alloc actions; the hook
	// site propagates it like any phase error.
	Err error
	// PanicMsg, when non-empty, makes the hook panic — simulating a
	// solver bug — after the other actions.
	PanicMsg string
	// CorruptBody makes FireBody return a copy of its payload with one
	// byte flipped — torn or bit-rotted bytes on the wire or disk. The
	// action is meaningful only at FireBody sites; Fire ignores it.
	CorruptBody bool
}

// Injector is a deterministic, seed-driven fault source. Each hook
// point draws from its own RNG stream (sub-seeded from the injector
// seed), so a point's fire/skip decision sequence depends only on the
// seed and that point's visit count — not on how visits from different
// points interleave under concurrency.
type Injector struct {
	seed int64

	mu     sync.Mutex
	rules  map[Point][]*ruleState
	rngs   map[Point]*rand.Rand
	visits map[Point]int64
	fires  map[Point]int64
}

type ruleState struct {
	f     Fault
	fired int
}

// New returns an empty injector; register faults with On.
func New(seed int64) *Injector {
	return &Injector{
		seed:   seed,
		rules:  map[Point][]*ruleState{},
		rngs:   map[Point]*rand.Rand{},
		visits: map[Point]int64{},
		fires:  map[Point]int64{},
	}
}

// On registers f at point p (in addition to any faults already there).
// It returns the injector for chaining.
func (in *Injector) On(p Point, f Fault) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules[p] = append(in.rules[p], &ruleState{f: f})
	return in
}

// Visits returns how many times point p has been consulted, and Fires
// how many times any fault fired there — the battery's evidence that a
// hook point is actually wired into the production path.
func (in *Injector) Visits(p Point) int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.visits[p]
}

// Fires returns how many times a fault fired at p.
func (in *Injector) Fires(p Point) int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fires[p]
}

// pointRNG returns p's dedicated RNG stream, creating it on first use
// from a sub-seed that depends only on (injector seed, point name).
func (in *Injector) pointRNG(p Point) *rand.Rand {
	if r, ok := in.rngs[p]; ok {
		return r
	}
	sub := in.seed
	for _, c := range []byte(p) {
		sub = sub*1099511628211 + int64(c) // FNV-style fold
	}
	r := rand.New(rand.NewSource(sub))
	in.rngs[p] = r
	return r
}

// fire decides which registered fault (if any) fires on this visit and
// returns a copy of it. Decisions and bookkeeping happen under the
// lock; the fault's actions run outside it.
func (in *Injector) fire(p Point) (Fault, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.visits[p]++
	rng := in.pointRNG(p)
	for _, rs := range in.rules[p] {
		if rs.f.Count > 0 && rs.fired >= rs.f.Count {
			continue
		}
		if rs.f.Prob < 1 && rng.Float64() >= rs.f.Prob {
			continue
		}
		rs.fired++
		in.fires[p]++
		return rs.f, true
	}
	return Fault{}, false
}

// active is the process-wide injector consulted by the production hook
// points. When nil (the default, and the only state outside fault
// tests), Fire is a single atomic load.
var active atomic.Pointer[Injector]

// Activate installs in as the process-wide injector and returns a
// function that removes it again. Tests must call the returned restore
// (typically via t.Cleanup) so faults never leak across tests.
func Activate(in *Injector) (restore func()) {
	active.Store(in)
	return func() { active.CompareAndSwap(in, nil) }
}

// Enabled reports whether an injector is installed.
func Enabled() bool { return active.Load() != nil }

// Fire is the production hook: a no-op returning nil unless an injector
// is active and one of p's faults fires. A fired fault's actions run in
// order — delay (cancellable by ctx), allocation spike, then the error
// return or panic. ctx may be nil when the call site has no context.
func Fire(ctx context.Context, p Point) error {
	body, err := FireBody(ctx, p, nil)
	_ = body
	return err
}

// FireBody is Fire for hook sites that carry a payload (the peer-fetch
// client, with the bytes it just read off the wire): a fired fault's
// CorruptBody action returns a copy of body with one byte flipped, so
// the site's validation path is exercised with genuinely bad bytes.
// All other actions behave exactly as in Fire. With no active injector
// or no firing fault, body is returned unchanged.
func FireBody(ctx context.Context, p Point, body []byte) ([]byte, error) {
	in := active.Load()
	if in == nil {
		return body, nil
	}
	f, ok := in.fire(p)
	if !ok {
		return body, nil
	}
	if f.Delay > 0 {
		if ctx == nil {
			time.Sleep(f.Delay)
		} else {
			t := time.NewTimer(f.Delay)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return body, ctx.Err()
			}
		}
	}
	if f.AllocBytes > 0 {
		spike := make([]byte, f.AllocBytes)
		// Touch one byte per page so the allocation is real memory
		// pressure, not a lazily-mapped no-op.
		for i := 0; i < len(spike); i += 4096 {
			spike[i] = 1
		}
		_ = spike
	}
	if f.PanicMsg != "" {
		panic(fmt.Sprintf("faultinject: %s: %s", p, f.PanicMsg))
	}
	if f.CorruptBody && len(body) > 0 {
		// Flip one byte in the middle of a COPY: the caller may share
		// the original buffer, and the fault must not mutate it.
		bad := append([]byte(nil), body...)
		bad[len(bad)/2] ^= 0xFF
		body = bad
	}
	return body, f.Err
}
