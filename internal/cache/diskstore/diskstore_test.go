package diskstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"hierpart/internal/cache"
	"hierpart/internal/faultinject"
	"hierpart/internal/gen"
	"hierpart/internal/telemetry"
	"hierpart/internal/treedecomp"
)

func testDecomp(t *testing.T, seed int64) (*treedecomp.Decomposition, string) {
	t.Helper()
	g := gen.Community(rand.New(rand.NewSource(seed)), 3, 6, 0.6, 0.05, 10, 1)
	gen.EqualDemands(g, 0.5)
	opt := treedecomp.Options{Trees: 3, Seed: seed, Workers: 1}
	return treedecomp.Build(g, opt), cache.DecompKey(g, opt)
}

// sameDecomp asserts two decompositions are structurally identical —
// every node's parent, edge weight, demand, and label, plus the vertex
// to leaf mapping.
func sameDecomp(t *testing.T, a, b *treedecomp.Decomposition) {
	t.Helper()
	if len(a.Trees) != len(b.Trees) {
		t.Fatalf("tree count %d vs %d", len(a.Trees), len(b.Trees))
	}
	for i := range a.Trees {
		ta, tb := a.Trees[i].T, b.Trees[i].T
		if ta.N() != tb.N() {
			t.Fatalf("tree %d: %d vs %d nodes", i, ta.N(), tb.N())
		}
		for v := 0; v < ta.N(); v++ {
			if v != 0 && (ta.Parent(v) != tb.Parent(v) || ta.EdgeWeight(v) != tb.EdgeWeight(v)) {
				t.Fatalf("tree %d node %d: parent/weight mismatch", i, v)
			}
			if ta.Demand(v) != tb.Demand(v) || ta.Label(v) != tb.Label(v) {
				t.Fatalf("tree %d node %d: demand/label mismatch", i, v)
			}
		}
		if !reflect.DeepEqual(a.Trees[i].LeafOf, b.Trees[i].LeafOf) {
			t.Fatalf("tree %d: LeafOf mismatch", i)
		}
	}
}

func TestSaveLoadRoundTripBitIdentical(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, err := Open(t.TempDir(), 0, reg)
	if err != nil {
		t.Fatal(err)
	}
	d, key := testDecomp(t, 7)
	if err := s.Save(key, d, nil); err != nil {
		t.Fatal(err)
	}
	got, _, ok := s.Load(key)
	if !ok {
		t.Fatal("entry not found after Save")
	}
	sameDecomp(t, d, got)
	// Bit-identity: the canonical encoding of the reloaded decomposition
	// matches the original byte for byte.
	if !bytes.Equal(encodeDecomposition(d), encodeDecomposition(got)) {
		t.Fatal("reloaded decomposition encodes differently")
	}
	if reg.Counter("snapshot_saved_total").Value() != 1 {
		t.Fatal("save not counted")
	}
}

func TestLoadMissingKey(t *testing.T) {
	s, err := Open(t.TempDir(), 0, telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Load("deadbeef"); ok {
		t.Fatal("missing key must not load")
	}
}

// corruptions drives every skip path: flipped payload bytes, truncation
// at several offsets, a bad magic, and a bumped stream version. All must
// be skipped without a crash and without surfacing a value.
func TestCorruptEntriesSkipped(t *testing.T) {
	d, key := testDecomp(t, 11)
	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		counter string
	}{
		{"flip-payload-byte", func(b []byte) []byte {
			b[len(b)-1] ^= 0xff
			return b
		}, "snapshot_corrupt_total"},
		{"truncate-mid-payload", func(b []byte) []byte {
			return b[:headerLen+3]
		}, "snapshot_corrupt_total"},
		{"truncate-mid-header", func(b []byte) []byte {
			return b[:headerLen-5]
		}, "snapshot_corrupt_total"},
		{"empty-file", func(b []byte) []byte {
			return nil
		}, "snapshot_corrupt_total"},
		{"bad-magic", func(b []byte) []byte {
			b[0] ^= 0xff
			return b
		}, "snapshot_corrupt_total"},
		{"format-version-bump", func(b []byte) []byte {
			b[len(magic)]++
			return b
		}, "snapshot_version_mismatch_total"},
		{"stream-version-bump", func(b []byte) []byte {
			b[len(magic)+4]++
			return b
		}, "snapshot_version_mismatch_total"},
		{"checksum-matches-corrupt-payload", func(b []byte) []byte {
			// Valid checksum over a structurally broken payload: parent
			// field of node 1 points forward. Decode validation must
			// reject it even though the hash passes.
			// Rebuild: header + mutated payload + fixed checksum.
			payload := append([]byte(nil), b[headerLen:]...)
			// perm length (4 bytes, zero here) + tree count (4 bytes) +
			// node count (4 bytes), then node 1's parent uint32.
			payload[12] = 0xff
			return rebuildEntry(payload)
		}, "snapshot_corrupt_total"},
		{"checksum-matches-corrupt-perm", func(b []byte) []byte {
			// A duplicated permutation entry must be rejected even under
			// a valid checksum: serving it would scramble translations.
			payload := append([]byte(nil), b[headerLen:]...)
			// The original perm length is 0; synthesize perm [0,0].
			perm := binary.LittleEndian.AppendUint32(nil, 2)
			perm = binary.LittleEndian.AppendUint32(perm, 0)
			perm = binary.LittleEndian.AppendUint32(perm, 0)
			return rebuildEntry(append(perm, payload[4:]...))
		}, "snapshot_corrupt_total"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			s, err := Open(t.TempDir(), 0, reg)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Save(key, d, nil); err != nil {
				t.Fatal(err)
			}
			path := s.entryPath(key)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.mutate(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, ok := s.Load(key); ok {
				t.Fatal("corrupt entry must not load")
			}
			if got := reg.Counter(tc.counter).Value(); got != 1 {
				t.Fatalf("%s = %d, want 1", tc.counter, got)
			}
			// LoadAll must skip it too, without error.
			n := 0
			if err := s.LoadAll(0, func(string, *treedecomp.Decomposition, []int) { n++ }); err != nil {
				t.Fatal(err)
			}
			if n != 0 {
				t.Fatalf("LoadAll surfaced %d corrupt entries", n)
			}
		})
	}
}

// rebuildEntry wraps payload in a fresh valid header (current versions,
// correct length and checksum).
func rebuildEntry(payload []byte) []byte {
	var buf []byte
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint32(buf, formatVersion)
	buf = binary.LittleEndian.AppendUint32(buf, treedecomp.RNGStreamVersion)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	sum := sha256.Sum256(payload)
	buf = append(buf, sum[:]...)
	return append(buf, payload...)
}

func TestLoadAllNewestFirstWithLimit(t *testing.T) {
	s, err := Open(t.TempDir(), 0, telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for i := int64(0); i < 3; i++ {
		d, key := testDecomp(t, 20+i)
		if err := s.Save(key, d, nil); err != nil {
			t.Fatal(err)
		}
		// Distinct mtimes so newest-first ordering is deterministic.
		mt := time.Now().Add(time.Duration(i-3) * time.Hour)
		if err := os.Chtimes(s.entryPath(key), mt, mt); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
	}
	var got []string
	if err := s.LoadAll(2, func(k string, _ *treedecomp.Decomposition, _ []int) { got = append(got, k) }); err != nil {
		t.Fatal(err)
	}
	// Newest two = the last two saved, newest first.
	want := []string{keys[2], keys[1]}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("LoadAll order = %v, want %v", got, want)
	}
}

func TestFlusherWritesEnqueuedEntries(t *testing.T) {
	s, err := Open(t.TempDir(), 0, telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	d, key := testDecomp(t, 31)
	s.StartFlusher(10 * time.Millisecond)
	s.Enqueue(key, d, nil)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, ok := s.Load(key); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("flusher never wrote the enqueued entry")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCloseFlushesPendingWithoutFlusher(t *testing.T) {
	s, err := Open(t.TempDir(), 0, telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	d, key := testDecomp(t, 37)
	s.Enqueue(key, d, nil)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Load(key); !ok {
		t.Fatal("Close must flush staged entries")
	}
}

func TestPruneBoundsGeneration(t *testing.T) {
	s, err := Open(t.TempDir(), 2, telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 4; i++ {
		d, key := testDecomp(t, 40+i)
		s.Enqueue(key, d, nil)
		mt := time.Now().Add(time.Duration(i-4) * time.Hour)
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		os.Chtimes(s.entryPath(key), mt, mt)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	files, err := s.listEntries()
	if err != nil {
		t.Fatal(err)
	}
	if len(files) > 2 {
		t.Fatalf("prune left %d entries, want ≤ 2", len(files))
	}
}

// Injected disk faults: a write error surfaces as a failed Save (with
// the error counter ticked) and never leaves a half-written final file;
// a sync-step fault likewise leaves no final entry.
func TestDiskFaultInjection(t *testing.T) {
	for _, point := range []faultinject.Point{faultinject.DiskWrite, faultinject.DiskSync} {
		t.Run(string(point), func(t *testing.T) {
			reg := telemetry.NewRegistry()
			s, err := Open(t.TempDir(), 0, reg)
			if err != nil {
				t.Fatal(err)
			}
			injected := errors.New("injected disk fault")
			restore := faultinject.Activate(faultinject.New(1).On(point, faultinject.Fault{Prob: 1, Err: injected}))
			d, key := testDecomp(t, 51)
			saveErr := s.Save(key, d, nil)
			restore()
			if !errors.Is(saveErr, injected) {
				t.Fatalf("Save = %v, want injected fault", saveErr)
			}
			if reg.Counter("snapshot_save_errors_total").Value() != 1 {
				t.Fatal("save error not counted")
			}
			if _, _, ok := s.Load(key); ok {
				t.Fatal("failed Save must not leave a loadable entry")
			}
			ents, err := os.ReadDir(s.Dir())
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ents {
				if filepath.Ext(e.Name()) != entrySuffix {
					t.Fatalf("stray file %s after failed save", e.Name())
				}
			}
			// The store recovers once the fault clears.
			if err := s.Save(key, d, nil); err != nil {
				t.Fatal(err)
			}
			if _, _, ok := s.Load(key); !ok {
				t.Fatal("entry must load after recovery")
			}
		})
	}
}

// A transient write fault during Flush must not drop the staged entry:
// it is re-staged and written by the next flush once the fault clears.
func TestFlushRestagesFailedEntries(t *testing.T) {
	s, err := Open(t.TempDir(), 0, telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	d, key := testDecomp(t, 77)
	s.Enqueue(key, d, nil)

	injected := errors.New("injected disk fault")
	restore := faultinject.Activate(faultinject.New(1).
		On(faultinject.DiskWrite, faultinject.Fault{Prob: 1, Err: injected}))
	flushErr := s.Flush()
	restore()
	if !errors.Is(flushErr, injected) {
		t.Fatalf("Flush = %v, want injected fault", flushErr)
	}
	if st := s.Stats(); st.Pending != 1 {
		t.Fatalf("pending after failed flush = %d, want 1 (entry dropped)", st.Pending)
	}

	// The fault cleared: the next flush writes the re-staged entry.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Pending != 0 {
		t.Fatalf("pending after recovery flush = %d, want 0", st.Pending)
	}
	got, _, ok := s.Load(key)
	if !ok {
		t.Fatal("entry must be loadable after the recovery flush")
	}
	sameDecomp(t, d, got)
}

func TestStrayTempFilesRemovedOnLoad(t *testing.T) {
	s, err := Open(t.TempDir(), 0, telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(s.Dir(), "abc123"+entrySuffix+tempSuffix)
	if err := os.WriteFile(stray, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadAll(0, func(string, *treedecomp.Decomposition, []int) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stray); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("stray temp file must be removed on load")
	}
}

// Keys is served to every peer's repair sweep while the flusher may be
// mid-Save: listing must never remove the temp file of a write that is
// about to be renamed into place.
func TestKeysDuringSavesLeavesWritesAlone(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, err := Open(t.TempDir(), 0, reg)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := testDecomp(t, 91)
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				s.Keys()
			}
		}
	}()
	const saves = 200
	failed := 0
	for i := 0; i < saves; i++ {
		if err := s.Save(fmt.Sprintf("%064x", i), d, nil); err != nil {
			failed++
		}
	}
	close(stop)
	<-done
	if got := reg.Counter("snapshot_save_errors_total").Value(); failed != 0 || got != 0 {
		t.Fatalf("%d of %d saves failed (snapshot_save_errors_total = %d) under concurrent Keys, want 0", failed, saves, got)
	}
	if got := len(s.Keys()); got != saves {
		t.Fatalf("Keys lists %d entries after %d saves", got, saves)
	}
}

// Format v2: the writing request's orig→canonical permutation rides in
// the payload and round-trips exactly, through both the synchronous
// Save path and the staged Enqueue/Flush path; canon-off entries
// round-trip a nil perm.
func TestPermRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), 0, telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	d, key := testDecomp(t, 91)
	perm := rand.New(rand.NewSource(91)).Perm(len(d.Trees[0].LeafOf))
	if err := s.Save(key, d, perm); err != nil {
		t.Fatal(err)
	}
	got, gotPerm, ok := s.Load(key)
	if !ok {
		t.Fatal("entry not found after Save")
	}
	sameDecomp(t, d, got)
	if !reflect.DeepEqual(gotPerm, perm) {
		t.Fatalf("perm round-trip = %v, want %v", gotPerm, perm)
	}

	d2, key2 := testDecomp(t, 92)
	s.Enqueue(key2, d2, perm)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, gotPerm, ok := s.Load(key2); !ok || !reflect.DeepEqual(gotPerm, perm) {
		t.Fatalf("flushed perm = %v (ok=%v), want %v", gotPerm, ok, perm)
	}

	d3, key3 := testDecomp(t, 93)
	if err := s.Save(key3, d3, nil); err != nil {
		t.Fatal(err)
	}
	if _, gotPerm, ok := s.Load(key3); !ok || gotPerm != nil {
		t.Fatalf("canon-off entry perm = %v (ok=%v), want nil", gotPerm, ok)
	}
}

// A pre-canon (format v1) snapshot file — v2 header version rewritten
// to 1 over a v1-shaped payload — is skipped and counted as a version
// mismatch, by both Load and LoadAll, exactly like the stream-version
// case: old generations degrade to a colder start.
func TestV1FormatFilesSkippedAndCounted(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, err := Open(t.TempDir(), 0, reg)
	if err != nil {
		t.Fatal(err)
	}
	d, key := testDecomp(t, 95)
	if err := s.Save(key, d, nil); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(s.entryPath(key))
	if err != nil {
		t.Fatal(err)
	}
	// A v1 payload is the bare decomposition encoding (no perm section).
	v1 := rebuildEntry(encodeDecomposition(d))
	binary.LittleEndian.PutUint32(v1[len(magic):], 1)
	if err := os.WriteFile(s.entryPath(key), v1, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Load(key); ok {
		t.Fatal("v1 entry must not load")
	}
	if got := reg.Counter("snapshot_version_mismatch_total").Value(); got != 1 {
		t.Fatalf("snapshot_version_mismatch_total = %d, want 1", got)
	}
	n := 0
	if err := s.LoadAll(0, func(string, *treedecomp.Decomposition, []int) { n++ }); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("LoadAll surfaced %d v1 entries", n)
	}
	// Restore the v2 bytes: the same file loads again.
	if err := os.WriteFile(s.entryPath(key), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Load(key); !ok {
		t.Fatal("restored v2 entry must load")
	}
}
