package diskstore

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"hierpart/internal/faultinject"
	"hierpart/internal/telemetry"
	"hierpart/internal/treedecomp"
)

// Entry file layout: a fixed header followed by the encoded payload.
//
//	magic           8 bytes  "HGPSNAP\x01"
//	format version  uint32   formatVersion
//	stream version  uint32   treedecomp.RNGStreamVersion at write time
//	payload length  uint64
//	payload sha256  32 bytes
//	payload         <length> bytes (encode.go)
//
// The stream version rides in every entry so a daemon built against a
// different randomness stream rejects the whole snapshot generation:
// serving another stream's trees would silently break the "same key ⇒
// same distribution" contract the cache is built on.
//
// Format history: v1 payloads held a bare decomposition; v2 (the
// canonical-fingerprinting release) prepends the writing request's
// orig→canonical vertex permutation. v1 files are skipped-and-counted
// on load exactly like any other version mismatch — a pre-canon
// snapshot generation degrades to a colder start, never a failed one.
const (
	magic         = "HGPSNAP\x01"
	formatVersion = 2
	headerLen     = len(magic) + 4 + 4 + 8 + sha256.Size

	entrySuffix = ".snap"
	tempSuffix  = ".tmp"
)

// Store is a content-addressed on-disk snapshot of a decomposition
// cache: one file per entry, named by the entry's canonical SHA-256
// cache key. Writes are atomic (temp file, fsync, rename), reads
// validate a versioned header and a payload checksum, and anything
// that fails validation is skipped — never served, never fatal.
type Store struct {
	dir string
	reg *telemetry.Registry

	// maxEntries bounds the on-disk generation; older entries beyond it
	// are pruned at flush time. ≤ 0 means unbounded.
	maxEntries int

	mu        sync.Mutex
	pending   map[string]pendingEntry
	lastFlush time.Time
	bytes     int64
	entries   int

	flushCh chan struct{}
	stopCh  chan struct{}
	doneCh  chan struct{}
}

// Open prepares dir as a snapshot store (creating it if needed).
// maxEntries bounds how many entries the store keeps on disk; reg
// (nil means telemetry.Default) receives the store's counters and
// gauges. No background work starts until StartFlusher.
func Open(dir string, maxEntries int, reg *telemetry.Registry) (*Store, error) {
	if reg == nil {
		reg = telemetry.Default
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	s := &Store{
		dir:        dir,
		reg:        reg,
		maxEntries: maxEntries,
		pending:    map[string]pendingEntry{},
	}
	s.refreshAccounting()
	return s, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// entryPath maps a cache key to its snapshot file. Keys are hex SHA-256
// digests; anything else would be a caller bug, but sanitize anyway so
// a corrupted key can never escape the store directory.
func (s *Store) entryPath(key string) string {
	clean := strings.Map(func(r rune) rune {
		switch {
		case r >= '0' && r <= '9', r >= 'a' && r <= 'f', r >= 'A' && r <= 'F':
			return r
		}
		return -1
	}, key)
	return filepath.Join(s.dir, clean+entrySuffix)
}

// pendingEntry is one staged write: the decomposition plus the writing
// request's orig→canonical permutation (nil when canon was off).
type pendingEntry struct {
	d    *treedecomp.Decomposition
	perm []int
}

// Save writes one entry atomically: encode, write to a temp file, fsync,
// rename over the final name, fsync the directory. A crash at any point
// leaves either the old entry, no entry, or a stray temp file (ignored,
// and removed by LoadAll) — never a half-written entry under the final
// name — and once Save returns the entry survives power loss, not just
// process death. perm is the writing request's orig→canonical vertex
// permutation; pass nil for label-sensitive (canon-off) entries.
func (s *Store) Save(key string, d *treedecomp.Decomposition, perm []int) error {
	payload := EncodeDecompEntry(d, perm)
	if err := faultinject.Fire(nil, faultinject.DiskWrite); err != nil {
		s.reg.Counter("snapshot_save_errors_total").Inc()
		return fmt.Errorf("diskstore: write %s: %w", key, err)
	}

	buf := WrapWire(payload)
	final := s.entryPath(key)
	if err := commitFile(s.dir, final, buf); err != nil {
		s.reg.Counter("snapshot_save_errors_total").Inc()
		os.Remove(final + tempSuffix)
		return fmt.Errorf("diskstore: write %s: %w", key, err)
	}
	s.reg.Counter("snapshot_saved_total").Inc()
	return nil
}

// commitFile is the atomic durable-write sequence shared by snapshot
// entries and session files: write to a temp file, fsync it, rename
// over the final name, fsync the directory. A crash at any point
// leaves either the old file, no file, or a stray temp file (removed
// on the next load) — never a half-written file under the final name.
// The faultinject.DiskSync hook fires before the fsync so injected
// faults exercise the window where only the temp file exists.
func commitFile(dir, final string, buf []byte) error {
	tmp := final + tempSuffix
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	if err := faultinject.Fire(nil, faultinject.DiskSync); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	// The rename is only crash-durable once the directory entry itself is
	// on disk; without this a power loss can forget a "saved" entry even
	// though its contents were fsynced.
	return syncDirPath(dir)
}

// syncDir fsyncs the store directory so renames and removals survive
// power loss, not just process death.
func (s *Store) syncDir() error { return syncDirPath(s.dir) }

func syncDirPath(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Load reads and validates one entry, returning the decomposition and
// the stored orig→canonical permutation (nil for canon-off entries).
// The boolean reports whether a valid entry was found; invalid entries
// (corrupt, truncated, version mismatch) return false with the
// per-reason counters ticked, exactly like LoadAll, so callers treat
// them as cache misses.
func (s *Store) Load(key string) (*treedecomp.Decomposition, []int, bool) {
	d, perm, err := s.loadFile(s.entryPath(key))
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			s.skip(err)
		}
		return nil, nil, false
	}
	return d, perm, true
}

// ErrVersionMismatch tags entries written under a different format or
// RNG-stream version — structurally sound, but not this binary's to
// serve.
var ErrVersionMismatch = errors.New("version mismatch")

func (s *Store) loadFile(path string) (*treedecomp.Decomposition, []int, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	payload, err := UnwrapWire(raw)
	if err != nil {
		return nil, nil, fmt.Errorf("diskstore: %s: %w", filepath.Base(path), err)
	}
	return DecodeDecompEntry(payload)
}

// WrapWire frames payload with the store's content-addressed header:
// magic, format version, the binary's treedecomp.RNGStreamVersion,
// payload length, and a SHA-256 checksum of the payload. The same
// framing serves two transports — snapshot files on disk and the
// cluster's internal peer-fetch wire format — so a body that arrives
// over the network is validated by exactly the code path that guards a
// snapshot file.
func WrapWire(payload []byte) []byte {
	buf := make([]byte, 0, headerLen+len(payload))
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint32(buf, formatVersion)
	buf = binary.LittleEndian.AppendUint32(buf, treedecomp.RNGStreamVersion)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	sum := sha256.Sum256(payload)
	buf = append(buf, sum[:]...)
	buf = append(buf, payload...)
	return buf
}

// UnwrapWire validates a WrapWire frame — magic, format and RNG-stream
// versions, length, checksum — and returns the payload. Version skew is
// reported as ErrVersionMismatch so callers can count it apart from
// corruption; both outcomes mean "do not trust these bytes".
func UnwrapWire(raw []byte) ([]byte, error) {
	if len(raw) < headerLen {
		return nil, fmt.Errorf("truncated header (%d bytes)", len(raw))
	}
	if string(raw[:len(magic)]) != magic {
		return nil, fmt.Errorf("bad magic")
	}
	off := len(magic)
	format := binary.LittleEndian.Uint32(raw[off:])
	stream := binary.LittleEndian.Uint32(raw[off+4:])
	plen := binary.LittleEndian.Uint64(raw[off+8:])
	if format != formatVersion || stream != treedecomp.RNGStreamVersion {
		return nil, fmt.Errorf("format %d stream %d, want %d/%d: %w",
			format, stream, formatVersion, treedecomp.RNGStreamVersion, ErrVersionMismatch)
	}
	var sum [sha256.Size]byte
	copy(sum[:], raw[off+16:])
	payload := raw[headerLen:]
	if uint64(len(payload)) != plen {
		return nil, fmt.Errorf("payload %d bytes, header says %d", len(payload), plen)
	}
	if sha256.Sum256(payload) != sum {
		return nil, fmt.Errorf("checksum mismatch")
	}
	return payload, nil
}

// skip records one skipped-as-invalid entry: version skew gets its own
// counter, everything else is corruption.
func (s *Store) skip(err error) {
	if errors.Is(err, ErrVersionMismatch) {
		s.reg.Counter("snapshot_version_mismatch_total").Inc()
	} else {
		s.reg.Counter("snapshot_corrupt_total").Inc()
	}
}

// LoadAll streams every valid entry to fn, newest first, stopping after
// limit entries (≤ 0 means all). Corrupt, truncated, or version-
// mismatched entries are skipped with a counter — a damaged snapshot
// directory degrades to a colder start, never a failed one. Stray temp
// files from interrupted writes are removed; this is the only place
// that does so, because LoadAll is the startup path that runs before
// StartFlusher — anywhere else a temp file may be a Save in flight.
func (s *Store) LoadAll(limit int, fn func(key string, d *treedecomp.Decomposition, perm []int)) error {
	dirents, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	for _, de := range dirents {
		if strings.HasSuffix(de.Name(), tempSuffix) {
			os.Remove(filepath.Join(s.dir, de.Name()))
		}
	}
	files, err := s.listEntries()
	if err != nil {
		return err
	}
	loaded := 0
	for _, f := range files {
		if limit > 0 && loaded >= limit {
			break
		}
		d, perm, err := s.loadFile(filepath.Join(s.dir, f.name))
		if err != nil {
			s.skip(err)
			continue
		}
		fn(strings.TrimSuffix(f.name, entrySuffix), d, perm)
		loaded++
		s.reg.Counter("snapshot_loaded_total").Inc()
	}
	s.refreshAccounting()
	return nil
}

// Keys lists the cache keys of every entry currently on disk, newest
// first, without reading or validating payloads — the cheap digest
// listing the anti-entropy sweep exchanges over GET /v1/peer/keys.
// Keys are content addresses, so a listed key whose payload later
// fails validation is simply not served; the listing itself never
// lies about identity.
func (s *Store) Keys() []string {
	files, err := s.listEntries()
	if err != nil {
		return nil
	}
	keys := make([]string, 0, len(files))
	for _, f := range files {
		keys = append(keys, strings.TrimSuffix(f.name, entrySuffix))
	}
	return keys
}

// Has reports whether an entry for key exists on disk, by stat alone —
// no payload read or validation. Repair uses it as the cheap "local
// miss?" test; serving still goes through Load's full gauntlet.
func (s *Store) Has(key string) bool {
	_, err := os.Stat(s.entryPath(key))
	return err == nil
}

type entryFile struct {
	name  string
	mtime time.Time
	size  int64
}

// listEntries returns the snapshot entries newest-first. Temp files and
// directories are skipped, never touched.
func (s *Store) listEntries() ([]entryFile, error) {
	dirents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	var files []entryFile
	for _, de := range dirents {
		name := de.Name()
		if !strings.HasSuffix(name, entrySuffix) || de.IsDir() {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		files = append(files, entryFile{name: name, mtime: info.ModTime(), size: info.Size()})
	}
	sort.Slice(files, func(i, j int) bool {
		if !files[i].mtime.Equal(files[j].mtime) {
			return files[i].mtime.After(files[j].mtime)
		}
		return files[i].name < files[j].name
	})
	return files, nil
}

// refreshAccounting recounts the on-disk generation into the
// snapshot_entries / snapshot_bytes gauges.
func (s *Store) refreshAccounting() {
	files, err := s.listEntries()
	if err != nil {
		return
	}
	var bytes int64
	for _, f := range files {
		bytes += f.size
	}
	s.mu.Lock()
	s.entries, s.bytes = len(files), bytes
	s.mu.Unlock()
	s.reg.Gauge("snapshot_entries").Set(int64(len(files)))
	s.reg.Gauge("snapshot_bytes").Set(bytes)
}

// prune deletes the oldest entries beyond maxEntries.
func (s *Store) prune() {
	if s.maxEntries <= 0 {
		return
	}
	files, err := s.listEntries()
	if err != nil {
		return
	}
	pruned := files[min(len(files), s.maxEntries):]
	for _, f := range pruned {
		os.Remove(filepath.Join(s.dir, f.name))
	}
	if len(pruned) > 0 {
		_ = s.syncDir() // make the deletions crash-durable too
	}
}

// Enqueue schedules an entry for the background flusher. It never
// blocks the serving path: the entry is staged in memory and written at
// the next flush tick (or Flush call). Without a running flusher the
// entry simply waits for an explicit Flush. perm follows the Save
// contract (nil for canon-off entries).
func (s *Store) Enqueue(key string, d *treedecomp.Decomposition, perm []int) {
	s.mu.Lock()
	s.pending[key] = pendingEntry{d: d, perm: perm}
	s.mu.Unlock()
	select {
	case s.flushChan() <- struct{}{}:
	default:
	}
}

func (s *Store) flushChan() chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.flushCh == nil {
		s.flushCh = make(chan struct{}, 1)
	}
	return s.flushCh
}

// Flush writes every staged entry now and prunes the generation to
// maxEntries. It returns the first write error (later entries are still
// attempted). Entries whose write failed are re-staged for the next
// flush — a transient error (ENOSPC, an injected disk fault) delays
// durability rather than silently dropping the entry — unless a newer
// Enqueue for the same key superseded them in the meantime.
func (s *Store) Flush() error {
	s.mu.Lock()
	batch := s.pending
	s.pending = map[string]pendingEntry{}
	s.mu.Unlock()

	var firstErr error
	var failed []string
	keys := make([]string, 0, len(batch))
	for k := range batch {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if err := s.Save(k, batch[k].d, batch[k].perm); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			failed = append(failed, k)
		}
	}
	if len(failed) > 0 {
		s.mu.Lock()
		for _, k := range failed {
			if _, superseded := s.pending[k]; !superseded {
				s.pending[k] = batch[k]
			}
		}
		s.mu.Unlock()
	}
	if len(batch) > 0 {
		s.prune()
	}
	s.refreshAccounting()
	s.mu.Lock()
	s.lastFlush = time.Now()
	s.mu.Unlock()
	return firstErr
}

// StartFlusher runs a background goroutine that batches Enqueue'd
// entries and writes them at most once per interval. Call Close to stop
// it (with a final flush).
func (s *Store) StartFlusher(interval time.Duration) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	s.mu.Lock()
	if s.stopCh != nil {
		s.mu.Unlock()
		return // already running
	}
	s.stopCh = make(chan struct{})
	s.doneCh = make(chan struct{})
	stop, done := s.stopCh, s.doneCh
	s.mu.Unlock()
	kick := s.flushChan()
	go func() {
		defer close(done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-kick:
				// Coalesce: wait out the rest of the interval so a burst
				// of inserts becomes one write batch, not N.
				select {
				case <-time.After(interval):
				case <-stop:
					return
				}
				_ = s.Flush()
			case <-ticker.C:
				_ = s.Flush()
			}
		}
	}()
}

// Close stops the flusher (if running) and performs a final synchronous
// flush so no staged entry is lost on a graceful shutdown.
func (s *Store) Close() error {
	s.mu.Lock()
	stop, done := s.stopCh, s.doneCh
	s.stopCh, s.doneCh = nil, nil
	s.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	return s.Flush()
}

// Stats is a point-in-time view of the store.
type Stats struct {
	Entries   int       `json:"entries"`
	Bytes     int64     `json:"bytes"`
	Pending   int       `json:"pending"`
	LastFlush time.Time `json:"last_flush"`
}

// Stats reports the store's accounting. Callers exposing it as metrics
// typically also derive an age gauge from LastFlush.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{Entries: s.entries, Bytes: s.bytes, Pending: len(s.pending), LastFlush: s.lastFlush}
}
