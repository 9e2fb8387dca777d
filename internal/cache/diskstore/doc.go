// Package diskstore persists decomposition-cache entries across process
// lifetimes: a content-addressed directory of snapshot files, one per
// canonical SHA-256 cache key, that lets a killed-and-restarted hgpd
// serve its first repeat request from a warm cache instead of redoing
// the expensive Räcke-style embedding phase.
//
// Durability model: entries are written atomically (temp file → fsync →
// rename), carry a versioned header (format + treedecomp RNG-stream
// version) plus a payload checksum, and anything that fails validation
// on load — corrupt, truncated, or written by a different stream
// version — is skipped with a counter, never served and never fatal.
// A background flusher batches writes off the serving path; Flush and
// Close force synchronous writes for clean shutdowns. The store prunes
// itself to a bounded number of entries.
//
// Format v2 entries carry the writing request's submission→canonical
// vertex permutation alongside the decomposition (empty for an entry
// keyed by a labelled form), so canonical-space cache entries
// round-trip across restarts; v1 files hit the ordinary
// version-mismatch skip path.
package diskstore
