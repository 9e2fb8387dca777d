package diskstore

import (
	"encoding/binary"
	"fmt"
	"math"

	"hierpart/internal/tree"
	"hierpart/internal/treedecomp"
)

// The payload encoding is a canonical little-endian serialization of a
// snapshot entry. Canonical matters: equal entries encode to equal
// bytes, so the restart tests can assert bit-identity by comparing
// encodings, and the entry checksum covers exactly the information the
// solver will consume.
//
// Format v2 entry layout:
//
//	uint32  perm length (0 = canon-off entry, no permutation)
//	per vertex: uint32 canonical label (the orig→canonical permutation
//	            of the request that wrote the entry)
//	uint32  tree count
//	per tree:
//	  uint32  node count n
//	  per node v in 1..n-1: uint32 parent, float64 bits parent-edge weight
//	  per node v in 0..n-1: float64 bits demand, int64 label
//	  uint32  len(LeafOf)
//	  per vertex: uint32 leaf node
//
// Infinite edge weights (binarization dummies) survive the float64-bits
// round trip; NaN weights are invalid in a tree and rejected on decode.

// EncodeDecompEntry prepends the permutation section to the decomposition
// encoding. A nil/empty perm encodes as length 0 and decodes back to
// nil.
func EncodeDecompEntry(d *treedecomp.Decomposition, perm []int) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(perm)))
	for _, c := range perm {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c))
	}
	return append(buf, encodeDecomposition(d)...)
}

// DecodeDecompEntry parses the permutation section, then hands the rest
// to decodeDecomposition. Readers translate through their own request's
// permutation, never this one (cache.DecompEntry), but the bytes come
// from disk and peers: a section that is not a true permutation marks a
// damaged or forged payload, rejected rather than re-served and
// re-persisted.
func DecodeDecompEntry(buf []byte) (*treedecomp.Decomposition, []int, error) {
	if len(buf) < 4 {
		return nil, nil, fmt.Errorf("diskstore: truncated payload at byte 0")
	}
	n := binary.LittleEndian.Uint32(buf)
	buf = buf[4:]
	if uint64(len(buf)) < uint64(n)*4 {
		return nil, nil, fmt.Errorf("diskstore: implausible perm length %d for %d payload bytes", n, len(buf))
	}
	var perm []int
	if n > 0 {
		perm = make([]int, n)
		seen := make([]bool, n)
		for v := range perm {
			c := binary.LittleEndian.Uint32(buf[v*4:])
			if c >= n || seen[c] {
				return nil, nil, fmt.Errorf("diskstore: perm[%d]=%d is not a valid permutation entry", v, c)
			}
			seen[c] = true
			perm[v] = int(c)
		}
		buf = buf[n*4:]
	}
	d, err := decodeDecomposition(buf)
	if err != nil {
		return nil, nil, err
	}
	return d, perm, nil
}

func encodeDecomposition(d *treedecomp.Decomposition) []byte {
	var buf []byte
	w32 := func(v uint32) { buf = binary.LittleEndian.AppendUint32(buf, v) }
	w64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	w32(uint32(len(d.Trees)))
	for _, dt := range d.Trees {
		n := dt.T.N()
		w32(uint32(n))
		for v := 1; v < n; v++ {
			w32(uint32(dt.T.Parent(v)))
			w64(math.Float64bits(dt.T.EdgeWeight(v)))
		}
		for v := 0; v < n; v++ {
			w64(math.Float64bits(dt.T.Demand(v)))
			w64(uint64(dt.T.Label(v)))
		}
		w32(uint32(len(dt.LeafOf)))
		for _, leaf := range dt.LeafOf {
			w32(uint32(leaf))
		}
	}
	return buf
}

// decodeDecomposition parses and validates an encoded payload. Every
// structural invariant is checked before the tree package sees a value
// (it panics on violations; corrupt bytes must surface as errors), and
// counts are bounded by the remaining payload so a corrupt length field
// cannot demand an absurd allocation.
func decodeDecomposition(buf []byte) (*treedecomp.Decomposition, error) {
	off := 0
	r32 := func() (uint32, error) {
		if off+4 > len(buf) {
			return 0, fmt.Errorf("diskstore: truncated payload at byte %d", off)
		}
		v := binary.LittleEndian.Uint32(buf[off:])
		off += 4
		return v, nil
	}
	r64 := func() (uint64, error) {
		if off+8 > len(buf) {
			return 0, fmt.Errorf("diskstore: truncated payload at byte %d", off)
		}
		v := binary.LittleEndian.Uint64(buf[off:])
		off += 8
		return v, nil
	}

	nTrees, err := r32()
	if err != nil {
		return nil, err
	}
	// Each tree costs ≥ 8 bytes of payload; reject counts the payload
	// cannot possibly hold.
	if int(nTrees) > len(buf)/8+1 {
		return nil, fmt.Errorf("diskstore: implausible tree count %d for %d payload bytes", nTrees, len(buf))
	}
	d := &treedecomp.Decomposition{Trees: make([]*treedecomp.DecompTree, 0, nTrees)}
	for ti := 0; ti < int(nTrees); ti++ {
		n, err := r32()
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return nil, fmt.Errorf("diskstore: tree %d has no nodes", ti)
		}
		if int(n) > (len(buf)-off)/12+1 {
			return nil, fmt.Errorf("diskstore: implausible node count %d", n)
		}
		parents := make([]int, n)
		weights := make([]float64, n)
		for v := 1; v < int(n); v++ {
			p, err := r32()
			if err != nil {
				return nil, err
			}
			wb, err := r64()
			if err != nil {
				return nil, err
			}
			w := math.Float64frombits(wb)
			if int(p) >= v {
				return nil, fmt.Errorf("diskstore: tree %d node %d: parent %d does not precede it", ti, v, p)
			}
			if w < 0 || math.IsNaN(w) {
				return nil, fmt.Errorf("diskstore: tree %d node %d: invalid edge weight %v", ti, v, w)
			}
			parents[v], weights[v] = int(p), w
		}
		t := tree.New()
		t.Grow(int(n) - 1)
		for v := 1; v < int(n); v++ {
			t.AddChild(parents[v], weights[v])
		}
		demands := make([]float64, n)
		for v := 0; v < int(n); v++ {
			db, err := r64()
			if err != nil {
				return nil, err
			}
			lb, err := r64()
			if err != nil {
				return nil, err
			}
			dem := math.Float64frombits(db)
			if math.IsNaN(dem) || dem < 0 {
				return nil, fmt.Errorf("diskstore: tree %d node %d: invalid demand %v", ti, v, dem)
			}
			if dem != 0 && !t.IsLeaf(v) {
				return nil, fmt.Errorf("diskstore: tree %d node %d: internal node carries demand %v", ti, v, dem)
			}
			demands[v] = dem
			t.SetLabel(v, int(int64(lb)))
		}
		for v := 0; v < int(n); v++ {
			if t.IsLeaf(v) {
				t.SetDemand(v, demands[v])
			}
		}
		nLeaf, err := r32()
		if err != nil {
			return nil, err
		}
		if int(nLeaf) > (len(buf)-off)/4+1 {
			return nil, fmt.Errorf("diskstore: implausible vertex count %d", nLeaf)
		}
		leafOf := make([]int, nLeaf)
		for v := range leafOf {
			leaf, err := r32()
			if err != nil {
				return nil, err
			}
			if int(leaf) >= int(n) || !t.IsLeaf(int(leaf)) {
				return nil, fmt.Errorf("diskstore: vertex %d maps to non-leaf node %d", v, leaf)
			}
			if t.Label(int(leaf)) != v {
				return nil, fmt.Errorf("diskstore: leaf %d labelled %d, expected vertex %d", leaf, t.Label(int(leaf)), v)
			}
			leafOf[v] = int(leaf)
		}
		if err := t.Validate(); err != nil {
			return nil, fmt.Errorf("diskstore: tree %d: %w", ti, err)
		}
		d.Trees = append(d.Trees, &treedecomp.DecompTree{T: t, LeafOf: leafOf})
	}
	if off != len(buf) {
		return nil, fmt.Errorf("diskstore: %d trailing bytes after payload", len(buf)-off)
	}
	return d, nil
}
