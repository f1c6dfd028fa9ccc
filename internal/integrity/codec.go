package integrity

// The SMIT1 codec serializes a tree's *persisted* image — exactly the
// node set a crash leaves behind plus the on-chip root register — in a
// canonical fixed-width binary form. The bench harness embeds snapshot
// sizes in artifacts (persisted tree bytes per scheme) and tests use
// the round-trip to assert that serial and parallel runs persist the
// identical tree. Like the fault package's SMFP1 codec, decoding is
// strict: bad magic, unknown kinds or levels, out-of-range indices,
// unsorted records, truncation, and trailing garbage are all errors,
// and every valid byte stream is a fixed point of Decode ∘ Encode.

import (
	"encoding/binary"
	"fmt"
	"sort"

	"supermem/internal/scheme"
)

// snapshotMagic identifies the format; bump the digit on layout change.
const snapshotMagic = "SMIT1"

const (
	leafRec     = 24 // index u64, version u64, digest u64
	interiorRec = 25 // level u8, index u64, version u64, digest u64
)

// EncodeSnapshot serializes the tree's persisted image. The encoding
// is canonical: records are sorted, so equal persisted states encode
// to equal bytes. A nil tree encodes to nil.
func (t *Tree) EncodeSnapshot() []byte {
	if t == nil {
		return nil
	}
	leaves := make([]uint64, 0, len(t.leaves))
	for idx := range t.leaves {
		leaves = append(leaves, idx)
	}
	sort.Slice(leaves, func(a, b int) bool { return leaves[a] < leaves[b] })

	var interior []uint64
	if t.level == scheme.TreeFull {
		interior = make([]uint64, 0, len(t.interior))
		for k := range t.interior {
			interior = append(interior, k)
		}
		// Packed keys sort level-major, then by index.
		sort.Slice(interior, func(a, b int) bool { return interior[a] < interior[b] })
	}

	out := make([]byte, 0, len(snapshotMagic)+3+16+8+len(leaves)*leafRec+len(interior)*interiorRec)
	out = append(out, snapshotMagic...)
	out = append(out, byte(t.kind), byte(t.level), b2u(t.coalesce))
	out = binary.LittleEndian.AppendUint64(out, t.rootVersion)
	out = binary.LittleEndian.AppendUint64(out, t.rootDigest)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(leaves)))
	for _, idx := range leaves {
		n := t.leaves[idx]
		out = binary.LittleEndian.AppendUint64(out, idx)
		out = binary.LittleEndian.AppendUint64(out, n.Version)
		out = binary.LittleEndian.AppendUint64(out, n.Digest)
	}
	out = binary.LittleEndian.AppendUint32(out, uint32(len(interior)))
	for _, k := range interior {
		n := t.interior[k]
		level, index := splitKey(k)
		out = append(out, level)
		out = binary.LittleEndian.AppendUint64(out, index)
		out = binary.LittleEndian.AppendUint64(out, n.Version)
		out = binary.LittleEndian.AppendUint64(out, n.Digest)
	}
	return out
}

// DecodeSnapshot parses a persisted tree image. Every structural
// violation is an error; the successfully decoded tree re-encodes to
// the identical bytes.
func DecodeSnapshot(data []byte) (*Tree, error) {
	r := reader{buf: data}
	magic := r.take(len(snapshotMagic))
	if string(magic) != snapshotMagic {
		return nil, fmt.Errorf("integrity: bad snapshot magic %q", magic)
	}
	hdr := r.take(3)
	if hdr == nil {
		return nil, fmt.Errorf("integrity: truncated snapshot header")
	}
	kind := scheme.IntegrityKind(hdr[0])
	if kind != scheme.IntegrityBMT && kind != scheme.IntegrityToC {
		return nil, fmt.Errorf("integrity: snapshot kind %d is not a tree design", hdr[0])
	}
	level := scheme.TreeLevel(hdr[1])
	if level != scheme.TreeFull && level != scheme.TreeLeaves {
		return nil, fmt.Errorf("integrity: unknown tree level %d", hdr[1])
	}
	if hdr[2] > 1 {
		return nil, fmt.Errorf("integrity: coalesce flag %d is not a bool", hdr[2])
	}
	t := New(kind, level, hdr[2] == 1)
	var ok bool
	if t.rootVersion, ok = r.u64(); !ok {
		return nil, fmt.Errorf("integrity: truncated root register")
	}
	if t.rootDigest, ok = r.u64(); !ok {
		return nil, fmt.Errorf("integrity: truncated root register")
	}

	leafCount, ok := r.u32()
	if !ok || int(leafCount)*leafRec > r.remaining() {
		return nil, fmt.Errorf("integrity: leaf table larger than snapshot")
	}
	prev, first := uint64(0), true
	for i := 0; i < int(leafCount); i++ {
		idx, _ := r.u64()
		version, _ := r.u64()
		digest, ok := r.u64()
		if !ok {
			return nil, fmt.Errorf("integrity: truncated leaf record %d", i)
		}
		if idx >= LeafCount {
			return nil, fmt.Errorf("integrity: leaf index %d beyond capacity %d", idx, LeafCount)
		}
		if !first && idx <= prev {
			return nil, fmt.Errorf("integrity: leaf records not strictly ascending at %d", idx)
		}
		prev, first = idx, false
		t.leaves[idx] = Node{Version: version, Digest: digest}
	}

	intCount, ok := r.u32()
	if !ok || int(intCount)*interiorRec > r.remaining() {
		return nil, fmt.Errorf("integrity: interior table larger than snapshot")
	}
	if intCount > 0 && level != scheme.TreeFull {
		return nil, fmt.Errorf("integrity: leaf-persisted snapshot carries %d interior nodes", intCount)
	}
	var prevKey uint64
	first = true
	for i := 0; i < int(intCount); i++ {
		lvb := r.take(1)
		idx, _ := r.u64()
		version, _ := r.u64()
		digest, ok := r.u64()
		if lvb == nil || !ok {
			return nil, fmt.Errorf("integrity: truncated interior record %d", i)
		}
		lv := lvb[0]
		if lv < 1 || lv >= Depth {
			return nil, fmt.Errorf("integrity: interior level %d outside [1,%d)", lv, Depth)
		}
		if idx >= uint64(LeafCount>>(3*int(lv))) {
			return nil, fmt.Errorf("integrity: interior index %d beyond level-%d capacity", idx, lv)
		}
		k := nodeKey(lv, idx)
		if !first && k <= prevKey {
			return nil, fmt.Errorf("integrity: interior records not strictly ascending at (%d,%d)", lv, idx)
		}
		prevKey, first = k, false
		t.interior[k] = Node{Version: version, Digest: digest}
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("integrity: %d trailing bytes after snapshot", r.remaining())
	}
	return t, nil
}

// reader is a bounds-checked cursor over the snapshot bytes.
type reader struct {
	buf []byte
	off int
}

func (r *reader) remaining() int { return len(r.buf) - r.off }

func (r *reader) take(n int) []byte {
	if r.remaining() < n {
		r.off = len(r.buf)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u32() (uint32, bool) {
	b := r.take(4)
	if b == nil {
		return 0, false
	}
	return binary.LittleEndian.Uint32(b), true
}

func (r *reader) u64() (uint64, bool) {
	b := r.take(8)
	if b == nil {
		return 0, false
	}
	return binary.LittleEndian.Uint64(b), true
}

func b2u(b bool) byte {
	if b {
		return 1
	}
	return 0
}
