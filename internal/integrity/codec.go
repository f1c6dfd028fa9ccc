package integrity

// The SMIT1 encoding writes a tree's *persisted* image — exactly the
// node set a crash leaves behind plus the on-chip root register — in a
// canonical fixed-width binary form. The fault experiments take its
// length as the persisted tree bytes per scheme, and tests compare
// encodings to assert that two runs persist the identical tree. Nothing
// reads an image back, so there is no decoder.

import (
	"encoding/binary"
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

func b2u(b bool) byte {
	if b {
		return 1
	}
	return 0
}
