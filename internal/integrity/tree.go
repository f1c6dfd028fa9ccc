// Package integrity models the integrity trees that protect counter
// lines in secure-NVM designs: a Bonsai-Merkle-style hash tree (root in
// an on-chip ADR register) and a Phoenix-style tree of counters whose
// nodes carry monotone versions alongside their digests. The tree is
// the detection layer counter-mode encryption lacks — ECC catches
// random media corruption, but a *replayed* counter line (an old value
// with its matching ECC bits) reads back clean, and only a hash chained
// to an on-chip root can reject it.
//
// The package is deliberately small and pure: it imports only the
// standard library and internal/scheme, so both the byte-accurate
// machine (internal/machine) and the timing model (internal/core) can
// layer it in without cycles. All state is explicit and all update
// counts deterministic, preserving the repo-wide byte-identical
// serial-vs-parallel artifact contract.
package integrity

import (
	"maps"

	"supermem/internal/scheme"
)

// LineBytes is the protected line size; it mirrors config.LineSize
// (which this package does not import to stay dependency-free).
const LineBytes = 64

const (
	// Arity is the tree fan-out: eight children per interior node, so
	// each 64 B node holds eight 8 B child digests.
	Arity = 8
	// Depth is the number of levels above the leaves; level 0 is the
	// leaf level, level Depth is the on-chip root. 8^7 leaves cover the
	// counter lines of 2^21 pages — 8 GiB of data, the default
	// configuration's capacity.
	Depth = 7
	// LeafCount is the number of leaf slots (one per counter page).
	LeafCount = 1 << (3 * Depth)
)

// PersistedNodes returns how many tree-node writes one counter persist
// carries to NVM under a persistence level: the whole update path
// below the on-chip root for TreeFull, just the leaf for TreeLeaves.
// The timing model charges this many extra line writes per counter
// enqueue (before coalescing).
func PersistedNodes(l scheme.TreeLevel) int {
	if l == scheme.TreeLeaves {
		return 1
	}
	return Depth
}

// NodeOrdinal returns a dense ordinal for the persisted node at
// (level, index) — level 0 leaves first, then each interior level in
// turn. The timing model maps ordinals to synthetic line addresses
// above the counter region so tree-node writes land on real banks.
func NodeOrdinal(level int, index uint64) uint64 {
	ord := uint64(0)
	for l := 0; l < level; l++ {
		ord += uint64(LeafCount >> (3 * l))
	}
	return ord + index%uint64(LeafCount>>(3*level))
}

// Node is one tree node's persisted payload. Version is meaningful
// under the tree-of-counters design (IntegrityToC), where every update
// bumps the leaf version and interior versions sum their children; the
// BMT design leaves interior versions zero.
type Node struct {
	Version uint64
	Digest  uint64
}

// nodeKey packs an interior node's (level, index) into one map key:
// the level in the top byte, the index below it (an index is under
// LeafCount, far below 2^56). A uint64 key hashes on the runtime's
// fast path, and computeInterior looks up Arity children per level on
// every update and verify. Packed keys also sort level-major, the
// snapshot's record order.
func nodeKey(level uint8, index uint64) uint64 { return uint64(level)<<56 | index }

// splitKey unpacks a nodeKey.
func splitKey(k uint64) (level uint8, index uint64) { return uint8(k >> 56), k & (1<<56 - 1) }

// Stats counts the tree's work. All counts are deterministic functions
// of the update/verify sequence.
type Stats struct {
	// NodeWrites counts persisted tree-node writes (after coalescing):
	// the write-amplification cost of the tree.
	NodeWrites uint64 `json:"node_writes"`
	// Coalesced counts node writes absorbed by the write-combining
	// buffer (Streamlining-style coalescing; zero unless enabled).
	Coalesced uint64 `json:"coalesced,omitempty"`
	// Verifies counts leaf verifications; Mismatches counts failed ones.
	Verifies   uint64 `json:"verifies"`
	Mismatches uint64 `json:"mismatches,omitempty"`
	// RecoveryHashes counts node recomputations performed to rebuild
	// and check the tree after a crash — the recovery-time cost of
	// relaxed tree persistence.
	RecoveryHashes uint64 `json:"recovery_hashes"`
}

// wcbSlots sizes the direct-mapped tree write-combining buffer
// (Streamlining models a small on-chip pipeline of in-flight updates).
const wcbSlots = 16

type wcbEntry struct {
	key   uint64 // a nodeKey
	valid bool
}

// Tree is one machine's integrity tree. Leaves hash counter lines;
// interior nodes hash their children; the root digest (and, for ToC,
// root version) lives in an on-chip ADR register and survives crashes
// by construction. Which *other* nodes survive a crash depends on the
// persistence level: TreeFull persists the whole update path with each
// counter write, TreeLeaves only the leaf.
type Tree struct {
	kind     scheme.IntegrityKind
	level    scheme.TreeLevel
	coalesce bool

	leaves map[uint64]Node
	// interior is keyed by nodeKey.
	interior map[uint64]Node
	// rootDigest/rootVersion are the on-chip ADR register.
	rootDigest  uint64
	rootVersion uint64

	wcb   [wcbSlots]wcbEntry
	stats Stats
}

// New builds an empty tree for an integrity design. It returns nil for
// IntegrityNone so callers can treat "no tree" uniformly.
func New(kind scheme.IntegrityKind, level scheme.TreeLevel, coalesce bool) *Tree {
	if kind == scheme.IntegrityNone {
		return nil
	}
	return &Tree{
		kind:     kind,
		level:    level,
		coalesce: coalesce,
		leaves:   make(map[uint64]Node),
		interior: make(map[uint64]Node),
	}
}

// Clone deep-copies the tree: nodes, the root register, the
// write-combining buffer and the counters (nil for nil).
func (t *Tree) Clone() *Tree {
	if t == nil {
		return nil
	}
	c := *t
	c.leaves = maps.Clone(t.leaves)
	c.interior = maps.Clone(t.interior)
	return &c
}

// Stats returns a copy of the tree's counters (zero value for nil).
func (t *Tree) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	return t.stats
}

// node reads a node; absent nodes are the zero Node, which is also the
// digest contribution of a never-written child.
func (t *Tree) node(level uint8, index uint64) Node {
	if level == 0 {
		return t.leaves[index]
	}
	return t.interior[nodeKey(level, index)]
}

// Update absorbs one counter-line persist: it rewrites the leaf and
// every interior node up to the on-chip root, and accounts the
// persisted node writes per the tree's persistence level. The caller
// guarantees the counter itself persisted atomically (the ADR
// register covers the counter and its tree path together), so Update
// never consumes a separate persistence micro-step.
func (t *Tree) Update(page uint64, line *[LineBytes]byte) {
	if t == nil {
		return
	}
	idx := page & (LeafCount - 1)
	leaf := t.leaves[idx]
	leaf.Version++
	leaf.Digest = leafDigest(t.kind, idx, line, leaf.Version)
	t.leaves[idx] = leaf
	t.persistNode(0, idx)
	child := idx
	for lv := 1; lv <= Depth; lv++ {
		child >>= 3
		n := t.computeInterior(uint8(lv), child)
		if lv == Depth {
			t.rootDigest, t.rootVersion = n.Digest, n.Version
			break
		}
		t.interior[nodeKey(uint8(lv), child)] = n
		if t.level == scheme.TreeFull {
			t.persistNode(uint8(lv), child)
		}
	}
}

// persistNode accounts one tree-node write, absorbing it into the
// write-combining buffer when coalescing is on and the node is already
// pending there.
func (t *Tree) persistNode(level uint8, index uint64) {
	if t.coalesce {
		k := nodeKey(level, index)
		slot := &t.wcb[(uint64(level)*0x9E3779B97F4A7C15+index)%wcbSlots]
		if slot.valid && slot.key == k {
			t.stats.Coalesced++
			return
		}
		*slot = wcbEntry{key: k, valid: true}
	}
	t.stats.NodeWrites++
}

// computeInterior derives the interior node at (level, index) from its
// Arity children: the digest chains the children's (digest, version)
// pairs with the node's own position; the version (ToC only) sums the
// children's versions, making staleness arithmetic.
func (t *Tree) computeInterior(level uint8, index uint64) Node {
	h := fnvOffset
	h = fnvU64(h, uint64(level))
	h = fnvU64(h, index)
	var version uint64
	base := index * Arity
	for i := uint64(0); i < Arity; i++ {
		c := t.node(level-1, base+i)
		h = fnvU64(h, c.Digest)
		h = fnvU64(h, c.Version)
		version += c.Version
	}
	if t.kind != scheme.IntegrityToC {
		version = 0
	}
	return Node{Version: version, Digest: h}
}

// VerifyLeaf checks a fetched counter line against the tree: the leaf
// digest must match the presented bytes and the stored path must chain
// to the on-chip root. A page with no leaf (never persisted through
// the tree) verifies only the all-zero line — the state absent NVM
// reads as. The path is allocation-free: the machine calls this on
// every counter fetch from NVM.
func (t *Tree) VerifyLeaf(page uint64, line *[LineBytes]byte) bool {
	if t == nil {
		return true
	}
	t.stats.Verifies++
	idx := page & (LeafCount - 1)
	leaf, ok := t.leaves[idx]
	if !ok {
		for _, b := range line {
			if b != 0 {
				t.stats.Mismatches++
				return false
			}
		}
		return true
	}
	if leafDigest(t.kind, idx, line, leaf.Version) != leaf.Digest {
		t.stats.Mismatches++
		return false
	}
	child := idx
	for lv := 1; lv <= Depth; lv++ {
		child >>= 3
		n := t.computeInterior(uint8(lv), child)
		var want Node
		if lv == Depth {
			want = Node{Version: t.rootVersion, Digest: t.rootDigest}
		} else {
			want = t.interior[nodeKey(uint8(lv), child)]
		}
		if n != want {
			t.stats.Mismatches++
			return false
		}
	}
	return true
}

// Recovered builds the successor tree a crash leaves behind: leaves
// always survive (each persisted atomically with its counter), the
// interior survives only under TreeFull and is otherwise rebuilt
// bottom-up — with the rebuild work counted in RecoveryHashes — and
// the result is checked against the on-chip root register. ok reports
// whether the recovered tree chains to the root; false means the
// persisted tree state itself was tampered with or lost.
func (t *Tree) Recovered() (n *Tree, ok bool) {
	if t == nil {
		return nil, true
	}
	n = New(t.kind, t.level, t.coalesce)
	maps.Copy(n.leaves, t.leaves)
	n.rootDigest, n.rootVersion = t.rootDigest, t.rootVersion
	if t.level == scheme.TreeFull {
		maps.Copy(n.interior, t.interior)
		// The persisted interior is trusted lazily (verified on use);
		// recovery only recomputes the root from its children and
		// checks the register.
		n.stats.RecoveryHashes = 1
		root := n.computeInterior(Depth, 0)
		return n, root.Digest == t.rootDigest && root.Version == t.rootVersion
	}
	// TreeLeaves: the interior was volatile. Rebuild every interior
	// node above a populated leaf, level by level.
	level := make(map[uint64]bool, len(n.leaves))
	for idx := range n.leaves {
		level[idx>>3] = true
	}
	for lv := 1; lv < Depth; lv++ {
		next := make(map[uint64]bool, len(level))
		for idx := range level {
			n.interior[nodeKey(uint8(lv), idx)] = n.computeInterior(uint8(lv), idx)
			n.stats.RecoveryHashes++
			next[idx>>3] = true
		}
		level = next
	}
	n.stats.RecoveryHashes++
	root := n.computeInterior(Depth, 0)
	return n, root.Digest == t.rootDigest && root.Version == t.rootVersion
}

// FNV-1a 64-bit, inlined (hash/fnv allocates a hash.Hash; the verify
// path must not).
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnvU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xFF)) * fnvPrime
		v >>= 8
	}
	return h
}

// leafDigest hashes one counter line into its leaf: position-bound,
// content-bound, and (for the tree of counters) version-bound.
func leafDigest(kind scheme.IntegrityKind, idx uint64, line *[LineBytes]byte, version uint64) uint64 {
	h := fnvU64(fnvOffset, idx)
	for _, b := range line {
		h = (h ^ uint64(b)) * fnvPrime
	}
	if kind == scheme.IntegrityToC {
		h = fnvU64(h, version)
	}
	return h
}
