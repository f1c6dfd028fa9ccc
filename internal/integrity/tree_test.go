package integrity

import (
	"bytes"
	"reflect"
	"testing"

	"supermem/internal/scheme"
)

// designs enumerates the three registered tree configurations.
var designs = []struct {
	name     string
	kind     scheme.IntegrityKind
	level    scheme.TreeLevel
	coalesce bool
}{
	{"bmt-full", scheme.IntegrityBMT, scheme.TreeFull, false},
	{"bmt-leaves", scheme.IntegrityBMT, scheme.TreeLeaves, false},
	{"toc", scheme.IntegrityToC, scheme.TreeFull, true},
}

func lineWith(b byte) [LineBytes]byte {
	var l [LineBytes]byte
	for i := range l {
		l[i] = b + byte(i)
	}
	return l
}

func TestNoneHasNoTree(t *testing.T) {
	if tr := New(scheme.IntegrityNone, scheme.TreeFull, false); tr != nil {
		t.Fatalf("IntegrityNone built a tree: %+v", tr)
	}
	var nilTree *Tree
	l := lineWith(1)
	nilTree.Update(1, &l)
	if !nilTree.VerifyLeaf(1, &l) {
		t.Fatal("nil tree must verify everything")
	}
	if rec, ok := nilTree.Recovered(); rec != nil || !ok {
		t.Fatal("nil tree must recover to nil, ok")
	}
	if nilTree.EncodeSnapshot() != nil {
		t.Fatal("nil tree must encode to nil")
	}
}

func TestUpdateThenVerify(t *testing.T) {
	for _, d := range designs {
		t.Run(d.name, func(t *testing.T) {
			tr := New(d.kind, d.level, d.coalesce)
			lines := map[uint64][LineBytes]byte{}
			for page := uint64(0); page < 40; page++ {
				l := lineWith(byte(page))
				tr.Update(page, &l)
				lines[page] = l
			}
			// Overwrites: the tree must track the latest value.
			for page := uint64(0); page < 10; page++ {
				l := lineWith(byte(page) ^ 0xA5)
				tr.Update(page, &l)
				lines[page] = l
			}
			for page, l := range lines {
				if !tr.VerifyLeaf(page, &l) {
					t.Fatalf("page %d: current line failed verification", page)
				}
			}
			st := tr.Stats()
			if st.Mismatches != 0 {
				t.Fatalf("clean verifies produced %d mismatches", st.Mismatches)
			}
		})
	}
}

func TestVerifyRejectsCorruptionAndReplay(t *testing.T) {
	for _, d := range designs {
		t.Run(d.name, func(t *testing.T) {
			tr := New(d.kind, d.level, d.coalesce)
			old := lineWith(3)
			tr.Update(7, &old)
			cur := lineWith(9)
			tr.Update(7, &cur)

			bad := cur
			bad[17] ^= 0x40 // single-bit corruption
			if tr.VerifyLeaf(7, &bad) {
				t.Fatal("corrupted line verified")
			}
			if tr.VerifyLeaf(7, &old) {
				t.Fatal("replayed (stale) line verified")
			}
			var zero [LineBytes]byte
			if tr.VerifyLeaf(7, &zero) {
				t.Fatal("rolled-back-to-zero line verified")
			}
			if !tr.VerifyLeaf(7, &cur) {
				t.Fatal("current line must still verify")
			}
			// Never-updated pages accept only the zero line.
			if !tr.VerifyLeaf(1000, &zero) {
				t.Fatal("zero line on untouched page must verify")
			}
			if tr.VerifyLeaf(1000, &cur) {
				t.Fatal("nonzero line on untouched page verified")
			}
			if tr.Stats().Mismatches != 4 {
				t.Fatalf("mismatch count = %d, want 4", tr.Stats().Mismatches)
			}
		})
	}
}

// TestNodeWriteAccounting pins the write-amplification contract:
// persisting the full path writes Depth nodes per counter persist
// (root excluded — it lives on-chip), leaf persistence writes one.
func TestNodeWriteAccounting(t *testing.T) {
	const updates = 25
	full := New(scheme.IntegrityBMT, scheme.TreeFull, false)
	leaves := New(scheme.IntegrityBMT, scheme.TreeLeaves, false)
	for page := uint64(0); page < updates; page++ {
		l := lineWith(byte(page))
		full.Update(page*31, &l) // spread across the leaf space
		leaves.Update(page*31, &l)
	}
	if got, want := full.Stats().NodeWrites, uint64(updates*Depth); got != want {
		t.Errorf("TreeFull node writes = %d, want %d", got, want)
	}
	if got, want := leaves.Stats().NodeWrites, uint64(updates); got != want {
		t.Errorf("TreeLeaves node writes = %d, want %d", got, want)
	}
	if PersistedNodes(scheme.TreeFull) != Depth || PersistedNodes(scheme.TreeLeaves) != 1 {
		t.Error("PersistedNodes disagrees with Update accounting")
	}
}

// TestCoalescing: repeated updates under one interior path must absorb
// node writes into the combining buffer, and never break verification.
func TestCoalescing(t *testing.T) {
	tr := New(scheme.IntegrityToC, scheme.TreeFull, true)
	var last [LineBytes]byte
	for i := 0; i < 50; i++ {
		last = lineWith(byte(i))
		tr.Update(4, &last) // same page: the whole path repeats
	}
	st := tr.Stats()
	if st.Coalesced == 0 {
		t.Fatal("repeated same-path updates coalesced nothing")
	}
	if st.NodeWrites+st.Coalesced != 50*Depth {
		t.Fatalf("writes %d + coalesced %d != issued %d", st.NodeWrites, st.Coalesced, 50*Depth)
	}
	if !tr.VerifyLeaf(4, &last) {
		t.Fatal("coalescing broke verification")
	}
	// The uncoalesced variant issues every write.
	plain := New(scheme.IntegrityToC, scheme.TreeFull, false)
	for i := 0; i < 50; i++ {
		l := lineWith(byte(i))
		plain.Update(4, &l)
	}
	if plain.Stats().Coalesced != 0 || plain.Stats().NodeWrites != 50*Depth {
		t.Fatalf("uncoalesced tree accounting off: %+v", plain.Stats())
	}
}

// TestRecovered exercises the persistence-level tradeoff: a full tree
// recovers with one root check, a leaf-persisted tree pays a rebuild
// proportional to its leaf count — and both verify afterwards.
func TestRecovered(t *testing.T) {
	for _, d := range designs {
		t.Run(d.name, func(t *testing.T) {
			tr := New(d.kind, d.level, d.coalesce)
			lines := map[uint64][LineBytes]byte{}
			for page := uint64(0); page < 30; page++ {
				l := lineWith(byte(page * 3))
				tr.Update(page*17, &l)
				lines[page*17] = l
			}
			rec, ok := tr.Recovered()
			if !ok {
				t.Fatal("clean tree failed its recovery root check")
			}
			for page, l := range lines {
				if !rec.VerifyLeaf(page, &l) {
					t.Fatalf("page %d failed verification after recovery", page)
				}
			}
			hashes := rec.Stats().RecoveryHashes
			if d.level == scheme.TreeFull {
				if hashes != 1 {
					t.Fatalf("full tree recovery hashes = %d, want 1", hashes)
				}
			} else if hashes <= 1 {
				t.Fatalf("leaf-persisted recovery must rebuild the interior, hashes = %d", hashes)
			}
			// A second crash/recover is stable.
			rec2, ok := rec.Recovered()
			if !ok {
				t.Fatal("recovered tree failed a nested recovery")
			}
			for page, l := range lines {
				if !rec2.VerifyLeaf(page, &l) {
					t.Fatalf("page %d failed after nested recovery", page)
				}
			}
		})
	}
}

// TestCloneIsDeep: a clone starts equal to its tree — persisted image,
// root register, counters, write-combining buffer — and updates to
// either side never reach the other.
func TestCloneIsDeep(t *testing.T) {
	for _, d := range designs {
		t.Run(d.name, func(t *testing.T) {
			tr := New(d.kind, d.level, d.coalesce)
			for page := uint64(0); page < 20; page++ {
				l := lineWith(byte(page))
				tr.Update(page*9, &l)
			}
			c := tr.Clone()
			if !reflect.DeepEqual(c, tr) {
				t.Fatal("clone differs from its tree")
			}
			before := tr.EncodeSnapshot()
			l := lineWith(99)
			c.Update(5, &l)
			c.Update(1<<20, &l)
			if !bytes.Equal(tr.EncodeSnapshot(), before) {
				t.Fatal("updating the clone changed the original")
			}
			tr.Update(7, &l)
			if !c.VerifyLeaf(5, &l) || c.VerifyLeaf(7, &l) {
				t.Fatal("updating the original changed the clone")
			}
		})
	}
	if (*Tree)(nil).Clone() != nil {
		t.Fatal("nil tree cloned to non-nil")
	}
}

// TestRecoveredDetectsTamperedLeaves: corrupt the persisted leaf set
// behind the tree's back; recovery must fail the on-chip root check.
func TestRecoveredDetectsTamperedLeaves(t *testing.T) {
	for _, d := range designs {
		t.Run(d.name, func(t *testing.T) {
			tr := New(d.kind, d.level, d.coalesce)
			for page := uint64(0); page < 8; page++ {
				l := lineWith(byte(page))
				tr.Update(page, &l)
			}
			tr.leaves[3] = Node{Version: tr.leaves[3].Version, Digest: tr.leaves[3].Digest ^ 1}
			if d.level == scheme.TreeFull {
				// The interior still matches the root; tampering shows on
				// the leaf's own path instead.
				l := lineWith(3)
				if tr.VerifyLeaf(3, &l) {
					t.Fatal("tampered leaf digest verified")
				}
				return
			}
			if _, ok := tr.Recovered(); ok {
				t.Fatal("rebuild over a tampered leaf passed the root check")
			}
		})
	}
}

// TestVerifyLeafZeroAllocs holds the PR 6 zero-allocation line on the
// tree-verify read path: the machine calls it on every counter-cache
// miss.
func TestVerifyLeafZeroAllocs(t *testing.T) {
	tr := New(scheme.IntegrityToC, scheme.TreeFull, true)
	for page := uint64(0); page < 64; page++ {
		l := lineWith(byte(page))
		tr.Update(page, &l)
	}
	probe := lineWith(7)
	if avg := testing.AllocsPerRun(200, func() {
		if !tr.VerifyLeaf(7, &probe) {
			t.Fatal("verification failed")
		}
	}); avg != 0 {
		t.Fatalf("VerifyLeaf allocates %.1f per run, want 0", avg)
	}
	// Update is on the persist path, which tolerates (rare, map-growth)
	// allocation but must stay amortized-small; pin it loosely.
	upd := lineWith(9)
	if avg := testing.AllocsPerRun(200, func() { tr.Update(9, &upd) }); avg > 0.5 {
		t.Fatalf("steady-state Update allocates %.1f per run", avg)
	}
}

func TestNodeOrdinalDense(t *testing.T) {
	if NodeOrdinal(0, 0) != 0 {
		t.Fatal("leaf 0 must be ordinal 0")
	}
	if got, want := NodeOrdinal(1, 0), uint64(LeafCount); got != want {
		t.Fatalf("first level-1 ordinal = %d, want %d", got, want)
	}
	// Ordinals never collide across the persisted levels (within each
	// level's capacity — LeafCount>>(3*lv) nodes).
	seen := map[uint64]bool{}
	for lv := 0; lv < Depth; lv++ {
		limit := uint64(16)
		if cap := uint64(LeafCount >> (3 * lv)); cap < limit {
			limit = cap
		}
		for idx := uint64(0); idx < limit; idx++ {
			o := NodeOrdinal(lv, idx)
			if seen[o] {
				t.Fatalf("ordinal collision at level %d index %d", lv, idx)
			}
			seen[o] = true
		}
	}
}
