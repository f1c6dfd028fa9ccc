package machine

import (
	"bytes"
	"testing"
	"testing/quick"

	"supermem/internal/aes"
	"supermem/internal/config"
	"supermem/internal/ctr"
)

func testCipher(t testing.TB) *aes.Cipher {
	t.Helper()
	key := []byte("supermem-padkey!")
	c, err := aes.New(key)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestPadCacheMatchesDirect is the pad-cache correctness property: for
// random (address, major, minor) triples, the cached pad — on both the
// miss and the hit path — is byte-identical to running the direct
// aes.Cipher OTP derivation, and XORing twice round-trips. The cache is
// deliberately tiny so collisions exercise slot replacement.
func TestPadCacheMatchesDirect(t *testing.T) {
	cipher := testCipher(t)
	pc := newPadCache(cipher, 64)
	f := func(lineNo uint32, major uint64, minor uint8, plain [config.LineSize]byte) bool {
		addr := uint64(lineNo) * config.LineSize
		minor %= ctr.MinorMax + 1
		want := ctr.OTP(cipher, addr, major, minor)
		miss := pc.otp(addr, major, minor)
		hit := pc.otp(addr, major, minor)
		if miss != want || hit != want {
			return false
		}
		// Counter-mode round trip through the cached pad.
		enc := ctr.XorLine(plain, hit)
		return ctr.XorLine(enc, want) == plain
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPadCacheCounterTransitions walks one line's counter through the
// sequences RSR produces — minor climb, minor-counter overflow into a
// major bump with minors reset to zero, and a post-RSR re-read — and
// checks every pad against the direct path. Distinct counters must also
// yield distinct pads (no pad reuse across the reset).
func TestPadCacheCounterTransitions(t *testing.T) {
	cipher := testCipher(t)
	pc := newPadCache(cipher, 0)
	const addr = 7 * config.LineSize
	seen := map[ctr.Pad]string{}
	check := func(label string, major uint64, minor uint8) {
		t.Helper()
		got := pc.otp(addr, major, minor)
		if want := ctr.OTP(cipher, addr, major, minor); got != want {
			t.Fatalf("%s: cached pad diverges from direct OTP", label)
		}
		if prev, dup := seen[got]; dup {
			t.Fatalf("%s reuses the pad of %s", label, prev)
		}
		seen[got] = label
	}
	var cl ctr.Line
	li := ctr.LineIndex(addr)
	// Climb the minor counter to the overflow point.
	for i := 0; i < int(ctr.MinorMax); i++ {
		cl.Bump(li)
		check("minor climb", cl.Major, cl.Minors[li])
	}
	if !cl.Bump(li) {
		t.Fatal("expected minor overflow")
	}
	// Post-RSR window: major+1, minors reset (written line at 1).
	check("post-RSR write", cl.Major, cl.Minors[li])
	check("post-RSR fresh line", cl.Major, 0)
	if cl.Major != 1 {
		t.Fatalf("Major after overflow = %d, want 1", cl.Major)
	}
}

// TestPrecomputePageWarmsWindow verifies the batch API: after
// precomputePage, all 64 line pads of the window are hits and identical
// to the direct derivation.
func TestPrecomputePageWarmsWindow(t *testing.T) {
	cipher := testCipher(t)
	pc := newPadCache(cipher, 0)
	const page = 3
	base := uint64(page) * config.PageSize
	pc.precomputePage(base+5*config.LineSize, 9, 0) // any addr in the page
	h0 := pc.hits
	for i := uint64(0); i < config.LinesPerPage; i++ {
		la := base + i*config.LineSize
		if pc.otp(la, 9, 0) != ctr.OTP(cipher, la, 9, 0) {
			t.Fatalf("precomputed pad for line %d diverges", i)
		}
	}
	if pc.hits-h0 != config.LinesPerPage {
		t.Fatalf("window re-read hit %d of %d pads", pc.hits-h0, config.LinesPerPage)
	}
}

// TestPadCacheGrows: a default cache starts at padCacheStart slots and
// doubles once its misses outnumber its slots, up to padCacheSlots,
// keeping its resident pads and serving exact ones throughout; a shared
// cache (NewPadCache) and a re-encryption storm (precomputePage) get the
// full size at once.
func TestPadCacheGrows(t *testing.T) {
	cipher := testCipher(t)
	pc := newPadCache(cipher, 0)
	addr := func(i int) uint64 { return uint64(i) * config.LineSize }
	for i := 0; i < padCacheStart; i++ {
		pc.otp(addr(i), 1, 1)
	}
	if len(pc.slots) != padCacheStart {
		t.Fatalf("%d slots after %d misses, want %d", len(pc.slots), padCacheStart, padCacheStart)
	}
	pc.otp(addr(padCacheStart), 1, 1) // the miss that outnumbers the slots
	if len(pc.slots) != 2*padCacheStart {
		t.Fatalf("grew to %d slots, want %d", len(pc.slots), 2*padCacheStart)
	}
	// Rehashing keeps every resident pad.
	var resident []padKey
	for _, s := range pc.slots {
		if s.valid {
			resident = append(resident, s.key)
		}
	}
	pc.resize(2 * len(pc.slots))
	h0 := pc.hits
	for _, k := range resident {
		if pc.otp(k.line, k.major, k.minor) != ctr.OTP(cipher, k.line, k.major, k.minor) {
			t.Fatal("a rehashed pad diverges from direct OTP")
		}
	}
	if got := pc.hits - h0; got != uint64(len(resident)) {
		t.Fatalf("%d of %d resident pads hit after a resize", got, len(resident))
	}
	for i := padCacheStart + 1; i < 2*padCacheSlots; i++ {
		if pc.otp(addr(i), 1, 1) != ctr.OTP(cipher, addr(i), 1, 1) {
			t.Fatalf("pad %d diverges from direct OTP", i)
		}
	}
	if len(pc.slots) != padCacheSlots {
		t.Fatalf("cache grew to %d slots, want %d", len(pc.slots), padCacheSlots)
	}

	shared, err := NewPadCache([]byte("supermem-padkey!"))
	if err != nil {
		t.Fatal(err)
	}
	storm := newPadCache(cipher, 0)
	storm.precomputePage(0, 1, 0)
	if len(shared.slots) != padCacheSlots || len(storm.slots) != padCacheSlots {
		t.Fatalf("shared cache %d slots, after precomputePage %d, want %d", len(shared.slots), len(storm.slots), padCacheSlots)
	}
}

// TestMachinePadCacheEndToEnd drives a line through enough flushes to
// force a real page re-encryption, then crashes and recovers, checking
// the plaintext survives every counter transition with the pad cache in
// the path (the whole flow reuses one machine's cache via Recover).
func TestMachinePadCacheEndToEnd(t *testing.T) {
	m, err := New(WTRegister, []byte("0123456789abcdef"))
	if err != nil {
		t.Fatal(err)
	}
	const addr = 2 * config.PageSize // line 0 of page 2
	payload := func(i int) []byte {
		b := make([]byte, config.LineSize)
		for j := range b {
			b[j] = byte(i + j)
		}
		return b
	}
	// MinorMax+2 flushes overflow the minor counter mid-sequence.
	last := int(ctr.MinorMax) + 2
	for i := 1; i <= last; i++ {
		m.Store(addr, payload(i))
		m.CLWB(addr)
	}
	if cl, ok := m.PersistedCounter(2); !ok || cl.Major == 0 {
		t.Fatalf("persisted counter = %+v, %v; want a major bump from RSR", cl, ok)
	}
	if got := m.Load(addr, config.LineSize); !bytes.Equal(got, payload(last)) {
		t.Fatal("post-RSR read diverges from last store")
	}
	hits, misses := m.PadCacheStats()
	if hits == 0 || misses == 0 {
		t.Fatalf("pad cache never exercised: hits=%d misses=%d", hits, misses)
	}
	// The recovered successor shares the warm cache and must read the
	// same bytes.
	m.Crash()
	n := m.Recover()
	if got := n.Load(addr, config.LineSize); !bytes.Equal(got, payload(last)) {
		t.Fatal("recovered read diverges from last persisted store")
	}
}

// BenchmarkEncryptLine measures one full 64 B line encryption through
// the direct path: 4 AES blocks of pad derivation plus the XOR.
func BenchmarkEncryptLine(b *testing.B) {
	cipher := testCipher(b)
	var plain line
	b.SetBytes(config.LineSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pad := ctr.OTP(cipher, 64, 1, 1)
		plain = ctr.XorLine(plain, pad)
	}
	_ = plain
}

// BenchmarkPadCacheHit measures the same line encryption when the pad
// is resident in the machine pad cache.
func BenchmarkPadCacheHit(b *testing.B) {
	pc := newPadCache(testCipher(b), 0)
	var plain line
	pc.otp(64, 1, 1)
	b.SetBytes(config.LineSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pad := pc.otp(64, 1, 1)
		plain = ctr.XorLine(plain, pad)
	}
	_ = plain
}

// BenchmarkPadCacheMiss is the miss-path overhead: cache bookkeeping on
// top of the direct derivation (alternating keys defeat the cache).
func BenchmarkPadCacheMiss(b *testing.B) {
	pc := newPadCache(testCipher(b), 0)
	b.SetBytes(config.LineSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pc.otp(64, uint64(i), 1)
	}
}
