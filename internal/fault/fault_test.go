package fault

import (
	"reflect"
	"sort"
	"testing"
)

// fakeMem is a minimal Memory for injector tests.
type fakeMem struct {
	data map[uint64]line
	ctrs map[uint64]line
}

func newFakeMem() *fakeMem {
	return &fakeMem{data: map[uint64]line{}, ctrs: map[uint64]line{}}
}

func (m *fakeMem) DataLines() []uint64 { return sortedKeys(m.data) }
func (m *fakeMem) CtrPages() []uint64  { return sortedKeys(m.ctrs) }
func (m *fakeMem) MutateData(addr uint64, f func(*line)) {
	l := m.data[addr]
	f(&l)
	m.data[addr] = l
}
func (m *fakeMem) MutateCtr(page uint64, f func(*line)) {
	l := m.ctrs[page]
	f(&l)
	m.ctrs[page] = l
}

func sortedKeys(m map[uint64]line) []uint64 {
	out := make([]uint64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// write pushes a line through the injector the way the machine's
// persist path does.
func (m *fakeMem) write(j *Injector, addr uint64, content line) {
	m.data[addr] = j.WriteData(addr, m.data[addr], content)
}

func pattern(b byte) line {
	var l line
	for i := range l {
		l[i] = b
	}
	return l
}

func TestECCClassify(t *testing.T) {
	cases := []struct {
		ecc  ECCConfig
		d    int
		want Outcome
	}{
		{ECCOff(), 0, Clean},
		{ECCOff(), 1, Silent},
		{ECCOff(), 100, Silent},
		{ECCSECDED(), 0, Clean},
		{ECCSECDED(), 1, Corrected},
		{ECCSECDED(), 2, Detected},
		{ECCSECDED(), 3, Silent},
		{ECCStrong(), 1, Corrected},
		{ECCStrong(), 2, Detected},
		{ECCStrong(), 512, Detected},
	}
	for _, c := range cases {
		if got := c.ecc.Classify(c.d); got != c.want {
			t.Errorf("%s.Classify(%d) = %v, want %v", c.ecc.Name, c.d, got, c.want)
		}
	}
}

func TestECCValidate(t *testing.T) {
	for _, e := range []ECCConfig{ECCOff(), ECCSECDED(), ECCStrong()} {
		if err := e.Validate(); err != nil {
			t.Errorf("preset %q invalid: %v", e.Name, err)
		}
	}
	bad := []ECCConfig{
		{Enabled: false, CorrectBits: 1},
		{Enabled: true, CorrectBits: -1},
		{Enabled: true, CorrectBits: LineBits + 1},
		{Enabled: true, CorrectBits: 3, DetectBits: 2},
	}
	for i, e := range bad {
		if err := e.Validate(); err == nil {
			t.Errorf("bad config %d validated: %+v", i, e)
		}
	}
}

func TestInjectorBitFlipOutcomes(t *testing.T) {
	for _, tc := range []struct {
		name string
		ecc  ECCConfig
		bits uint64 // flip count in Arg low byte
		want Outcome
	}{
		{"secded corrects 1", ECCSECDED(), 1, Corrected},
		{"secded detects 2", ECCSECDED(), 2, Detected},
		{"secded misses 3", ECCSECDED(), 3, Silent},
		{"off is silent", ECCOff(), 1, Silent},
		{"strong detects many", ECCStrong(), 64, Detected},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan := Plan{Injections: []Injection{{Kind: BitFlip, Step: 1, Target: 0, Arg: tc.bits | 7<<8}}}
			j := NewInjector(plan, tc.ecc)
			mem := newFakeMem()
			intended := pattern(0xA5)
			j.Advance()
			mem.write(j, 0x40, intended)
			j.Sync(mem)
			got, out := j.ReadData(0x40, mem.data[0x40])
			if out != tc.want {
				t.Fatalf("outcome = %v, want %v", out, tc.want)
			}
			if tc.want == Corrected && got != intended {
				t.Fatalf("corrected read did not return intended content")
			}
			if tc.want == Silent && got == intended {
				t.Fatalf("silent read returned intended content — corruption was hidden")
			}
		})
	}
}

func TestInjectorTornWrite(t *testing.T) {
	// Tear scheduled at step 1 intercepts step 1's persist: kept words
	// land, torn words keep the old content — and line-granular ECC sees
	// the mismatch.
	plan := Plan{Injections: []Injection{{Kind: TornWrite, Step: 1, Arg: 0x0F}}}
	j := NewInjector(plan, ECCStrong())
	mem := newFakeMem()
	mem.write(j, 0x80, pattern(0x11)) // pre-schedule persist lands intact
	j.Advance()                       // step 1: torn write armed for this step's persist
	mem.write(j, 0x80, pattern(0x22))
	actual := mem.data[0x80]
	for i := 0; i < 32; i++ {
		if actual[i] != 0x22 {
			t.Fatalf("kept word byte %d = %#x, want 0x22", i, actual[i])
		}
	}
	for i := 32; i < 64; i++ {
		if actual[i] != 0x11 {
			t.Fatalf("torn word byte %d = %#x, want old 0x11", i, actual[i])
		}
	}
	if _, out := j.ReadData(0x80, actual); out != Detected {
		t.Fatalf("torn line read = %v, want Detected", out)
	}
	if j.Stats().TornWrites != 1 {
		t.Fatalf("TornWrites = %d, want 1", j.Stats().TornWrites)
	}
}

func TestInjectorStuckBitPersists(t *testing.T) {
	// A stuck cell corrupts the current content and every later write.
	plan := Plan{Injections: []Injection{{Kind: StuckAt, Step: 1, Target: 0, Arg: 5}}} // bit 5 stuck at 0
	j := NewInjector(plan, ECCSECDED())
	mem := newFakeMem()
	j.Advance()
	mem.write(j, 0x40, pattern(0xFF))
	j.Sync(mem)
	if _, out := j.ReadData(0x40, mem.data[0x40]); out != Corrected {
		t.Fatalf("first read after stuck = %v, want Corrected", out)
	}
	// Rewrite: the stuck bit re-corrupts the fresh content.
	mem.write(j, 0x40, pattern(0xFF))
	if mem.data[0x40][0]&(1<<5) != 0 {
		t.Fatalf("stuck bit not re-applied on rewrite")
	}
	if _, out := j.ReadData(0x40, mem.data[0x40]); out != Corrected {
		t.Fatalf("read after rewrite = %v, want Corrected", out)
	}
	// Writing content that agrees with the stuck value reads clean.
	mem.write(j, 0x40, pattern(0x00))
	if _, out := j.ReadData(0x40, mem.data[0x40]); out != Clean {
		t.Fatalf("agreeing write = %v, want Clean", out)
	}
}

func TestInjectorCtrCorrupt(t *testing.T) {
	// Counter lines persisted before the injector attached still get a
	// shadow seeded from pre-corruption content at fire time.
	plan := Plan{Injections: []Injection{{Kind: CtrCorrupt, Step: 2, Target: 0, Arg: 2 | 99<<8}}}
	j := NewInjector(plan, ECCSECDED())
	mem := newFakeMem()
	mem.ctrs[3] = pattern(0x5A) // pre-attach persist: no WriteCtr seen
	j.Advance()
	j.Sync(mem)
	if _, out := j.ReadCtr(3, mem.ctrs[3]); out != Clean {
		t.Fatalf("pre-fire ctr read = %v, want Clean", out)
	}
	j.Advance()
	j.Sync(mem)
	if _, out := j.ReadCtr(3, mem.ctrs[3]); out != Detected {
		t.Fatalf("post-fire ctr read = %v, want Detected", out)
	}
	if s := j.Stats(); s.CtrFlips != 1 || s.CtrDetected != 1 {
		t.Fatalf("stats = %+v, want CtrFlips=1 CtrDetected=1", s)
	}
}

func TestInjectorSkipsWithNoTarget(t *testing.T) {
	plan := Plan{Injections: []Injection{
		{Kind: BitFlip, Step: 1},
		{Kind: CtrCorrupt, Step: 1},
	}}
	j := NewInjector(plan, ECCStrong())
	j.Advance()
	j.Sync(newFakeMem())
	if s := j.Stats(); s.SkippedNoTarget != 2 || s.Injected != 0 {
		t.Fatalf("stats = %+v, want 2 skipped, 0 injected", s)
	}
}

func TestNilInjectorIsNoOp(t *testing.T) {
	var j *Injector
	j.Advance()
	j.Sync(newFakeMem())
	in := pattern(0x33)
	if got := j.WriteData(0, line{}, in); got != in {
		t.Fatalf("nil WriteData altered content")
	}
	if _, out := j.ReadData(0, in); out != Clean {
		t.Fatalf("nil ReadData outcome = %v, want Clean", out)
	}
	if j.Stats() != (Stats{}) || j.Step() != 0 {
		t.Fatalf("nil injector has state")
	}
}

func TestBankFaultsWindows(t *testing.T) {
	plan := Plan{Injections: []Injection{
		{Kind: BankFault, Step: 2, Target: 1, Arg: 3},            // bank 1, accesses 2..4 fail
		{Kind: BankLatency, Step: 0, Target: 1, Arg: 2 | 50<<32}, // bank 1, accesses 0..1 +50 cycles
	}}
	bf := NewBankFaults(plan, 4)
	type obs struct {
		fail  bool
		extra uint64
	}
	var got []obs
	for i := 0; i < 6; i++ {
		f, e := bf.OnAccess(1)
		got = append(got, obs{f, e})
	}
	want := []obs{{false, 50}, {false, 50}, {true, 0}, {true, 0}, {true, 0}, {false, 0}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("bank 1 schedule = %v, want %v", got, want)
	}
	// Other banks are untouched, nil schedule no-ops.
	if f, e := bf.OnAccess(0); f || e != 0 {
		t.Fatalf("bank 0 perturbed: fail=%v extra=%d", f, e)
	}
	var nilBF *BankFaults
	if f, e := nilBF.OnAccess(3); f || e != 0 {
		t.Fatalf("nil schedule perturbed: fail=%v extra=%d", f, e)
	}
}

func TestGenerateDeterministicAndSeedSensitive(t *testing.T) {
	c := PlanConfig{Seed: 7, Steps: 32, BitFlips: 3, StuckAts: 2, TornWrites: 2, CtrFaults: 2, Banks: 8, BankFaults: 2, LatencySpikes: 2}
	p1, err := Generate(c)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := Generate(c)
	if !reflect.DeepEqual(p1, p2) {
		t.Fatalf("same config produced different plans")
	}
	if n := len(p1.Injections); n != 13 {
		t.Fatalf("injection count = %d, want 13", n)
	}
	c.Seed = 8
	p3, _ := Generate(c)
	if reflect.DeepEqual(p1, p3) {
		t.Fatalf("different seeds produced identical plans")
	}
}

func TestPlanConfigValidate(t *testing.T) {
	bad := []PlanConfig{
		{BitFlips: -1, Steps: 4},
		{BitFlips: 1, Steps: 0},
		{TornWrites: 1, Steps: 0},
		{BitFlips: 1, Steps: 4, FlipBitsMax: 65},
		{BankFaults: 1, Banks: 0},
		{LatencySpikes: 1, Banks: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d validated: %+v", i, c)
		}
	}
	if err := (PlanConfig{}).Validate(); err != nil {
		t.Errorf("empty config rejected: %v", err)
	}
}
