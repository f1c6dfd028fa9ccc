// Package fault is the deterministic NVM fault model: seeded injection
// plans that corrupt state at three layers (media faults on persisted
// lines, counter-line corruption, and transient bank faults in the
// timing model), plus the detection side — a per-line ECC metadata
// model of configurable strength that classifies every corrupted read
// as corrected, detected, or silent.
//
// Everything is deterministic: a Plan is a pure function of its
// PlanConfig (seed included), the Injector consumes the plan in persist
// order, and per-injection randomness (which bits flip) is derived from
// the injection record itself, never from shared global state — so a
// fault sweep produces byte-identical results at any parallelism.
package fault

import (
	"fmt"
	"math/rand"
	"sort"

	"supermem/internal/config"
)

// Kind identifies one fault class.
type Kind uint8

const (
	// BitFlip flips bits of one persisted data line (transient media
	// fault). Arg packs the flip count and the bit-picking seed.
	BitFlip Kind = iota
	// StuckAt pins one bit of a persisted data line to a fixed value
	// from the injection step onward: the current content is corrupted
	// in place and every later write to the line re-applies the stuck
	// bit. Arg packs the bit index and the stuck value.
	StuckAt
	// TornWrite tears the next data-line persist at the 8-byte atomic
	// write granularity: only the 8 B words selected by Arg's low byte
	// land; the others keep their old contents.
	TornWrite
	// CtrCorrupt flips bits of one persisted counter line — the fault
	// that makes every data line the counter covers undecryptable.
	CtrCorrupt
	// CtrReplay reverts one persisted counter line to its previously
	// persisted value, ECC metadata included: the read classifies Clean,
	// so only an integrity tree can reject the stale counter. This is
	// the rollback attack of the secure-NVM threat model.
	CtrReplay
	// BankFault makes accesses [Step, Step+count) on bank Target fail
	// (the bank still burns service time): the transient bank fault the
	// memory controller retries around.
	BankFault
	// BankLatency makes accesses [Step, Step+count) on bank Target take
	// extra service cycles (a latency spike, e.g. thermal throttling).
	BankLatency
)

var kindNames = map[Kind]string{
	BitFlip:     "bitflip",
	StuckAt:     "stuckat",
	TornWrite:   "torn",
	CtrCorrupt:  "ctrflip",
	CtrReplay:   "ctrreplay",
	BankFault:   "bankfault",
	BankLatency: "banklatency",
}

// String names the fault kind.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Media reports whether the kind corrupts persisted state (as opposed
// to the timing-model bank faults).
func (k Kind) Media() bool { return k <= CtrReplay }

// LineBits is the number of bits in one memory line.
const LineBits = config.LineSize * 8

// Injection is one scheduled fault.
type Injection struct {
	// Kind is the fault class.
	Kind Kind `json:"kind"`
	// Step is when the fault fires. Media kinds count persistence
	// micro-steps of the functional machine (1-based: step s fires
	// after the s-th persist since the injector attached); bank kinds
	// count access ordinals on the target bank (0-based).
	Step uint32 `json:"step"`
	// Target selects the victim. Media kinds index into the sorted set
	// of persisted lines (modulo its size at fire time); bank kinds
	// name the bank.
	Target uint32 `json:"target"`
	// Arg is the kind-specific parameter:
	//
	//	BitFlip/CtrCorrupt: low 8 bits flip count (clamped to [1,64]),
	//	  upper bits seed the bit positions
	//	StuckAt: low 16 bits bit index (mod LineBits), bit 16 the value
	//	TornWrite: low 8 bits the kept-word mask (bit w set = new 8 B
	//	  word w lands; 0xFF is not torn and is normalized to 0x0F)
	//	BankFault: low 32 bits the failing access count
	//	BankLatency: low 32 bits the access count, high 32 bits the
	//	  extra cycles per access
	Arg uint64 `json:"arg"`
}

// flipCount decodes a BitFlip/CtrCorrupt flip count.
func (i Injection) flipCount() int {
	n := int(i.Arg & 0xFF)
	if n < 1 {
		n = 1
	}
	if n > 64 {
		n = 64
	}
	return n
}

// flipBits returns the (distinct) bit positions the injection flips,
// derived purely from the record.
func (i Injection) flipBits() []int {
	n := i.flipCount()
	rng := rand.New(rand.NewSource(int64(i.Arg>>8) ^ int64(i.Step)<<32 ^ int64(i.Target)))
	seen := make(map[int]bool, n)
	out := make([]int, 0, n)
	for len(out) < n {
		b := rng.Intn(LineBits)
		if !seen[b] {
			seen[b] = true
			out = append(out, b)
		}
	}
	return out
}

// tornMask decodes a TornWrite kept-word mask, normalizing the
// degenerate all-words case to a genuine tear.
func (i Injection) tornMask() uint8 {
	m := uint8(i.Arg)
	if m == 0xFF {
		m = 0x0F
	}
	return m
}

// Plan is a deterministic injection schedule.
type Plan struct {
	// Seed records the generating seed (informational; the schedule is
	// fully explicit).
	Seed int64 `json:"seed"`
	// Injections is the schedule in generation order; consumers sort
	// by Step where they need to.
	Injections []Injection `json:"injections,omitempty"`
}

// Media returns the plan's media injections (data, stuck-at, torn,
// counter) sorted by step, preserving record order within a step.
func (p Plan) Media() []Injection {
	out := make([]Injection, 0, len(p.Injections))
	for _, in := range p.Injections {
		if in.Kind.Media() {
			out = append(out, in)
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Step < out[b].Step })
	return out
}

// PlanConfig sizes a generated plan. Counts are exact; placement within
// the horizons is drawn from the seed.
type PlanConfig struct {
	// Seed drives all randomness in the generated schedule.
	Seed int64 `json:"seed"`
	// Steps is the media-fault horizon in persistence micro-steps:
	// media injections fire at steps in [1, Steps].
	Steps int `json:"steps"`

	// BitFlips is the number of data-line bit-flip faults; each flips
	// up to FlipBitsMax bits (default 1).
	BitFlips    int `json:"bit_flips"`
	FlipBitsMax int `json:"flip_bits_max"`
	// StuckAts is the number of stuck-at cell faults.
	StuckAts int `json:"stuck_ats"`
	// TornWrites is the number of torn data-line persists.
	TornWrites int `json:"torn_writes"`
	// CtrFaults is the number of counter-line corruption faults; each
	// flips up to CtrFlipBitsMax bits (default 1).
	CtrFaults      int `json:"ctr_faults"`
	CtrFlipBitsMax int `json:"ctr_flip_bits_max"`
	// CtrReplays is the number of counter-line replay (rollback)
	// faults. A replay carries valid ECC metadata, so ECC never sees
	// it; only integrity-tree modes can detect these.
	CtrReplays int `json:"ctr_replays"`

	// Banks is the bank universe for the timing-model faults (required
	// when BankFaults or LatencySpikes is set).
	Banks int `json:"banks"`
	// BankFaults is the number of transient bank-fault windows; each
	// fails up to BankFaultLen consecutive accesses (default 3).
	BankFaults   int `json:"bank_faults"`
	BankFaultLen int `json:"bank_fault_len"`
	// LatencySpikes is the number of latency-spike windows; each adds
	// up to SpikeCycles extra cycles (default 200) for up to
	// BankFaultLen accesses.
	LatencySpikes int    `json:"latency_spikes"`
	SpikeCycles   uint64 `json:"spike_cycles"`
	// AccessHorizon is the bank access-ordinal horizon windows start
	// within (default 256).
	AccessHorizon int `json:"access_horizon"`
}

func (c PlanConfig) mediaCount() int {
	return c.BitFlips + c.StuckAts + c.TornWrites + c.CtrFaults + c.CtrReplays
}

// Validate range-checks the configuration.
func (c PlanConfig) Validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"steps", c.Steps}, {"bit_flips", c.BitFlips}, {"flip_bits_max", c.FlipBitsMax},
		{"stuck_ats", c.StuckAts}, {"torn_writes", c.TornWrites},
		{"ctr_faults", c.CtrFaults}, {"ctr_flip_bits_max", c.CtrFlipBitsMax},
		{"ctr_replays", c.CtrReplays},
		{"banks", c.Banks}, {"bank_faults", c.BankFaults}, {"bank_fault_len", c.BankFaultLen},
		{"latency_spikes", c.LatencySpikes}, {"access_horizon", c.AccessHorizon},
	} {
		if f.v < 0 {
			return fmt.Errorf("fault: plan %s must be non-negative, got %d", f.name, f.v)
		}
	}
	if c.mediaCount() > 0 && c.Steps < 1 {
		return fmt.Errorf("fault: media faults need a steps horizon >= 1, got %d", c.Steps)
	}
	if c.FlipBitsMax > 64 || c.CtrFlipBitsMax > 64 {
		return fmt.Errorf("fault: flip_bits_max caps at 64 bits per line (got %d/%d)", c.FlipBitsMax, c.CtrFlipBitsMax)
	}
	if (c.BankFaults > 0 || c.LatencySpikes > 0) && c.Banks < 1 {
		return fmt.Errorf("fault: bank faults need a positive bank count, got %d", c.Banks)
	}
	return nil
}

// Generate derives the plan from the configuration: same config (seed
// included) always yields the identical schedule.
func Generate(c PlanConfig) (Plan, error) {
	if err := c.Validate(); err != nil {
		return Plan{}, err
	}
	rng := rand.New(rand.NewSource(c.Seed))
	flipMax := c.FlipBitsMax
	if flipMax < 1 {
		flipMax = 1
	}
	ctrFlipMax := c.CtrFlipBitsMax
	if ctrFlipMax < 1 {
		ctrFlipMax = 1
	}
	faultLen := c.BankFaultLen
	if faultLen < 1 {
		faultLen = 3
	}
	spike := c.SpikeCycles
	if spike == 0 {
		spike = 200
	}
	horizon := c.AccessHorizon
	if horizon < 1 {
		horizon = 256
	}
	p := Plan{Seed: c.Seed}
	step := func() uint32 { return uint32(1 + rng.Intn(c.Steps)) }
	for i := 0; i < c.BitFlips; i++ {
		p.Injections = append(p.Injections, Injection{
			Kind: BitFlip, Step: step(), Target: uint32(rng.Uint32()),
			Arg: uint64(1+rng.Intn(flipMax)) | uint64(rng.Uint32())<<8,
		})
	}
	for i := 0; i < c.StuckAts; i++ {
		p.Injections = append(p.Injections, Injection{
			Kind: StuckAt, Step: step(), Target: uint32(rng.Uint32()),
			Arg: uint64(rng.Intn(LineBits)) | uint64(rng.Intn(2))<<16,
		})
	}
	for i := 0; i < c.TornWrites; i++ {
		p.Injections = append(p.Injections, Injection{
			Kind: TornWrite, Step: step(),
			Arg: uint64(rng.Intn(0xFF)), // [0,0xFE]: always tears at least one word
		})
	}
	for i := 0; i < c.CtrFaults; i++ {
		p.Injections = append(p.Injections, Injection{
			Kind: CtrCorrupt, Step: step(), Target: uint32(rng.Uint32()),
			Arg: uint64(1+rng.Intn(ctrFlipMax)) | uint64(rng.Uint32())<<8,
		})
	}
	for i := 0; i < c.CtrReplays; i++ {
		p.Injections = append(p.Injections, Injection{
			Kind: CtrReplay, Step: step(), Target: uint32(rng.Uint32()),
		})
	}
	for i := 0; i < c.BankFaults; i++ {
		p.Injections = append(p.Injections, Injection{
			Kind: BankFault, Step: uint32(rng.Intn(horizon)), Target: uint32(rng.Intn(c.Banks)),
			Arg: uint64(1 + rng.Intn(faultLen)),
		})
	}
	for i := 0; i < c.LatencySpikes; i++ {
		p.Injections = append(p.Injections, Injection{
			Kind: BankLatency, Step: uint32(rng.Intn(horizon)), Target: uint32(rng.Intn(c.Banks)),
			Arg: uint64(1+rng.Intn(faultLen)) | (1+uint64(rng.Int63n(int64(spike))))<<32,
		})
	}
	return p, nil
}
