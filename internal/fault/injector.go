package fault

import (
	"sort"

	"supermem/internal/config"
)

type line = [config.LineSize]byte

// Memory is the view of persisted state the injector mutates when an
// injection fires. The functional machine implements it over its NVM
// data lines and counter lines.
type Memory interface {
	// DataLines returns the persisted data-line addresses in sorted
	// order (the deterministic victim universe for data faults).
	DataLines() []uint64
	// CtrPages returns the persisted counter-page indices in sorted
	// order (the victim universe for counter faults).
	CtrPages() []uint64
	// MutateData edits one persisted data line in place.
	MutateData(addr uint64, f func(*line))
	// MutateCtr edits one persisted (packed) counter line in place.
	MutateCtr(page uint64, f func(*line))
}

// Stats counts what the injector did and what the ECC model saw.
type Stats struct {
	// Injected counts media injections that fired; SkippedNoTarget
	// counts injections that found no persisted line to corrupt.
	Injected        int `json:"injected"`
	SkippedNoTarget int `json:"skipped_no_target,omitempty"`

	// Per-kind fire counts. TornWrites counts tears actually applied to
	// a persist (a scheduled tear with no following write never fires).
	BitFlips   int `json:"bit_flips,omitempty"`
	StuckBits  int `json:"stuck_bits,omitempty"`
	TornWrites int `json:"torn_writes,omitempty"`
	CtrFlips   int `json:"ctr_flips,omitempty"`
	CtrReplays int `json:"ctr_replays,omitempty"`

	// Read classifications, split by data vs. counter lines.
	CorrectedReads int `json:"corrected_reads,omitempty"`
	DetectedReads  int `json:"detected_reads,omitempty"`
	SilentReads    int `json:"silent_reads,omitempty"`
	CtrCorrected   int `json:"ctr_corrected,omitempty"`
	CtrDetected    int `json:"ctr_detected,omitempty"`
	CtrSilent      int `json:"ctr_silent,omitempty"`
	// CtrTreeDetected counts counter fetches (or recovery root checks)
	// the machine's integrity tree rejected — detections invisible to
	// ECC, reported back via NoteCtrTreeDetect.
	CtrTreeDetected int `json:"ctr_tree_detected,omitempty"`
}

// TotalCorrected sums corrected reads over data and counter lines.
func (s Stats) TotalCorrected() int { return s.CorrectedReads + s.CtrCorrected }

// TotalDetected sums detected reads over data and counter lines.
func (s Stats) TotalDetected() int { return s.DetectedReads + s.CtrDetected }

// TotalSilent sums silent corrupted reads over data and counter lines.
func (s Stats) TotalSilent() int { return s.SilentReads + s.CtrSilent }

// stuckBit is one pinned cell of a specific line.
type stuckBit struct {
	bit int
	val bool
}

// Injector drives a plan's media injections against a Memory and
// models per-line ECC on every read. It keeps its own monotone step
// counter — independent of the machine's persist counter, which resets
// across Recover — so one schedule spans normal operation, recovery,
// and RSR re-encryption; the machine inherits the same injector across
// Recover for exactly this reason.
//
// A nil *Injector is a valid disabled injector: writes pass through and
// reads are Clean.
type Injector struct {
	ecc ECCConfig
	// The media schedule splits by firing discipline: torn writes fire
	// the moment the clock reaches their step (they must intercept that
	// step's write), state-corrupting kinds fire lazily at the next
	// Sync point after their step's write has landed.
	tornSched  []Injection
	mediaSched []Injection
	nextTorn   int
	nextMedia  int
	step       uint32

	torn  []uint8               // pending torn-write masks, FIFO
	stuck map[uint64][]stuckBit // data line addr -> pinned cells

	// shadow* hold each line's intended content — the ECC metadata the
	// classification compares against.
	shadowData map[uint64]line
	shadowCtr  map[uint64]line
	// ctrPrev holds each counter page's previously persisted content —
	// the value a CtrReplay rolls the page back to (shadow included,
	// since a replayed line carries its own valid ECC metadata).
	ctrPrev map[uint64]line

	stats Stats
}

// NewInjector builds an injector for the plan's media injections under
// the given ECC profile.
func NewInjector(p Plan, ecc ECCConfig) *Injector {
	j := &Injector{
		ecc:        ecc,
		stuck:      map[uint64][]stuckBit{},
		shadowData: map[uint64]line{},
		shadowCtr:  map[uint64]line{},
		ctrPrev:    map[uint64]line{},
	}
	for _, in := range p.Media() {
		if in.Kind == TornWrite {
			j.tornSched = append(j.tornSched, in)
		} else {
			j.mediaSched = append(j.mediaSched, in)
		}
	}
	sort.SliceStable(j.tornSched, func(a, b int) bool { return j.tornSched[a].Step < j.tornSched[b].Step })
	sort.SliceStable(j.mediaSched, func(a, b int) bool { return j.mediaSched[a].Step < j.mediaSched[b].Step })
	return j
}

// Stats returns a copy of the counters so far.
func (j *Injector) Stats() Stats {
	if j == nil {
		return Stats{}
	}
	return j.stats
}

// Step returns the injector's monotone persist-step count.
func (j *Injector) Step() uint32 {
	if j == nil {
		return 0
	}
	return j.step
}

// Advance moves the persist-step clock to the step whose write is
// about to land, arming any torn-write injection scheduled for it so
// the write itself is intercepted. State-corrupting injections wait
// for Sync.
func (j *Injector) Advance() {
	if j == nil {
		return
	}
	j.step++
	for j.nextTorn < len(j.tornSched) && j.tornSched[j.nextTorn].Step <= j.step {
		j.torn = append(j.torn, j.tornSched[j.nextTorn].tornMask())
		j.stats.Injected++
		j.nextTorn++
	}
}

// Sync fires every state-corrupting injection whose step has completed
// against mem. The machine calls it at every consumption point of
// persisted state — persist boundaries, NVM reads, and Crash — so a
// fault scheduled at step s materializes after step s's write lands
// and before anything observes the line again.
func (j *Injector) Sync(mem Memory) {
	if j == nil {
		return
	}
	for j.nextMedia < len(j.mediaSched) && j.mediaSched[j.nextMedia].Step <= j.step {
		j.fire(j.mediaSched[j.nextMedia], mem)
		j.nextMedia++
	}
}

// fire applies one media injection.
func (j *Injector) fire(in Injection, mem Memory) {
	switch in.Kind {
	case BitFlip:
		lines := mem.DataLines()
		if len(lines) == 0 {
			j.stats.SkippedNoTarget++
			return
		}
		addr := lines[int(in.Target)%len(lines)]
		mem.MutateData(addr, func(l *line) {
			j.ensureShadowData(addr, *l)
			flipBitsIn(l, in.flipBits())
		})
		j.stats.Injected++
		j.stats.BitFlips++
	case StuckAt:
		lines := mem.DataLines()
		if len(lines) == 0 {
			j.stats.SkippedNoTarget++
			return
		}
		addr := lines[int(in.Target)%len(lines)]
		sb := stuckBit{bit: int(in.Arg&0xFFFF) % LineBits, val: in.Arg>>16&1 == 1}
		j.stuck[addr] = append(j.stuck[addr], sb)
		mem.MutateData(addr, func(l *line) {
			j.ensureShadowData(addr, *l)
			setBit(l, sb.bit, sb.val)
		})
		j.stats.Injected++
		j.stats.StuckBits++
	case CtrCorrupt:
		pages := mem.CtrPages()
		if len(pages) == 0 {
			j.stats.SkippedNoTarget++
			return
		}
		page := pages[int(in.Target)%len(pages)]
		mem.MutateCtr(page, func(l *line) {
			if _, ok := j.shadowCtr[page]; !ok {
				j.shadowCtr[page] = *l
			}
			flipBitsIn(l, in.flipBits())
		})
		j.stats.Injected++
		j.stats.CtrFlips++
	case CtrReplay:
		pages := mem.CtrPages()
		if len(pages) == 0 {
			j.stats.SkippedNoTarget++
			return
		}
		page := pages[int(in.Target)%len(pages)]
		// Roll back to the previously persisted value; a page written
		// only once rolls back to the zero line absent NVM reads as.
		prev := j.ctrPrev[page]
		mem.MutateCtr(page, func(l *line) { *l = prev })
		// The replayed line is a genuine old (value, ECC) pair: the
		// shadow follows it, so the ECC model classifies reads Clean.
		j.shadowCtr[page] = prev
		j.stats.Injected++
		j.stats.CtrReplays++
	}
}

// ensureShadowData seeds the shadow from pre-corruption content for
// lines persisted before the injector attached.
func (j *Injector) ensureShadowData(addr uint64, cur line) {
	if _, ok := j.shadowData[addr]; !ok {
		j.shadowData[addr] = cur
	}
}

// WriteData filters one data-line persist: the shadow records intended,
// and the returned line is what actually lands on media after any
// pending torn write and the line's stuck cells are applied.
func (j *Injector) WriteData(addr uint64, old, intended line) line {
	if j == nil {
		return intended
	}
	j.shadowData[addr] = intended
	actual := intended
	if len(j.torn) > 0 {
		mask := j.torn[0]
		j.torn = j.torn[1:]
		for w := 0; w < config.LineSize/8; w++ {
			if mask&(1<<w) == 0 {
				copy(actual[w*8:(w+1)*8], old[w*8:(w+1)*8])
			}
		}
		j.stats.TornWrites++
	}
	for _, sb := range j.stuck[addr] {
		setBit(&actual, sb.bit, sb.val)
	}
	return actual
}

// WriteCtr filters one counter-line persist (counter lines carry no
// stuck cells or tears in this model; CtrCorrupt fires via Tick). The
// outgoing value is remembered as CtrReplay's rollback target.
func (j *Injector) WriteCtr(page uint64, intended line) line {
	if j == nil {
		return intended
	}
	if prev, ok := j.shadowCtr[page]; ok && prev != intended {
		j.ctrPrev[page] = prev
	}
	j.shadowCtr[page] = intended
	return intended
}

// ReadData classifies one data-line read and returns the content the
// reader sees: the shadow when ECC corrects, the raw line otherwise.
func (j *Injector) ReadData(addr uint64, actual line) (line, Outcome) {
	if j == nil {
		return actual, Clean
	}
	sh, ok := j.shadowData[addr]
	if !ok || sh == actual {
		return actual, Clean
	}
	out := j.ecc.Classify(hamming(sh, actual))
	switch out {
	case Corrected:
		j.stats.CorrectedReads++
		return sh, out
	case Detected:
		j.stats.DetectedReads++
	case Silent:
		j.stats.SilentReads++
	}
	return actual, out
}

// ReadCtr classifies one counter-line read.
func (j *Injector) ReadCtr(page uint64, actual line) (line, Outcome) {
	if j == nil {
		return actual, Clean
	}
	sh, ok := j.shadowCtr[page]
	if !ok || sh == actual {
		return actual, Clean
	}
	out := j.ecc.Classify(hamming(sh, actual))
	switch out {
	case Corrected:
		j.stats.CtrCorrected++
		return sh, out
	case Detected:
		j.stats.CtrDetected++
	case Silent:
		j.stats.CtrSilent++
	}
	return actual, out
}

// NoteCtrTreeDetect records that the machine's integrity tree rejected
// a counter fetch (or a recovery-time root check) the ECC model could
// not flag — the detection channel for replayed counters. Nil-safe
// like every injector entry point.
func (j *Injector) NoteCtrTreeDetect(page uint64) {
	if j == nil {
		return
	}
	j.stats.CtrTreeDetected++
}

// flipBitsIn XORs the listed bit positions of a line.
func flipBitsIn(l *line, bitPos []int) {
	for _, b := range bitPos {
		l[b/8] ^= 1 << (b % 8)
	}
}

// setBit pins one bit of a line.
func setBit(l *line, bit int, val bool) {
	if val {
		l[bit/8] |= 1 << (bit % 8)
	} else {
		l[bit/8] &^= 1 << (bit % 8)
	}
}
