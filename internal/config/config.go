// Package config defines the system configuration for the SuperMem
// simulator. The defaults mirror Table 2 of the paper: an 8-core x86-64
// system at 2 GHz with a three-level cache hierarchy, a 256 KB counter
// cache, and an 8 GB, 8-bank PCM main memory behind a 32-entry
// ADR-protected write queue.
package config

import (
	"fmt"
	"math/bits"

	"supermem/internal/scheme"
)

// LineSize is the cache line and memory line size in bytes. The whole
// simulator works at line granularity; 64 bytes is fixed by the split
// counter layout (one 64 B counter line covers one 4 KB page).
const LineSize = 64

// PageSize is the size of a memory page in bytes. One counter line holds
// the major counter and the 64 minor counters of one page.
const PageSize = 4096

// LinesPerPage is the number of memory lines per page (and the number of
// minor counters per counter line).
const LinesPerPage = PageSize / LineSize

// Scheme identifies one of the evaluated secure-NVM designs. It is an
// alias of scheme.Scheme: the descriptor registry in internal/scheme is
// the single source of truth for every behavioural property (String,
// Encrypted, WriteThrough, CWC, CounterPlacement, SelectiveAtomicity,
// CounterPersistInterval, and the functional machine mode).
type Scheme = scheme.Scheme

// The registered schemes, re-exported for call-site brevity.
const (
	// Unsec is the un-encrypted baseline NVM (no counters at all).
	Unsec = scheme.Unsec
	// WB is the ideal secure NVM: a battery-backed write-back counter
	// cache that only writes evicted dirty counter lines to NVM. It is
	// the performance upper bound for an encrypted NVM.
	WB = scheme.WB
	// WT is the baseline write-through counter cache: every data write
	// appends a counter write, with counters stored in a single bank.
	WT = scheme.WT
	// WTCWC is WT plus locality-aware counter write coalescing.
	WTCWC = scheme.WTCWC
	// WTXBank is WT plus cross-bank counter storage.
	WTXBank = scheme.WTXBank
	// SuperMem is WT plus both CWC and XBank: the paper's design.
	SuperMem = scheme.SuperMem
	// SCA approximates the selective counter-atomicity design of Liu et
	// al. (the paper's main point of comparison): a write-back counter
	// cache where only explicit cache-line flushes persist their counter
	// atomically with the data; plain evictions leave the counter dirty
	// in the cache. It needs no large battery, but in the real design
	// the selectivity comes from new programming primitives — the
	// application transparency SuperMem exists to avoid.
	SCA = scheme.SCA
	// Osiris is the relaxed counter-persistence design of Ye et al.:
	// counters persist only every stop-loss-th update, and post-crash
	// recovery probes candidate counters against per-line integrity
	// tags to rebuild the lost values.
	Osiris = scheme.Osiris
	// BMT is write-through encryption plus a Bonsai-Merkle-style
	// integrity tree over the counter lines, with the full tree-update
	// path persisted alongside every counter write (root in an on-chip
	// ADR register).
	BMT = scheme.BMT
	// TriadNVM is BMT with Triad-NVM's relaxation: only the tree leaves
	// persist with each counter write; the interior is rebuilt during
	// recovery (cheaper writes, longer recovery).
	TriadNVM = scheme.TriadNVM
	// Phoenix is a persistent tree of versioned counters with
	// Streamlining-style coalescing of the tree-update writes.
	Phoenix = scheme.Phoenix
)

// AllSchemes lists the schemes in the order the paper's figures plot
// them (extensions beyond the paper's figures appear only in
// ExtendedSchemes).
func AllSchemes() []Scheme { return scheme.Paper() }

// ExtendedSchemes adds this repository's extra baselines (SCA, Osiris,
// and the integrity-tree designs BMT, Triad-NVM, Phoenix) to the
// paper's scheme list.
func ExtendedSchemes() []Scheme { return scheme.Extended() }

// Placement identifies the counter-line placement policy (Figure 8),
// aliased from the scheme registry.
type Placement = scheme.Placement

const (
	// SingleBank stores all counter lines in one dedicated bank
	// (Figure 8a), the conventional layout.
	SingleBank = scheme.SingleBank
	// SameBank stores the counter line in the same bank as its data
	// (Figure 8b).
	SameBank = scheme.SameBank
	// XBank stores the counter line of data in bank X in bank
	// (X + N/2) mod N (Figure 8c), the paper's layout.
	XBank = scheme.XBank
)

// Core timing-model names. internal/core runs one model for both: an
// in-order core is its one-op window. config only validates the
// spelling so a bad knob fails at Validate time, not mid-run.
const (
	// CoreInOrder is the blocking one-op-at-a-time core of the paper's
	// evaluation (the default): the OoO window at width 1, with
	// DefaultMSHREntries entries and no prefetcher.
	CoreInOrder = "inorder"
	// CoreOoO is the out-of-order core: OoOWidth ops in flight, an
	// MSHR file with same-line merge, and an optional stride prefetcher.
	CoreOoO = "ooo"
)

// Defaults for the OoO core's knobs when left zero.
const (
	DefaultOoOWidth    = 4
	DefaultMSHREntries = 8
)

// ValidCoreModel reports whether name is a known core-model name ("" is
// the in-order default).
func ValidCoreModel(name string) bool {
	return name == "" || name == CoreInOrder || name == CoreOoO
}

// CacheConfig describes one set-associative cache.
type CacheConfig struct {
	// SizeBytes is the total capacity. Must be a multiple of
	// Ways*LineSize and yield a power-of-two set count.
	SizeBytes int
	// Ways is the associativity.
	Ways int
	// LatencyCycles is the access (hit) latency in CPU cycles.
	LatencyCycles uint64
}

// Sets returns the number of sets.
func (c CacheConfig) Sets() int { return c.SizeBytes / (c.Ways * LineSize) }

// Validate checks geometric constraints.
func (c CacheConfig) Validate(name string) error {
	if c.SizeBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("config: %s: size and ways must be positive", name)
	}
	if c.SizeBytes%(c.Ways*LineSize) != 0 {
		return fmt.Errorf("config: %s: size %d not divisible by ways*line (%d)", name, c.SizeBytes, c.Ways*LineSize)
	}
	if sets := c.Sets(); sets&(sets-1) != 0 {
		return fmt.Errorf("config: %s: set count %d is not a power of two", name, sets)
	}
	return nil
}

// Config is the full system configuration.
type Config struct {
	// Cores is the number of CPU cores (programs) driving memory.
	Cores int

	// L1, L2 are per-core private caches; L3 is shared.
	L1, L2, L3 CacheConfig

	// CounterCache is the memory-controller counter cache.
	CounterCache CacheConfig

	// CounterCachePartition splits the counter cache into per-core
	// partitions of CounterCache.SizeBytes/Cores each (associativity and
	// set count adjusted to keep a valid geometry) instead of one shared
	// cache. Partitioning isolates each core's counter working set from
	// its neighbours' — the sharing-vs-isolation tradeoff the KV-serving
	// experiment sweeps. No effect with one core.
	CounterCachePartition bool

	// PerCoreWriteQueues gives each core its own ADR write queue of
	// WriteQueueEntries/Cores entries (minimum 2, to hold an atomic
	// data+counter pair) over the shared banks, instead of one queue
	// shared by all cores. Isolation removes cross-core admission
	// interference at the cost of less statistical multiplexing of the
	// queue capacity. No effect with one core.
	PerCoreWriteQueues bool

	// MemBytes is the NVM capacity in bytes.
	MemBytes uint64
	// Banks is the number of NVM banks.
	Banks int

	// ReadCycles is the PCM array read service time per line
	// (approximately tRCD+tCL).
	ReadCycles uint64
	// WriteCycles is the PCM array write service time per line
	// (approximately tWR).
	WriteCycles uint64

	// WriteQueueEntries is the capacity of the ADR-protected write
	// queue in the memory controller.
	WriteQueueEntries int

	// AESCycles is the latency of the pipelined AES engine used for
	// OTP generation.
	AESCycles uint64

	// ReadRetryLimit is the maximum number of read attempts per line
	// (initial attempt included) before the controller gives up on a
	// transiently failing bank and counts the read as uncorrected.
	ReadRetryLimit int
	// ReadRetryBackoff is the base gap in cycles between read attempts;
	// the gap doubles with each further retry (exponential backoff).
	ReadRetryBackoff uint64
	// BankQuarantineThreshold is the number of failed accesses after
	// which a bank is quarantined and its traffic remapped to the
	// partner bank (b + Banks/2) mod Banks. 0 disables quarantine.
	BankQuarantineThreshold int

	// OverflowThrottlePeriod enables overflow-rate throttling when
	// non-zero: a machine-wide token bucket refills one overflow token
	// each OverflowThrottlePeriod cycles up to OverflowThrottleBurst
	// tokens, and every minor-counter bump that wraps its line — the
	// bump that detonates a page re-encryption — must consume one. A
	// wrap arriving at an empty bucket is stalled until the next
	// refill — deterministic backpressure on the writer — so a hammer
	// driving primed counter lines cannot raise the machine-wide
	// re-encryption rate above the refill rate, while workloads that
	// overflow rarely never notice. 0 disables throttling.
	OverflowThrottlePeriod uint64
	// OverflowThrottleBurst is the overflow token-bucket capacity
	// (<= 0 means 1 when throttling is enabled). The burst lets benign
	// phase-change overflow clusters proceed unstalled while a
	// sustained hammer drains the bucket and hits the refill rate.
	OverflowThrottleBurst int

	// WearRemapPeriod enables the wear-leveling remap layer when
	// non-zero: after every WearRemapPeriod issued write services the
	// controller advances a global rotation offset and each home bank's
	// traffic physically moves to (home + offset) mod Banks. This
	// generalizes the quarantine/XBank partner remap into write-count-
	// triggered rotation: a hammered bank's wear (and its queue
	// pressure) spreads across all banks instead of concentrating. 0
	// disables rotation.
	WearRemapPeriod uint64

	// CoreModel selects the per-core timing model ("" means
	// CoreInOrder). Experiments sweep it as a grid axis the same way
	// they sweep schemes.
	CoreModel string
	// CoreModels overrides CoreModel per core (cores 0..3; an empty
	// entry falls back to CoreModel). The attack experiments use it to
	// give attacker cores a different model than victim cores.
	CoreModels [4]string

	// OoOWidth is the out-of-order core's in-flight op window: how many
	// memory ops may be outstanding before dispatch stalls. 0 means the
	// default (DefaultOoOWidth). In-order cores ignore it.
	OoOWidth int
	// MSHREntries sizes the OoO core's MSHR file: the number of
	// outstanding line misses; same-line demand misses merge into an
	// existing entry instead of re-reading NVM. 0 means the default
	// (DefaultMSHREntries). In-order cores ignore it.
	MSHREntries int
	// PrefetchDegree enables the OoO core's stride prefetcher when
	// non-zero: after a stride repeats (confidence threshold, fixed at
	// 2), each demand miss issues up to PrefetchDegree non-binding
	// counter+data prefetches down the stride. 0 disables prefetching.
	// In-order cores ignore it.
	PrefetchDegree int

	// Scheme selects the secure-NVM design under evaluation.
	Scheme Scheme

	// PlacementOverride, if non-nil, overrides the placement implied by
	// Scheme (used by ablation experiments, e.g. WT+SameBank).
	PlacementOverride *Placement

	// CWCOverride, if non-nil, overrides the CWC setting implied by
	// Scheme.
	CWCOverride *bool
}

// Default returns the paper's Table 2 configuration with a single core and
// the SuperMem scheme.
func Default() Config {
	return Config{
		Cores:             1,
		L1:                CacheConfig{SizeBytes: 32 << 10, Ways: 8, LatencyCycles: 2},
		L2:                CacheConfig{SizeBytes: 512 << 10, Ways: 8, LatencyCycles: 16},
		L3:                CacheConfig{SizeBytes: 4 << 20, Ways: 8, LatencyCycles: 30},
		CounterCache:      CacheConfig{SizeBytes: 256 << 10, Ways: 8, LatencyCycles: 8},
		MemBytes:          8 << 30,
		Banks:             8,
		ReadCycles:        126, // 63 ns at 2 GHz (tRCD+tCL = 48+15 ns)
		WriteCycles:       600, // 300 ns at 2 GHz (tWR)
		WriteQueueEntries: 32,
		AESCycles:         24,
		Scheme:            SuperMem,

		ReadRetryLimit:          4,
		ReadRetryBackoff:        16,
		BankQuarantineThreshold: 8,
	}
}

// Placement returns the effective counter placement (override or the
// scheme's default).
func (c Config) Placement() Placement {
	if c.PlacementOverride != nil {
		return *c.PlacementOverride
	}
	return c.Scheme.CounterPlacement()
}

// CWC reports whether counter write coalescing is effective (override or
// the scheme's default).
func (c Config) CWC() bool {
	if c.CWCOverride != nil {
		return *c.CWCOverride
	}
	return c.Scheme.CWC()
}

// ModelFor returns the effective core-model name for core i: the
// per-core override when set, else CoreModel, else CoreInOrder.
func (c Config) ModelFor(i int) string {
	if i >= 0 && i < len(c.CoreModels) && c.CoreModels[i] != "" {
		return c.CoreModels[i]
	}
	if c.CoreModel != "" {
		return c.CoreModel
	}
	return CoreInOrder
}

// HasOoOCore reports whether any core runs the OoO model.
func (c Config) HasOoOCore() bool {
	for i := 0; i < c.Cores; i++ {
		if c.ModelFor(i) == CoreOoO {
			return true
		}
	}
	return false
}

// EffectiveOoOWidth returns the OoO in-flight window with the default
// applied.
func (c Config) EffectiveOoOWidth() int {
	if c.OoOWidth == 0 {
		return DefaultOoOWidth
	}
	return c.OoOWidth
}

// EffectiveMSHREntries returns the MSHR file size with the default
// applied.
func (c Config) EffectiveMSHREntries() int {
	if c.MSHREntries == 0 {
		return DefaultMSHREntries
	}
	return c.MSHREntries
}

// WithScheme returns a copy of c with the scheme replaced.
func (c Config) WithScheme(s Scheme) Config {
	c.Scheme = s
	return c
}

// Validate checks the whole configuration for consistency.
func (c Config) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("config: cores must be positive, got %d", c.Cores)
	}
	if !scheme.Registered(c.Scheme) {
		return fmt.Errorf("config: unknown scheme %v: not in the scheme registry (see internal/scheme)", c.Scheme)
	}
	for _, cc := range []struct {
		name string
		c    CacheConfig
	}{{"L1", c.L1}, {"L2", c.L2}, {"L3", c.L3}, {"counter cache", c.CounterCache}} {
		if err := cc.c.Validate(cc.name); err != nil {
			return err
		}
	}
	if c.MemBytes == 0 || c.MemBytes%PageSize != 0 {
		return fmt.Errorf("config: memory capacity %d must be a positive multiple of the page size", c.MemBytes)
	}
	if c.Banks < 2 || bits.OnesCount(uint(c.Banks)) != 1 {
		// Banks == 1 is a power of two but breaks XBank placement
		// ((X+N/2) mod N needs a partner bank) and bank quarantine.
		return fmt.Errorf("config: bank count %d must be a power of two >= 2", c.Banks)
	}
	if c.WriteQueueEntries < 2 {
		return fmt.Errorf("config: write queue needs >= 2 entries to hold an atomic data+counter pair, got %d", c.WriteQueueEntries)
	}
	if c.ReadCycles == 0 || c.WriteCycles == 0 {
		return fmt.Errorf("config: PCM service times must be positive")
	}
	if c.ReadRetryLimit < 1 {
		return fmt.Errorf("config: read retry limit must be >= 1 (the initial attempt), got %d", c.ReadRetryLimit)
	}
	if c.ReadRetryLimit > 64 {
		return fmt.Errorf("config: read retry limit %d is unreasonably large (max 64)", c.ReadRetryLimit)
	}
	if c.BankQuarantineThreshold < 0 {
		return fmt.Errorf("config: bank quarantine threshold must be >= 0 (0 disables), got %d", c.BankQuarantineThreshold)
	}
	if c.OverflowThrottlePeriod == 0 && c.OverflowThrottleBurst > 0 {
		return fmt.Errorf("config: overflow throttle burst %d set with throttling disabled (period 0)", c.OverflowThrottleBurst)
	}
	if !ValidCoreModel(c.CoreModel) {
		return fmt.Errorf("config: unknown core model %q (want %q or %q)", c.CoreModel, CoreInOrder, CoreOoO)
	}
	for i, name := range c.CoreModels {
		if !ValidCoreModel(name) {
			return fmt.Errorf("config: unknown core model %q for core %d (want %q or %q)", name, i, CoreInOrder, CoreOoO)
		}
	}
	if c.OoOWidth < 0 {
		return fmt.Errorf("config: OoO width must be >= 0 (0 means the default %d), got %d", DefaultOoOWidth, c.OoOWidth)
	}
	if c.MSHREntries < 0 {
		return fmt.Errorf("config: MSHR entries must be >= 0 (0 means the default %d), got %d", DefaultMSHREntries, c.MSHREntries)
	}
	if c.PrefetchDegree < 0 {
		return fmt.Errorf("config: prefetch degree must be >= 0 (0 disables), got %d", c.PrefetchDegree)
	}
	if !c.HasOoOCore() {
		if c.OoOWidth > 0 {
			return fmt.Errorf("config: OoO width %d set but no core uses the %q model", c.OoOWidth, CoreOoO)
		}
		if c.MSHREntries > 0 {
			return fmt.Errorf("config: MSHR entries %d set but no core uses the %q model", c.MSHREntries, CoreOoO)
		}
		if c.PrefetchDegree > 0 {
			return fmt.Errorf("config: prefetch degree %d set but no core uses the %q model", c.PrefetchDegree, CoreOoO)
		}
	}
	return nil
}
