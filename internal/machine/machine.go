// Package machine is the functional (byte-accurate) model of a secure
// persistent memory machine. Where internal/core models *time*, this
// package models *state*: lines in NVM really are encrypted with
// AES-derived one-time pads under split counters, CPU caches and the
// counter cache really are volatile, and the ADR write queue really is
// the persistence boundary. A crash discards volatile state, and
// decrypting with a stale counter really produces garbage — so the
// recoverability results of Table 1 and the atomicity argument of
// Figure 7 are observed behaviours, not assertions.
package machine

import (
	"errors"
	"fmt"
	"maps"
	"sort"

	"supermem/internal/aes"
	"supermem/internal/config"
	"supermem/internal/ctr"
	"supermem/internal/fault"
	"supermem/internal/integrity"
	"supermem/internal/obs"
	"supermem/internal/scheme"
)

// Mode selects the persistence design of the machine. It is an alias of
// scheme.Mode: the registered ModeInfo in internal/scheme is the single
// source of truth for crash-state behaviour (String, Encrypted, the
// flush dispatch policy, and Table 1's recoverability expectations). It
// is richer than config.Scheme because crash behaviour distinguishes
// variants that perform identically (battery vs no battery) and the
// paper's register ablation.
type Mode = scheme.Mode

// The registered modes, re-exported for call-site brevity.
const (
	// Unencrypted stores plaintext in NVM: the crash-consistency
	// baseline with no counters at all.
	Unencrypted = scheme.ModeUnencrypted
	// WTRegister is SuperMem's design: a write-through counter cache
	// whose data+counter pair is appended to the ADR write queue
	// atomically through the two-line register (Figure 7).
	WTRegister = scheme.ModeWTRegister
	// WTNoRegister is the broken strawman of Figure 6: the counter is
	// appended to the write queue before its data, leaving a window
	// where a crash persists the new counter but not the data.
	WTNoRegister = scheme.ModeWTNoRegister
	// WBBattery is the ideal write-back counter cache with a full
	// battery backup: dirty counters are flushed to NVM on power loss.
	WBBattery = scheme.ModeWBBattery
	// WBNoBattery is a write-back counter cache without battery: dirty
	// counters in the volatile counter cache are lost on a crash.
	WBNoBattery = scheme.ModeWBNoBattery
	// Osiris relaxes counter persistence (Ye et al., the paper's
	// related-work alternative): counters persist every few updates and
	// lost values are recovered after a crash by probing candidate
	// counters against each line's integrity tag. See osiris.go.
	Osiris = scheme.ModeOsiris
)

type line = [config.LineSize]byte

// Machine is a functional secure-PM machine.
type Machine struct {
	mode Mode
	// pol is the mode's registered crash-state policy; every behavioural
	// decision (flush dispatch, battery flush, tagged recovery) reads it
	// rather than comparing mode IDs.
	pol    scheme.ModeInfo
	cipher *aes.Cipher
	// pads memoizes one-time pads by (line, major, minor). Pads depend
	// only on the key schedule (see padcache.go), so a successor inherits
	// its predecessor's cache across Recover and WithPadCache may hand
	// in another; a fork (ForkAtPersists) carries none, so the goroutine
	// that recovers it brings its own.
	pads *PadCache

	// nvmData holds persisted data lines: ciphertext under encrypted
	// modes, plaintext under Unencrypted. Absent lines read as zero
	// (and decrypt as XOR of zero with the pad, like real NVM would).
	nvmData map[uint64]line
	// nvmCtr holds the persisted counter line of each page.
	nvmCtr map[uint64]ctr.Line
	// nvmTag holds each line's integrity tag (standing in for ECC bits)
	// under the Osiris mode.
	nvmTag map[uint64]uint32
	// osirisProbes counts candidate decryptions performed by counter
	// recovery.
	osirisProbes int

	// cpuCache holds dirty plaintext lines not yet flushed (volatile).
	cpuCache map[uint64]line
	// ctrCache holds the current counters (volatile under write-back
	// without battery; continuously persisted under write-through).
	ctrCache *ctr.Store
	// ctrDirty marks pages whose current counter differs from nvmCtr
	// (write-back modes).
	ctrDirty map[uint64]bool

	// rsr is the ADR-protected re-encryption status register
	// (Section 3.4.4); nil when no re-encryption is in flight.
	rsr *rsrState

	// Crash injection: persists counts persistence micro-steps; when it
	// reaches crashAt the machine powers off mid-operation.
	persists int
	crashAt  int // -1 = never
	crashed  bool

	// Forking (ForkAtPersists): at each absolute persist index in
	// forkAt, from forkNext on, stepPersist hands forkFn a crashed copy.
	forkAt   []int
	forkNext int
	forkFn   func(i int, fork *Machine)

	// rec, when non-nil, records persist instants and RSR spans. The
	// machine has no cycle clock, so its trace timeline is the persist
	// index.
	rec *obs.Recorder

	// inj, when non-nil, corrupts persisted lines per its plan and
	// classifies every NVM read under its ECC model (see fault.go).
	inj *fault.Injector

	// tree, when non-nil, is the integrity tree over the counter lines
	// (see integrity.go): updated on every counter persist, consulted
	// on every counter fetch from NVM.
	tree *integrity.Tree
	// treeVerifyOff disables tree verification; a test hook only (see
	// SetTreeVerify).
	treeVerifyOff bool

	// Recovery-work bound (WithRecoveryBound): the maximum
	// persistence micro-steps one recovery pass may spend completing an
	// interrupted page re-encryption. 0 is unbounded; when the budget
	// runs out the pass stops with the RSR still armed (staged
	// recovery) and ResumeRecovery continues under a fresh budget.
	recoveryBound     int
	recoveryUsed      int
	boundedRecoveries int
}

// rsrState is the 20-byte RSR: page number, the page's old major
// counter, and a done bit per line.
type rsrState struct {
	page     uint64
	oldMajor uint64
	oldLine  ctr.Line // old minors (still persisted in nvmCtr until completion)
	done     [config.LinesPerPage]bool
}

// Option configures a Machine.
type Option func(*Machine)

// WithCrashAtPersist arranges a power failure immediately before the
// n-th persistence micro-step (0-based). Each atomic append to the ADR
// write queue is one step: a data+counter pair through the register is
// one step, but without the register the counter and data appends are
// separate steps — which is exactly the vulnerable window.
func WithCrashAtPersist(n int) Option {
	return func(m *Machine) { m.crashAt = n }
}

// WithRecoveryBound caps one recovery pass's re-encryption completion
// work at n persistence micro-steps (0 = unbounded). When the bound is
// hit, recovery degrades to staged mode: the pass returns with work
// pending and the next pass continues where it stopped, so a malicious
// crash loop pays bounded work per recovery instead of stalling on an
// adversarially large backlog. The crash drivers pass
// crash.Params.RecoveryBound here.
func WithRecoveryBound(n int) Option {
	return func(m *Machine) { m.recoveryBound = n }
}

// WithPadCache makes the machine use pc, a pad cache built for the same
// key (NewPadCache), instead of a fresh one (New) or its predecessor's
// (Recover). Pads are a pure function of key, line and counter, so the
// choice changes no byte. pc takes no lock: every machine sharing it
// must run on one goroutine at a time.
func WithPadCache(pc *PadCache) Option {
	return func(m *Machine) { m.pads = pc }
}

// New builds a machine. The key seeds the AES engine; any 16 bytes. The
// mode must be registered in internal/scheme.
func New(mode Mode, key []byte, opts ...Option) (*Machine, error) {
	pol, ok := scheme.LookupMode(mode)
	if !ok {
		return nil, fmt.Errorf("machine: mode %v is not registered (see internal/scheme)", mode)
	}
	// The expanded schedule is immutable and shared across every machine
	// keyed alike (a crash sweep builds thousands over one key), so reuse
	// it rather than re-running key expansion per machine.
	cipher, err := aes.Shared(key)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		mode:     mode,
		pol:      pol,
		cipher:   cipher,
		nvmData:  make(map[uint64]line),
		nvmCtr:   make(map[uint64]ctr.Line),
		nvmTag:   make(map[uint64]uint32),
		cpuCache: make(map[uint64]line),
		ctrCache: ctr.NewStore(),
		ctrDirty: make(map[uint64]bool),
		crashAt:  -1,
	}
	m.tree = newTree(pol)
	m.apply(opts)
	return m, nil
}

// apply runs a machine's build options, then gives it a fresh pad
// cache unless it got or inherited one.
func (m *Machine) apply(opts []Option) {
	for _, o := range opts {
		o(m)
	}
	if m.pads == nil {
		m.pads = newPadCache(m.cipher, 0)
	} else if m.pads.cipher != m.cipher {
		panic("machine: pad cache built for another key")
	}
}

// SetRecorder attaches an observability recorder (nil disables).
// Successor machines built by Recover inherit it.
func (m *Machine) SetRecorder(r *obs.Recorder) { m.rec = r }

// BoundedRecoveries returns the number of recovery passes that hit the
// recovery-work bound and degraded to staged recovery.
func (m *Machine) BoundedRecoveries() int { return m.boundedRecoveries }

// RecoveryPending reports whether a staged recovery left re-encryption
// work behind: the machine is live but its RSR page must be completed
// (ResumeRecovery) before that page is touched again.
func (m *Machine) RecoveryPending() bool { return !m.crashed && m.rsr != nil }

// ResumeRecovery continues a staged recovery under a fresh work
// budget. It is a no-op when nothing is pending.
func (m *Machine) ResumeRecovery() {
	if !m.RecoveryPending() {
		return
	}
	m.recoveryUsed = 0
	m.finishReencryption()
}

// Mode returns the machine's persistence mode.
func (m *Machine) Mode() Mode { return m.mode }

// Crashed reports whether the machine has powered off. All operations
// on a crashed machine are no-ops; call Recover to boot the successor.
func (m *Machine) Crashed() bool { return m.crashed }

// Persists returns the number of persistence micro-steps performed so
// far; crash-point enumeration sweeps [0, Persists()] of a clean run.
func (m *Machine) Persists() int { return m.persists }

// ArmCrashAtPersist arranges a power failure immediately before the
// n-th persistence micro-step from now (0 = the very next persist).
// Unlike WithCrashAtPersist it can be called mid-run, e.g. after setup
// writes that should not count toward the crash sweep.
func (m *Machine) ArmCrashAtPersist(n int) { m.crashAt = m.persists + n }

// ForkAtPersists arranges for fn to receive, at each of the given
// persistence micro-steps from now (0 = the very next persist; points
// non-decreasing), a copy of the machine as a crash armed there would
// leave it, while the machine itself runs on: i indexes points. fn runs
// on the machine's goroutine before the step proceeds, and the copy
// shares no mutable state with the machine, so it may move to another
// goroutine. Forks carry no recorder and no pad cache (Recover gives
// the successor a fresh one unless WithPadCache supplies it). Forking
// is refused while a fault injector is attached: its schedule is one
// mutable clock, which a copy cannot fork.
func (m *Machine) ForkAtPersists(points []int, fn func(i int, fork *Machine)) error {
	if m.inj != nil {
		return errors.New("machine: cannot fork with a fault injector attached")
	}
	at := make([]int, len(points))
	for i, p := range points {
		if p < 0 || (i > 0 && p < points[i-1]) {
			return fmt.Errorf("machine: fork points must be non-negative and non-decreasing, got %v", points)
		}
		at[i] = m.persists + p
	}
	m.forkAt, m.forkNext, m.forkFn = at, 0, fn
	return nil
}

// crashedCopy is the machine a crash at this persist would leave, as
// far as Recover reads it: deep copies of the persistent domain (NVM
// data, counter and tag maps, the integrity tree), the ADR-held RSR,
// and the dirty set with its counter-cache lines, which a battery
// flush persists. The volatile rest — the CPU cache and clean
// counter-cache lines — is lost in a crash anyway and is not copied.
func (m *Machine) crashedCopy() *Machine {
	c := &Machine{
		mode:              m.mode,
		pol:               m.pol,
		cipher:            m.cipher,
		nvmData:           maps.Clone(m.nvmData),
		nvmCtr:            maps.Clone(m.nvmCtr),
		nvmTag:            maps.Clone(m.nvmTag),
		osirisProbes:      m.osirisProbes,
		ctrCache:          ctr.NewStore(),
		ctrDirty:          maps.Clone(m.ctrDirty),
		persists:          m.persists,
		crashAt:           m.persists,
		crashed:           true,
		tree:              m.tree.Clone(),
		treeVerifyOff:     m.treeVerifyOff,
		recoveryBound:     m.recoveryBound,
		recoveryUsed:      m.recoveryUsed,
		boundedRecoveries: m.boundedRecoveries,
	}
	for page := range m.ctrDirty {
		if l, ok := m.ctrCache.Peek(page); ok {
			c.ctrCache.Set(page, l)
		}
	}
	if m.rsr != nil {
		rsr := *m.rsr
		c.rsr = &rsr
	}
	return c
}

// stepPersist consumes one persistence micro-step, crashing if the
// injection point has arrived, after handing out any fork due here. It
// reports whether the step may proceed.
func (m *Machine) stepPersist() bool {
	if m.crashed {
		return false
	}
	if m.inj != nil {
		// Fire state-corrupting faults due from completed steps before
		// this persist proceeds (and before any crash at this point —
		// the fault strikes first, then the power goes).
		m.inj.Sync(injMem{m})
	}
	if m.crashAt >= 0 && m.persists == m.crashAt {
		m.crashed = true
		m.rec.Instant(obs.TrackMachine, "crash", uint64(m.persists))
		return false
	}
	for m.forkNext < len(m.forkAt) && m.forkAt[m.forkNext] == m.persists {
		m.forkFn(m.forkNext, m.crashedCopy())
		m.forkNext++
	}
	m.rec.Instant(obs.TrackMachine, "persist", uint64(m.persists))
	m.persists++
	// The injector's clock is monotone across Recover (unlike
	// m.persists), so one schedule spans run + recovery + RSR. Advancing
	// before the write lands lets a torn-write fault intercept it.
	m.inj.Advance()
	return true
}

// Store writes bytes at addr through the CPU cache (volatile until
// flushed). It may span lines.
func (m *Machine) Store(addr uint64, data []byte) {
	if m.crashed {
		return
	}
	for len(data) > 0 {
		base := addr &^ (config.LineSize - 1)
		off := int(addr - base)
		n := config.LineSize - off
		if n > len(data) {
			n = len(data)
		}
		l := m.loadLine(base)
		copy(l[off:off+n], data[:n])
		m.cpuCache[base] = l
		addr += uint64(n)
		data = data[n:]
	}
}

// Load reads n bytes at addr from the current (cache-coherent) view.
func (m *Machine) Load(addr uint64, n int) []byte {
	out := make([]byte, n)
	if m.crashed {
		return out
	}
	for i := 0; i < n; {
		base := (addr + uint64(i)) &^ (config.LineSize - 1)
		off := int(addr + uint64(i) - base)
		l := m.loadLine(base)
		c := copy(out[i:], l[off:])
		i += c
	}
	return out
}

// loadLine returns the plaintext view of one line.
func (m *Machine) loadLine(base uint64) line {
	if l, ok := m.cpuCache[base]; ok {
		return l
	}
	return m.decryptNVM(base)
}

// decryptNVM reads a line from NVM and decrypts it with the *current*
// counter (which after a crash is whatever was persisted). A wrong
// counter silently produces garbage — the failure mode this whole paper
// is about. The read goes through the ECC model first: correctable
// media corruption is repaired before decryption, detected corruption
// is tallied and decrypts to garbage like the real machine-check path.
func (m *Machine) decryptNVM(base uint64) line {
	raw := m.readData(base)
	if !m.pol.Encrypted {
		return raw
	}
	page := base / config.PageSize
	cl := m.currentCounter(page)
	li := ctr.LineIndex(base)
	pad := m.pads.otp(base, cl.Major, cl.Minors[li])
	return ctr.XorLine(raw, pad)
}

// currentCounter returns the live counter line of a page: the counter
// cache's copy if present, else the persisted copy.
func (m *Machine) currentCounter(page uint64) ctr.Line {
	if l, ok := m.ctrCache.Peek(page); ok {
		return l
	}
	if l, ok := m.nvmCtr[page]; ok {
		l = m.readCtr(page, l)
		m.ctrCache.Set(page, l)
		return l
	}
	return ctr.Line{}
}

// CLWB flushes the line containing addr to NVM through the secure write
// path of the machine's mode. A clean (unmodified) line is a no-op, as
// in hardware.
func (m *Machine) CLWB(addr uint64) {
	if m.crashed {
		return
	}
	base := addr &^ (config.LineSize - 1)
	plain, dirty := m.cpuCache[base]
	if !dirty {
		return
	}
	if !m.pol.Encrypted {
		if !m.stepPersist() {
			return
		}
		m.persistData(base, plain)
		delete(m.cpuCache, base)
		return
	}

	if m.pol.CounterPersistInterval > 1 {
		// Relaxed counter persistence (tagged flush path, see osiris.go).
		m.osirisCLWB(base, plain)
		return
	}

	page := base / config.PageSize
	cl := m.currentCounter(page)
	li := ctr.LineIndex(base)
	if cl.Minors[li] == ctr.MinorMax {
		// Minor overflow: the page re-encrypts under major+1 before the
		// triggering write proceeds (Section 3.4.4).
		if !m.reencryptPage(page) {
			return // crashed mid-re-encryption; RSR holds the state
		}
		cl = m.currentCounter(page)
	}
	cl.Bump(li)
	pad := m.pads.otp(base, cl.Major, cl.Minors[li])
	cipherText := ctr.XorLine(plain, pad)

	// The counter cache advances only when the corresponding append to
	// the write queue actually happens: in hardware the bump and the
	// enqueue are the same event at the encryption engine, so a crash
	// that loses the data write must also lose the bump (otherwise a
	// battery flush would persist a counter whose data never landed).
	switch {
	case m.pol.WriteThrough && m.pol.Register:
		// The register appends data and counter atomically: one step.
		if !m.stepPersist() {
			return
		}
		m.persistData(base, cipherText)
		m.persistCtr(page, cl)
		m.ctrCache.Set(page, cl)
	case m.pol.WriteThrough:
		// Figure 6: counter first, then data — two separate steps with
		// a crash window between them.
		if !m.stepPersist() {
			return
		}
		m.persistCtr(page, cl)
		m.ctrCache.Set(page, cl)
		if !m.stepPersist() {
			return
		}
		m.persistData(base, cipherText)
	default:
		// Write-back: data goes to NVM; the counter stays dirty in the
		// volatile counter cache (battery or not matters only at crash).
		if !m.stepPersist() {
			return
		}
		m.persistData(base, cipherText)
		m.ctrCache.Set(page, cl)
		m.ctrDirty[page] = true
	}
	delete(m.cpuCache, base)
}

// SFence is ordering only: the machine applies operations in program
// order already, so it is a semantic no-op kept for API parity.
func (m *Machine) SFence() {}

// reencryptPage re-encrypts every line of a page under major+1 with
// zeroed minors, tracked by the ADR-protected RSR. Each line rewrite is
// one persistence step; the final counter-line persist is another. It
// reports false if the machine crashed partway (the RSR stays armed).
func (m *Machine) reencryptPage(page uint64) bool {
	start := uint64(m.persists)
	defer func() { m.rec.SpanArg(obs.TrackRSR, "re-encrypt page", start, uint64(m.persists), "page", page) }()
	old := m.currentCounter(page)
	m.rsr = &rsrState{page: page, oldMajor: old.Major, oldLine: old}
	newLine := ctr.Line{Major: old.Major + 1}
	base := page * config.PageSize
	// Batch-generate the window's 64 fresh pads (major+1, minor 0) up
	// front, as the pipelined AES engine would; the sweep below then
	// runs entirely on cache hits, and a crash mid-sweep leaves the
	// remaining pads resident for finishReencryption.
	m.pads.precomputePage(base, newLine.Major, 0)
	for i := 0; i < config.LinesPerPage; i++ {
		la := base + uint64(i)*config.LineSize
		// Plaintext of the line under the old counter (or the dirty
		// cached copy).
		plain := m.loadLine(la)
		pad := m.pads.otp(la, newLine.Major, 0)
		if !m.stepPersist() {
			return false
		}
		m.persistData(la, ctr.XorLine(plain, pad))
		m.rsr.done[i] = true
		// A cached dirty copy has now been persisted as part of the
		// sweep; drop it so later reads come from NVM consistently.
		delete(m.cpuCache, la)
	}
	if !m.stepPersist() {
		return false
	}
	m.persistCtr(page, newLine)
	m.ctrCache.Set(page, newLine)
	delete(m.ctrDirty, page)
	m.rsr = nil
	return true
}

// FlushCounters persists every dirty counter line, as if the write-back
// counter cache had evicted them during an idle period. Table 1's
// premise — that the counters protecting *old* data are correct — holds
// only after such a flush, so the crash harness calls this between the
// setup transaction and the transaction under test.
func (m *Machine) FlushCounters() {
	if m.crashed {
		return
	}
	for page := range m.ctrDirty {
		if l, ok := m.ctrCache.Peek(page); ok {
			m.persistCtr(page, l)
		}
	}
	m.ctrDirty = make(map[uint64]bool)
}

// Crash powers the machine off immediately (equivalent to reaching the
// injected crash point). Due media faults strike the persisted state
// first — power loss does not outrun physics.
func (m *Machine) Crash() {
	if m.inj != nil && !m.crashed {
		m.inj.Sync(injMem{m})
	}
	m.crashed = true
}

// Recover boots the successor machine from the persistent domain: NVM
// plus whatever ADR and the battery (if any) preserved. Volatile CPU
// caches and (without battery) dirty counters are gone. The RSR, being
// ADR-protected, survives and finishes any in-flight page
// re-encryption (Section 3.4.4).
//
// The recovery work itself runs through the successor's persistence
// accounting, so passing WithCrashAtPersist arms a *nested* crash: the
// successor can power off partway through finishing the RSR state
// machine (or, at the harness level, partway through redo-log
// recovery), and a further Recover must pick up from there. The
// battery flush of WBBattery is exempt — it happens on the dying
// machine under guaranteed power.
func (m *Machine) Recover(opts ...Option) *Machine {
	n := &Machine{
		mode:     m.mode,
		pol:      m.pol,
		cipher:   m.cipher,
		pads:     m.pads, // pads are key-pure; successors reuse the warm cache
		nvmData:  maps.Clone(m.nvmData),
		nvmCtr:   maps.Clone(m.nvmCtr),
		nvmTag:   maps.Clone(m.nvmTag),
		cpuCache: make(map[uint64]line),
		ctrCache: ctr.NewStore(),
		ctrDirty: make(map[uint64]bool),
		crashAt:  -1,
	}
	n.rec = m.rec
	n.inj = m.inj
	n.recoveryBound = m.recoveryBound
	n.apply(opts)
	n.rec.Instant(obs.TrackMachine, "recover", uint64(m.persists))
	n.treeVerifyOff = m.treeVerifyOff
	// Rebuild the successor's tree from the persisted image before any
	// recovery work persists counters through it (battery flush, RSR
	// completion, Osiris probing).
	n.recoverTree(m)
	if m.pol.Battery {
		// The battery flushes every dirty counter line on power loss.
		for page := range m.ctrDirty {
			if l, ok := m.ctrCache.Peek(page); ok {
				n.persistCtr(page, l)
			}
		}
	}
	if m.rsr != nil {
		cp := *m.rsr
		n.rsr = &cp
		n.finishReencryption()
	}
	if m.pol.Tagged && !n.crashed {
		n.recoverOsirisCounters()
	}
	return n
}

// finishReencryption completes the interrupted page re-encryption
// recorded in the machine's RSR: lines already re-encrypted hold
// (major+1, 0); pending lines still hold their old counters, so they
// are decrypted with the old counter line and re-encrypted under the
// new one. Every pending line rewrite is one persistence micro-step
// that marks the line's RSR done bit, and the final counter-line
// persist is another — so a nested crash mid-recovery leaves an RSR
// from which the next Recover continues.
func (m *Machine) finishReencryption() {
	r := m.rsr
	start := uint64(m.persists)
	defer func() { m.rec.SpanArg(obs.TrackRSR, "rsr recovery", start, uint64(m.persists), "page", r.page) }()
	newLine := ctr.Line{Major: r.oldMajor + 1}
	base := r.page * config.PageSize
	for i := 0; i < config.LinesPerPage; i++ {
		la := base + uint64(i)*config.LineSize
		if r.done[i] {
			continue
		}
		if !m.takeRecoveryStep() {
			return // budget spent: staged recovery, RSR stays armed
		}
		oldPad := m.pads.otp(la, r.oldLine.Major, r.oldLine.Minors[i])
		plain := ctr.XorLine(m.readData(la), oldPad)
		newPad := m.pads.otp(la, newLine.Major, 0)
		if !m.stepPersist() {
			return
		}
		m.persistData(la, ctr.XorLine(plain, newPad))
		r.done[i] = true
	}
	if !m.takeRecoveryStep() {
		return
	}
	if !m.stepPersist() {
		return
	}
	m.persistCtr(r.page, newLine)
	m.rsr = nil
}

// takeRecoveryStep charges one persistence micro-step against the
// recovery-work budget. When the budget is spent it records the
// bounded-recovery event and reports false — the caller stops with the
// RSR armed, degrading to staged recovery instead of stalling on an
// adversarially large backlog.
func (m *Machine) takeRecoveryStep() bool {
	if m.recoveryBound <= 0 {
		return true
	}
	if m.recoveryUsed < m.recoveryBound {
		m.recoveryUsed++
		return true
	}
	m.boundedRecoveries++
	m.rec.Count(obs.SeriesRecoveryBounded, uint64(m.persists), 1)
	m.rec.Instant(obs.TrackMachine, "recovery bounded", uint64(m.persists))
	return false
}

// NVMLines returns the sorted line addresses that have ever been
// persisted to NVM — the address space the crash fuzzer diffs when a
// recovery diverges from its replay.
func (m *Machine) NVMLines() []uint64 {
	out := make([]uint64, 0, len(m.nvmData))
	for a := range m.nvmData {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PersistedCounter returns the counter line persisted in NVM for a
// page, and whether one exists (diagnostics: the in-flight cached
// counter is deliberately not consulted).
func (m *Machine) PersistedCounter(page uint64) (ctr.Line, bool) {
	l, ok := m.nvmCtr[page]
	return l, ok
}

// DirtyCacheLines returns the number of unflushed CPU cache lines
// (diagnostics for tests).
func (m *Machine) DirtyCacheLines() int { return len(m.cpuCache) }
