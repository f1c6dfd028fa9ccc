// Package workload implements the five microbenchmarks of the paper's
// evaluation — array, queue, B+tree, hash table, and red-black tree —
// as real persistent data structures programmed against the pmem
// Backend. All traversals read through the backend and all updates run
// as durable redo-log transactions, so the same code both generates the
// timing simulator's op streams (via pmem.TracingBackend) and runs on
// the byte-accurate crash machine (via machine.Machine).
//
// Each transaction carries roughly Params.TxBytes of new data — the
// "transaction request size" the paper sweeps over 256 B / 1 KB / 4 KB.
package workload

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"supermem/internal/alloc"
	"supermem/internal/pmem"
)

// Workload is one of the paper's microbenchmarks.
type Workload interface {
	// Name returns the paper's name for the workload.
	Name() string
	// Setup populates initial state with plain flushed stores (not
	// counted as transactions).
	Setup(tm *pmem.TxManager) error
	// Step executes one durable transaction of about TxBytes payload.
	Step(tm *pmem.TxManager) error
	// Verify checks the structure's invariants by reading through the
	// backend; it reports corruption after crashes. It must not modify
	// the workload: the crash fuzzer verifies one shared replay from
	// several workers at once, each with its own backend.
	Verify(b pmem.Backend) error
}

// Params configures a workload instance.
type Params struct {
	// Heap supplies persistent memory for the structure.
	Heap *alloc.Heap
	// TxBytes is the transaction request size.
	TxBytes int
	// Items scales the initial population / footprint.
	Items int
	// Seed drives the deterministic op mix.
	Seed int64
	// KV parameterizes the sharded "kv" workload (keyspace, request mix,
	// Zipfian skew, shard index); ignored by the paper's five
	// microbenchmarks.
	KV KVConfig
	// Attack parameterizes the adversarial workloads (AttackNames);
	// ignored by everything else.
	Attack AttackConfig
}

func (p Params) validate() error {
	if p.Heap == nil {
		return fmt.Errorf("workload: nil heap")
	}
	if p.TxBytes < 64 {
		return fmt.Errorf("workload: TxBytes %d below one line", p.TxBytes)
	}
	if p.Items <= 0 {
		return fmt.Errorf("workload: Items must be positive, got %d", p.Items)
	}
	return nil
}

// Names lists the workloads in the paper's figure order. The sharded
// "kv" serving workload is constructed by name too, but is not listed
// here: the figure grids iterate Names, and kv belongs to the KV-serving
// experiment, not the paper's five-workload figures.
var Names = []string{"array", "queue", "btree", "hashtable", "rbtree"}

// AttackNames lists the adversarial workloads of the attack experiment.
// Like "kv" they are constructed by name but kept out of Names: the
// paper's figure grids must not iterate them.
var AttackNames = []string{"ctrhammer", "hotbank"}

// New builds a workload by name.
func New(name string, p Params) (Workload, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	switch name {
	case "kv":
		return newKV(p)
	case "ctrhammer":
		return newCtrHammer(p)
	case "hotbank":
		return newHotBank(p)
	case "array":
		return newArray(p)
	case "queue":
		return newQueue(p)
	case "btree":
		return newBTree(p)
	case "hashtable":
		return newHashTable(p)
	case "rbtree":
		return newRBTree(p)
	default:
		return nil, fmt.Errorf("workload: unknown workload %q (have %v and \"kv\")", name, Names)
	}
}

// --- small codec helpers shared by the structures ---

func le64(b []byte) uint64     { return binary.LittleEndian.Uint64(b) }
func le32(b []byte) uint32     { return binary.LittleEndian.Uint32(b) }
func put64(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }
func put32(b []byte, v uint32) { binary.LittleEndian.PutUint32(b, v) }

func u64bytes(v uint64) []byte {
	var b [8]byte
	put64(b[:], v)
	return b[:]
}

// The payload pattern: byte i is the top byte of state i+2 of a 64-bit
// LCG seeded from the tag.
const lcgMul, lcgInc = 6364136223846793005, 1442695040888963407

// jumpMul and jumpInc advance the LCG eight states in one step:
// s' = jumpMul*s + jumpInc is lcgMul*s + lcgInc applied eight times.
var jumpMul, jumpInc = func() (m, c uint64) {
	m = 1
	for range 8 {
		m, c = m*lcgMul, c*lcgMul+lcgInc
	}
	return m, c
}()

// lanes returns the LCG states of a pattern's first eight bytes. fill
// and checkFill run eight interleaved copies of the LCG: lane k holds
// the state of byte i+k, and one jump step moves every lane on to byte
// i+k+8, so the eight multiplies behind a word do not wait on each
// other. Both keep the lanes and the jump constants in locals, which
// stay in registers across the loop.
func lanes(tag uint64) (l [8]uint64) {
	s := tag*lcgMul + lcgInc
	for k := range l {
		s = s*lcgMul + lcgInc
		l[k] = s
	}
	return l
}

// word packs the top bytes of eight lane states into one little-endian
// word, lane k into byte k.
func word(x0, x1, x2, x3, x4, x5, x6, x7 uint64) uint64 {
	return x0>>56 | x1>>56<<8 | x2>>56<<16 | x3>>56<<24 |
		x4>>56<<32 | x5>>56<<40 | x6>>56<<48 | x7>>56<<56
}

// fill writes a deterministic pattern derived from tag into buf, so
// Verify can recompute and compare payloads.
func fill(buf []byte, tag uint64) {
	m, c := jumpMul, jumpInc
	l := lanes(tag)
	x0, x1, x2, x3, x4, x5, x6, x7 := l[0], l[1], l[2], l[3], l[4], l[5], l[6], l[7]
	for ; len(buf) >= 8; buf = buf[8:] {
		put64(buf, word(x0, x1, x2, x3, x4, x5, x6, x7))
		x0, x1, x2, x3 = x0*m+c, x1*m+c, x2*m+c, x3*m+c
		x4, x5, x6, x7 = x4*m+c, x5*m+c, x6*m+c, x7*m+c
	}
	l = [8]uint64{x0, x1, x2, x3, x4, x5, x6, x7}
	for k := range buf {
		buf[k] = byte(l[k] >> 56)
	}
}

// checkFill reports whether buf holds fill's pattern for tag.
func checkFill(buf []byte, tag uint64) bool {
	m, c := jumpMul, jumpInc
	l := lanes(tag)
	x0, x1, x2, x3, x4, x5, x6, x7 := l[0], l[1], l[2], l[3], l[4], l[5], l[6], l[7]
	for ; len(buf) >= 8; buf = buf[8:] {
		if le64(buf) != word(x0, x1, x2, x3, x4, x5, x6, x7) {
			return false
		}
		x0, x1, x2, x3 = x0*m+c, x1*m+c, x2*m+c, x3*m+c
		x4, x5, x6, x7 = x4*m+c, x5*m+c, x6*m+c, x7*m+c
	}
	l = [8]uint64{x0, x1, x2, x3, x4, x5, x6, x7}
	for k := range buf {
		if buf[k] != byte(l[k]>>56) {
			return false
		}
	}
	return true
}

// setupStore writes and flushes bytes outside any transaction (initial
// population).
func setupStore(b pmem.Backend, addr uint64, data []byte) {
	b.Store(addr, data)
	pmem.FlushRange(b, addr, len(data))
	b.SFence()
}

// newRand builds a workload-private generator. Every constructor calls
// it exactly once with its own seed and stores the result in the
// instance — no *rand.Rand is ever shared between workload instances,
// which is what lets the bench layer build per-shard traces
// concurrently. Sharded workloads derive their per-instance seed with
// ShardSeed so shard k's stream is a pure function of (Seed, k).
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
