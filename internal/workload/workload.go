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

// fill writes a deterministic pattern derived from tag into buf, so
// Verify can recompute and compare payloads.
func fill(buf []byte, tag uint64) {
	s := tag*6364136223846793005 + 1442695040888963407
	for i := range buf {
		s = s*6364136223846793005 + 1442695040888963407
		buf[i] = byte(s >> 56)
	}
}

func checkFill(buf []byte, tag uint64) bool {
	want := make([]byte, len(buf))
	fill(want, tag)
	for i := range buf {
		if buf[i] != want[i] {
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
