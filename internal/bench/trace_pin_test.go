package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"slices"
	"testing"

	"supermem/internal/config"
	"supermem/internal/trace"
	"supermem/internal/workload"
)

// TestTraceDigests pins the recorded op streams themselves. Every
// figure, table and crash verdict replays what BuildSources records, so
// a change to the tracing backend, the transaction layer, the
// allocator or a workload that moves one op, address or payload-driven
// branch changes a digest. Each stream is hashed over its
// trace.WriteBinary encoding. The specs cover the five paper
// structures at 1 and 8 cores, a 2-shard KV store and both adversarial
// workloads, at a scale that keeps the test well under a second.
func TestTraceDigests(t *testing.T) {
	want := map[string]string{
		"array/1c":     "26609f4de37d75d4",
		"array/8c":     "86106ca3c8209069",
		"btree/1c":     "27f80f863e801f3a",
		"btree/8c":     "2e9bc2b0b39571e3",
		"hashtable/1c": "9b7b174fcd182c8a",
		"hashtable/8c": "3acbe5733307e456",
		"queue/1c":     "dde2f9254d13533a",
		"queue/8c":     "d6815e6d768c82ac",
		"rbtree/1c":    "7fbf74f45e21446b",
		"rbtree/8c":    "19ff0d06b8df8064",
		"kv/2shards":   "2303e0c293df52bf",
		"ctrhammer/1c": "3170ae60caccbf77",
		"hotbank/1c":   "6f509472b0e0b31d",
	}
	base := tinyBase()
	spec := func(wl string, cores int) Spec {
		return Spec{
			Base: base, Workload: wl, Scheme: config.SuperMem, TxBytes: 1024,
			Transactions: 20, Cores: cores, FootprintBytes: 64 << 10, Seed: 1,
		}
	}
	specs := map[string]Spec{}
	for _, wl := range workload.Names {
		for _, cores := range []int{1, 8} {
			specs[fmt.Sprintf("%s/%dc", wl, cores)] = spec(wl, cores)
		}
	}
	kv := spec("kv", 2)
	kv.TxBytes = 256
	kv.KV = workload.KVConfig{Keys: 512, Theta: 0.99}
	specs["kv/2shards"] = kv
	for _, wl := range []string{"ctrhammer", "hotbank"} {
		s := spec(wl, 1)
		s.Attack = workload.AttackConfig{HotPages: warmupSteps(s, wl) + s.Transactions}
		specs[wl+"/1c"] = s
	}
	if len(specs) != len(want) {
		t.Fatalf("%d specs for %d pinned digests", len(specs), len(want))
	}
	for _, name := range slices.Sorted(maps.Keys(specs)) {
		s := specs[name]
		streams, err := BuildSources(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		h := sha256.New()
		ops := 0
		for _, st := range streams {
			if err := trace.WriteBinary(h, st); err != nil {
				t.Fatal(err)
			}
			ops += len(st)
		}
		got := hex.EncodeToString(h.Sum(nil)[:8])
		if got != want[name] {
			t.Errorf("%s: digest %s (%d ops), want %s", name, got, ops, want[name])
		}
	}
}
