package bench

import (
	"encoding/json"
	"testing"

	"supermem/internal/config"
	"supermem/internal/trace"
)

func smallKVOpts() (Opts, KVOpts) {
	off := false
	o := Opts{Transactions: 15, FootprintBytes: 1 << 20, Seed: 3}
	ko := KVOpts{
		Shards:         []int{1, 2},
		Schemes:        []config.Scheme{config.Unsec, config.SuperMem},
		Thetas:         []float64{0.99},
		Keys:           128,
		UncoreVariants: &off,
	}
	return o, ko
}

// TestKVServeDeterministic: the KV artifact must be byte-identical at
// any worker parallelism — the cross-shard histogram merge and the cell
// collection are both order-independent.
func TestKVServeDeterministic(t *testing.T) {
	cfg := config.Default()
	o, ko := smallKVOpts()

	o.Parallel = 1
	serial, err := KVServe(cfg, o, ko)
	if err != nil {
		t.Fatal(err)
	}
	o.Parallel = 4
	parallel, err := KVServe(cfg, o, ko)
	if err != nil {
		t.Fatal(err)
	}
	sj, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}
	pj, err := json.Marshal(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if string(sj) != string(pj) {
		t.Fatalf("serial and parallel KV artifacts differ:\n%s\n%s", sj, pj)
	}
	if len(serial.Cells) != 4 { // 1 theta x 2 shard counts x 2 schemes
		t.Fatalf("got %d cells, want 4", len(serial.Cells))
	}
	for _, c := range serial.Cells {
		if c.Requests == 0 || c.P99 == 0 {
			t.Errorf("cell %+v: empty metrics", c)
		}
		if len(c.ShardP99) != c.Shards {
			t.Errorf("cell %+v: %d shard p99s for %d shards", c, len(c.ShardP99), c.Shards)
		}
		if c.MaxShardP99 < c.P99 {
			t.Errorf("cell %+v: max shard p99 %d below merged p99 %d", c, c.MaxShardP99, c.P99)
		}
	}
}

// TestKVShardStreamStableAcrossShardCounts: shard k's op stream is a
// pure function of (Seed, k) — growing the shard count must not perturb
// the streams of the shards that already existed.
func TestKVShardStreamStableAcrossShardCounts(t *testing.T) {
	spec := kvSpec()
	spec.Transactions = 20
	record := func(cores int) []trace.Stream {
		spec.Cores = cores
		ops, err := BuildSources(spec)
		if err != nil {
			t.Fatal(err)
		}
		return ops
	}
	two := record(2)
	four := record(4)
	for k := 0; k < 2; k++ {
		if len(two[k]) != len(four[k]) {
			t.Fatalf("shard %d: %d ops at 2 shards vs %d at 4", k, len(two[k]), len(four[k]))
		}
		for i := range two[k] {
			if two[k][i] != four[k][i] {
				t.Fatalf("shard %d op %d changed with shard count: %+v vs %+v",
					k, i, two[k][i], four[k][i])
			}
		}
	}
}

// TestKVServeUncoreVariants: the partitioned counter cache and per-core
// write queue configurations build, run, and drain, at the largest
// shard count and the most skewed theta whatever order the lists are
// given in.
func TestKVServeUncoreVariants(t *testing.T) {
	cfg := config.Default()
	o, ko := smallKVOpts()
	on := true
	ko.UncoreVariants = &on
	ko.Shards = []int{2, 1}
	ko.Thetas = []float64{0.99, 0}
	res, err := KVServe(cfg, o, ko)
	if err != nil {
		t.Fatal(err)
	}
	variants := 0
	for _, c := range res.Cells {
		if c.CtrPartition || c.PerCoreWQ {
			variants++
			if c.Requests == 0 {
				t.Errorf("variant cell %+v ran no requests", c)
			}
			if c.Shards != 2 || c.Theta != 0.99 {
				t.Errorf("uncore variant at %d shards, theta %v; want 2 shards, theta 0.99", c.Shards, c.Theta)
			}
		}
	}
	if variants != 3 { // {part}, {pcwq}, {both} at max shards
		t.Fatalf("got %d uncore-variant cells, want 3", variants)
	}
}

// TestKVServeCoreModel: the -kv-core knob serves requests on OoO shard
// cores. The artifact stays deterministic, and the model must actually
// change timing (request latencies shift against the in-order run).
func TestKVServeCoreModel(t *testing.T) {
	cfg := config.Default()
	o, ko := smallKVOpts()
	inorder, err := KVServe(cfg, o, ko)
	if err != nil {
		t.Fatal(err)
	}
	ko.CoreModel = config.CoreOoO
	serial, err := KVServe(cfg, o, ko)
	if err != nil {
		t.Fatal(err)
	}
	o.Parallel = 4
	parallel, err := KVServe(cfg, o, ko)
	if err != nil {
		t.Fatal(err)
	}
	sj, _ := json.Marshal(serial)
	pj, _ := json.Marshal(parallel)
	if string(sj) != string(pj) {
		t.Fatalf("serial and parallel OoO KV artifacts differ:\n%s\n%s", sj, pj)
	}
	changed := false
	for i := range serial.Cells {
		if serial.Cells[i].AvgCycles != inorder.Cells[i].AvgCycles {
			changed = true
		}
	}
	if !changed {
		t.Fatal("OoO shard cores produced identical timing to in-order on every cell")
	}
}
