package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"supermem/internal/bench"
	"supermem/internal/config"
)

// TestTimingDigests pins every simulated statistic at write-path
// geometries no golden artifact covers. Each cell runs a 64 KiB b-tree
// and hashes its stats.Metrics and per-bank BankStats JSON. The grid
// reaches the scheduler's edges: a 2-entry queue is smaller than the
// FR-FCFS issue window, and at 128 banks WT+XBank and SuperMem put
// counter writes on banks 64 and up, past a 64-bit per-bank mask. Any
// change to queue, cache or event ordering that moves one simulated
// cycle changes a digest.
func TestTimingDigests(t *testing.T) {
	want := map[string]string{
		"banks2/wq2/WT/1c":          "1938fead514736be",
		"banks2/wq2/WT/8c":          "43496d5740b2ae05",
		"banks2/wq2/WT+XBank/1c":    "1938fead514736be",
		"banks2/wq2/WT+XBank/8c":    "12d71b51bf5ed5c7",
		"banks2/wq2/SuperMem/1c":    "1938fead514736be",
		"banks2/wq2/SuperMem/8c":    "f05c789532644b80",
		"banks2/wq32/WT/1c":         "36c6f0e0ebeca24a",
		"banks2/wq32/WT/8c":         "47b6cd95ff0a8cca",
		"banks2/wq32/WT+XBank/1c":   "36c6f0e0ebeca24a",
		"banks2/wq32/WT+XBank/8c":   "6464306eb06601eb",
		"banks2/wq32/SuperMem/1c":   "e36a6de3ac42c15a",
		"banks2/wq32/SuperMem/8c":   "f4debbc987274d58",
		"banks128/wq2/WT/1c":        "d8fae4647297abc7",
		"banks128/wq2/WT/8c":        "7cacacf82685503c",
		"banks128/wq2/WT+XBank/1c":  "66048fb8abd5e1ec",
		"banks128/wq2/WT+XBank/8c":  "5775b54daaca8e26",
		"banks128/wq2/SuperMem/1c":  "66048fb8abd5e1ec",
		"banks128/wq2/SuperMem/8c":  "5775b54daaca8e26",
		"banks128/wq32/WT/1c":       "b813abad798c6a3d",
		"banks128/wq32/WT/8c":       "863fdd9d752f604e",
		"banks128/wq32/WT+XBank/1c": "4553ef0ac55ea9d5",
		"banks128/wq32/WT+XBank/8c": "312bcb143372e23d",
		"banks128/wq32/SuperMem/1c": "3a466cf71617d76b",
		"banks128/wq32/SuperMem/8c": "297fbac059e95dea",
	}
	for _, banks := range []int{2, 128} {
		for _, wq := range []int{2, 32} {
			for _, s := range []config.Scheme{config.WT, config.WTXBank, config.SuperMem} {
				for _, cores := range []int{1, 8} {
					name := fmt.Sprintf("banks%d/wq%d/%v/%dc", banks, wq, s, cores)
					base := config.Default()
					base.Banks = banks
					base.WriteQueueEntries = wq
					m, bs, err := bench.RunWithBanks(bench.Spec{
						Base: base, Workload: "btree", Scheme: s, TxBytes: 1024,
						Transactions: 20, Cores: cores, FootprintBytes: 64 << 10, Seed: 1,
					})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					mj, err := json.Marshal(m)
					if err != nil {
						t.Fatal(err)
					}
					bj, err := json.Marshal(bs)
					if err != nil {
						t.Fatal(err)
					}
					sum := sha256.Sum256(append(mj, bj...))
					got := hex.EncodeToString(sum[:8])
					if got != want[name] {
						t.Errorf("%s: digest %s (%d cycles), want %s", name, got, m.Cycles, want[name])
					}
				}
			}
		}
	}
}
