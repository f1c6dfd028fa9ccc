// crashrecovery: Table 1, live. Runs durable transactions on the
// byte-accurate encrypted machine — NVM contents really are ciphertext
// under split counters — crashes at every persistence step, recovers,
// and reports whether the data survived. A write-back counter cache
// without battery loses the counters that decrypt the log and data, so
// mutate- and commit-stage crashes corrupt; SuperMem persists counters
// atomically with their data and recovers everywhere.
package main

import (
	"fmt"
	"log"

	"supermem"
)

func main() {
	fmt.Println("Crash-recoverability of a durable transaction, by stage (Table 1)")
	fmt.Println()
	res, err := supermem.Table1()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res)

	fmt.Println("Whole-structure crash fuzzing (every persistence step,")
	fmt.Println("recovered state checked against a deterministic replay):")
	fmt.Println()
	for _, mode := range []supermem.CrashMode{supermem.CrashSuperMem, supermem.CrashWBNoBattery} {
		for _, wl := range []string{"queue", "btree", "rbtree"} {
			fuzz, err := supermem.CrashFuzz(supermem.CrashFuzzParams{
				Workload: wl,
				Steps:    8,
				Modes:    []supermem.CrashMode{mode},
			})
			if err != nil {
				log.Fatal(err)
			}
			v := fuzz.Verdicts[0]
			verdict := "every crash point consistent"
			if !v.Consistent() {
				verdict = fmt.Sprintf("%d/%d crash points CORRUPTED", len(v.Inconsistent), v.Tested)
			}
			fmt.Printf("  %-14s %-8s: %s\n", mode, wl, verdict)
		}
	}
	fmt.Println()
	fmt.Println("The corruption is real decryption failure: the recovered log or")
	fmt.Println("data XORs against a pad derived from a stale counter (Figure 4).")
}
