package supermem_test

import (
	"fmt"

	"supermem"
)

// ExampleSimulate runs one workload under two schemes and compares the
// NVM write amplification — the write-through baseline persists a
// counter for every data write, doubling traffic.
func ExampleSimulate() {
	spec := supermem.RunSpec{
		Workload:       "queue",
		TxBytes:        256,
		Transactions:   25,
		Warmup:         20,
		FootprintBytes: 256 << 10,
	}

	spec.Scheme = supermem.Unsec
	unsec, err := supermem.Simulate(spec)
	if err != nil {
		panic(err)
	}
	spec.Scheme = supermem.WT
	wt, err := supermem.Simulate(spec)
	if err != nil {
		panic(err)
	}
	ratio := float64(wt.TotalNVMWrites()) / float64(unsec.TotalNVMWrites())
	fmt.Printf("WT writes about %.0fx the NVM lines of an un-encrypted system\n", ratio)
	// Output:
	// WT writes about 2x the NVM lines of an un-encrypted system
}

// ExampleCrashFuzz crash-tests every persistence step of a workload on
// the byte-accurate SuperMem machine: the recovered structure always
// matches a transaction boundary.
func ExampleCrashFuzz() {
	res, err := supermem.CrashFuzz(supermem.CrashFuzzParams{
		Workload: "array",
		Steps:    4,
		Modes:    []supermem.CrashMode{supermem.CrashSuperMem},
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("all crash points consistent:", res.Verdicts[0].Consistent())
	// Output:
	// all crash points consistent: true
}

// ExampleTable1 reproduces the paper's Table 1 verdicts for the two
// headline designs.
func ExampleTable1() {
	res, err := supermem.Table1()
	if err != nil {
		panic(err)
	}
	wb := res.Recoverable[supermem.CrashWBNoBattery]
	sm := res.Recoverable[supermem.CrashSuperMem]
	fmt.Printf("write-back, no battery: prepare=%t mutate=%t commit=%t\n", wb[0], wb[1], wb[2])
	fmt.Printf("SuperMem:               prepare=%t mutate=%t commit=%t\n", sm[0], sm[1], sm[2])
	// Output:
	// write-back, no battery: prepare=true mutate=false commit=false
	// SuperMem:               prepare=true mutate=true commit=true
}
