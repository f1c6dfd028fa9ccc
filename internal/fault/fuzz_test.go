package fault

import (
	"reflect"
	"testing"
)

// FuzzGenerate treats arbitrary bytes as a packed PlanConfig; every
// config the validator accepts must generate reproducibly.
func FuzzGenerate(f *testing.F) {
	f.Add(int64(1), uint16(8), uint8(2), uint8(1), uint8(1), uint8(1), uint8(3), uint8(2))
	f.Add(int64(-7), uint16(1), uint8(0), uint8(0), uint8(1), uint8(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, steps uint16, flips, stucks, torns, ctrs, bankFaults, spikes uint8) {
		c := PlanConfig{
			Seed: seed, Steps: int(steps),
			BitFlips: int(flips), StuckAts: int(stucks), TornWrites: int(torns), CtrFaults: int(ctrs),
			Banks: 8, BankFaults: int(bankFaults), LatencySpikes: int(spikes),
		}
		p1, err := Generate(c)
		if err != nil {
			return // invalid config (e.g. media faults with steps=0)
		}
		p2, err := Generate(c)
		if err != nil {
			t.Fatalf("second Generate errored: %v", err)
		}
		if !reflect.DeepEqual(p1, p2) {
			t.Fatalf("Generate is not deterministic:\n%+v\n%+v", p1, p2)
		}
	})
}
