package nvm

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"supermem/internal/config"
)

func testConfig() config.Config {
	c := config.Default()
	c.MemBytes = 1 << 20 // keep page counts small in tests: 128 KB banks
	return c
}

func TestLineAddr(t *testing.T) {
	cases := []struct{ in, want uint64 }{
		{0, 0}, {1, 0}, {63, 0}, {64, 64}, {127, 64}, {4096, 4096}, {4100, 4096},
	}
	for _, c := range cases {
		if got := LineAddr(c.in); got != c.want {
			t.Errorf("LineAddr(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestContiguousBankRegions(t *testing.T) {
	l := NewLayout(testConfig())
	if l.BankBytes != 128<<10 {
		t.Fatalf("BankBytes = %d, want 128KB", l.BankBytes)
	}
	for b := 0; b < l.Banks; b++ {
		base := l.BankBase(b)
		if got := l.BankOf(base); got != b {
			t.Errorf("BankOf(base of bank %d) = %d", b, got)
		}
		if got := l.BankOf(base + l.BankBytes - 1); got != b {
			t.Errorf("BankOf(last byte of bank %d) = %d", b, got)
		}
	}
	// Adjacent addresses in the middle of a bank stay in that bank.
	if l.BankOf(10*config.PageSize) != 0 || l.BankOf(l.BankBytes+10) != 1 {
		t.Error("contiguous mapping broken")
	}
}

func TestCounterRegionAboveData(t *testing.T) {
	cfg := testConfig()
	l := NewLayout(cfg)
	if l.CtrBase < cfg.MemBytes {
		t.Fatalf("counter region base %#x overlaps data region (%#x)", l.CtrBase, cfg.MemBytes)
	}
	if l.IsCounter(0) || l.IsCounter(cfg.MemBytes-1) {
		t.Error("data addresses classified as counter")
	}
	if !l.IsCounter(l.CtrBase) {
		t.Error("counter base not classified as counter")
	}
	if l.TotalBytes <= l.CtrBase {
		t.Error("counter region is empty")
	}
}

func TestCounterPlacementBanks(t *testing.T) {
	l := NewLayout(testConfig())
	for page := uint64(0); page < l.DataBytes/config.PageSize; page += 3 {
		addr := page*config.PageSize + 64
		dataBank := l.BankOf(addr)

		single := l.CounterLineAddr(addr, config.SingleBank)
		if got := l.BankOf(single); got != l.Banks-1 {
			t.Errorf("SingleBank: counter of %#x in bank %d, want %d", addr, got, l.Banks-1)
		}
		same := l.CounterLineAddr(addr, config.SameBank)
		if got := l.BankOf(same); got != dataBank {
			t.Errorf("SameBank: counter of %#x in bank %d, want %d", addr, got, dataBank)
		}
		x := l.CounterLineAddr(addr, config.XBank)
		want := (dataBank + l.Banks/2) % l.Banks
		if got := l.BankOf(x); got != want {
			t.Errorf("XBank: counter of %#x in bank %d, want %d", addr, got, want)
		}
	}
}

// Property: all lines of one page share one counter line; different pages
// never share a counter line (within a placement).
func TestCounterLineSharing(t *testing.T) {
	l := NewLayout(testConfig())
	for _, p := range []config.Placement{config.SingleBank, config.SameBank, config.XBank} {
		page0 := l.CounterLineAddr(0, p)
		for line := uint64(1); line < config.LinesPerPage; line++ {
			if got := l.CounterLineAddr(line*config.LineSize, p); got != page0 {
				t.Fatalf("%v: line %d of page 0 has counter %#x, line 0 has %#x", p, line, got, page0)
			}
		}
		page1 := l.CounterLineAddr(config.PageSize, p)
		if page1 == page0 {
			t.Fatalf("%v: pages 0 and 1 share counter line %#x", p, page0)
		}
	}
}

// Property: counter lines never collide across pages and placements, and
// all lie inside [CtrBase, TotalBytes).
func TestCounterAddressesDistinct(t *testing.T) {
	l := NewLayout(testConfig())
	seen := map[uint64]string{}
	for page := uint64(0); page < 32; page++ {
		for _, p := range []config.Placement{config.SingleBank, config.SameBank, config.XBank} {
			a := l.CounterLineAddr(page*config.PageSize, p)
			if a < l.CtrBase || a >= l.TotalBytes {
				t.Fatalf("counter address %#x outside counter region", a)
			}
			key := a
			// Same page may legitimately reuse an address across
			// placements only if the placements agree on the bank.
			if prev, ok := seen[key]; ok {
				prevPage := l.CounterPageOf(key)
				if prevPage != page {
					t.Fatalf("counter address %#x shared by pages %d and %d (%s, %v)", a, prevPage, page, prev, p)
				}
				continue
			}
			seen[key] = p.String()
		}
	}
}

func TestCounterPageOfInverts(t *testing.T) {
	l := NewLayout(testConfig())
	f := func(page uint16, placement uint8) bool {
		p := config.Placement(placement % 3)
		pg := uint64(page) % (l.DataBytes / config.PageSize)
		ctr := l.CounterLineAddr(pg*config.PageSize, p)
		return l.CounterPageOf(ctr) == pg
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCounterLineAddrMatchesModulo pins the counter-line address of
// every placement to its defining formula, the XBank partner bank
// wrapping with a modulo, at every power-of-two bank count from 2 to
// 128. Each bank's first and last byte are sampled with random data
// addresses.
func TestCounterLineAddrMatchesModulo(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for banks := 2; banks <= 128; banks *= 2 {
		cfg := config.Default()
		cfg.MemBytes = 16 << 20
		cfg.Banks = banks
		l := NewLayout(cfg)
		var addrs []uint64
		for b := 0; b < banks; b++ {
			addrs = append(addrs, l.BankBase(b), l.BankBase(b)+l.BankBytes-1)
		}
		for range 256 {
			addrs = append(addrs, uint64(rng.Int63n(int64(l.DataBytes))))
		}
		for _, addr := range addrs {
			dataBank := int(addr / l.BankBytes)
			for p, bank := range map[config.Placement]int{
				config.SingleBank: banks - 1,
				config.SameBank:   dataBank,
				config.XBank:      (dataBank + banks/2) % banks,
			} {
				want := l.CtrBase + (addr/config.PageSize*uint64(banks)+uint64(bank))*config.LineSize
				if got := l.CounterLineAddr(addr, p); got != want {
					t.Fatalf("%d banks, %v: CounterLineAddr(%#x) = %#x, want %#x (bank %d)", banks, p, addr, got, want, bank)
				}
			}
		}
	}
}

func TestCounterLookupOutsideDataPanics(t *testing.T) {
	l := NewLayout(testConfig())
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("CounterLineAddr accepted a counter-region address")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "non-data address") {
			t.Fatalf("panic message %q does not name the non-data address", msg)
		}
	}()
	l.CounterLineAddr(l.CtrBase, config.XBank)
}

func TestUnknownPlacementPanics(t *testing.T) {
	l := NewLayout(testConfig())
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("CounterBank accepted an unknown placement")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "unknown placement") {
			t.Fatalf("panic message %q does not name the placement", msg)
		}
	}()
	l.CounterBank(0, config.Placement(99))
}

func TestDeviceReadWriteTiming(t *testing.T) {
	cfg := testConfig()
	d := NewDevice(cfg)
	l := d.Layout()
	done := d.ReadLine(100, 0)
	if done != 100+cfg.ReadCycles {
		t.Fatalf("idle-bank read done at %d, want %d", done, 100+cfg.ReadCycles)
	}
	// Second op on the same bank queues behind the first.
	done2 := d.WriteLine(100, 64) // still bank 0
	if done2 != done+cfg.WriteCycles {
		t.Fatalf("queued write done at %d, want %d", done2, done+cfg.WriteCycles)
	}
	// A different bank is independent.
	done3 := d.WriteLine(100, l.BankBase(1))
	if done3 != 100+cfg.WriteCycles {
		t.Fatalf("other-bank write done at %d, want %d", done3, 100+cfg.WriteCycles)
	}
}

func TestDeviceBankParallelism(t *testing.T) {
	cfg := testConfig()
	d := NewDevice(cfg)
	l := d.Layout()
	// One write to each bank at t=0: all complete at WriteCycles.
	for b := 0; b < cfg.Banks; b++ {
		done := d.WriteLine(0, l.BankBase(b))
		if done != cfg.WriteCycles {
			t.Fatalf("bank %d write done at %d, want %d", b, done, cfg.WriteCycles)
		}
	}
	// All to one bank: serialized.
	var last uint64
	for i := 0; i < 4; i++ {
		last = d.WriteLine(0, uint64(i)*config.LineSize) // all bank 0
	}
	if last != 5*cfg.WriteCycles { // 1 earlier + 4 now
		t.Fatalf("serialized writes done at %d, want %d", last, 5*cfg.WriteCycles)
	}
}

func TestDeviceStats(t *testing.T) {
	cfg := testConfig()
	d := NewDevice(cfg)
	l := d.Layout()
	d.ReadLine(0, 0)
	d.WriteLine(0, l.BankBase(1))
	d.WriteLine(0, l.BankBase(2))
	tot := d.TotalStats()
	if tot.Reads != 1 || tot.Writes != 2 {
		t.Fatalf("stats = %+v, want 1 read 2 writes", tot)
	}
	if tot.BusyCycles != cfg.ReadCycles+2*cfg.WriteCycles {
		t.Fatalf("busy = %d, want %d", tot.BusyCycles, cfg.ReadCycles+2*cfg.WriteCycles)
	}
	per := d.Stats()
	if per[0].Reads != 1 || per[1].Writes != 1 || per[2].Writes != 1 {
		t.Fatalf("per-bank stats wrong: %+v", per[:3])
	}
}

func TestBankFree(t *testing.T) {
	d := NewDevice(testConfig())
	if !d.BankFree(0, 0) {
		t.Fatal("fresh bank not free")
	}
	done := d.WriteLine(0, 0)
	if d.BankFree(0, done-1) {
		t.Fatal("bank free before completion")
	}
	if !d.BankFree(0, done) {
		t.Fatal("bank not free at completion")
	}
	if d.BankFreeAt(0) != done {
		t.Fatalf("BankFreeAt = %d, want %d", d.BankFreeAt(0), done)
	}
}
