// Package nvm models the non-volatile main memory device: the physical
// address layout (data region plus counter region), the contiguous-region
// bank mapping, and per-bank service timing for a PCM technology.
package nvm

import (
	"fmt"

	"supermem/internal/config"
)

// Layout describes the physical address map of the simulated NVM.
//
// Data occupies [0, DataBytes). Banks are contiguous regions:
// bank(addr) = addr / (DataBytes / Banks). This matches the paper's
// narrative — "the OS usually allocates continuous memory space for the
// same application which may locate in the adjacent banks", the
// multi-core experiments give each program a footprint "equal to the
// size of a memory bank", and the conventional counter layout is "a
// continuous area in NVM" that is a single bank (Figure 8a). All three
// statements require a whole bank to be one contiguous address range.
//
// Counter lines live above the data region in a dedicated counter
// region whose addresses encode their bank explicitly: the counter line
// for data page p placed in bank b sits at
// CtrBase + (p*Banks + b) * LineSize, and BankOf decodes b back out.
// This lets one layout serve all three placement policies of Figure 8
// without overlapping the data region.
type Layout struct {
	DataBytes uint64
	Banks     int
	// BankBytes is the size of one bank's data region.
	BankBytes uint64
	// CtrBase is the first byte of the counter region.
	CtrBase uint64
	// TotalBytes is the end of the counter region.
	TotalBytes uint64
}

// NewLayout builds the address map for the configured capacity and banks.
func NewLayout(cfg config.Config) Layout {
	pages := cfg.MemBytes / config.PageSize
	return Layout{
		DataBytes:  cfg.MemBytes,
		Banks:      cfg.Banks,
		BankBytes:  cfg.MemBytes / uint64(cfg.Banks),
		CtrBase:    cfg.MemBytes,
		TotalBytes: cfg.MemBytes + pages*uint64(cfg.Banks)*config.LineSize,
	}
}

// LineAddr returns the address of the line containing addr.
func LineAddr(addr uint64) uint64 { return addr &^ (config.LineSize - 1) }

// BankOf returns the bank a physical address maps to. Data addresses use
// the contiguous-region mapping; counter addresses decode the bank that
// was encoded by CounterLineAddr (config.Validate makes the bank count a
// power of two, so the decode is a mask).
func (l *Layout) BankOf(addr uint64) int {
	if addr < l.DataBytes {
		return int(addr / l.BankBytes)
	}
	return int((addr - l.CtrBase) / config.LineSize & uint64(l.Banks-1))
}

// IsCounter reports whether addr lies in the counter region.
func (l *Layout) IsCounter(addr uint64) bool { return addr >= l.CtrBase }

// PageOf returns the data page index of a data address.
func (l *Layout) PageOf(addr uint64) uint64 { return addr / config.PageSize }

// BankBase returns the first data address of bank b.
func (l *Layout) BankBase(b int) uint64 { return uint64(b) * l.BankBytes }

// CounterBank returns the bank that holds the counter line of dataAddr
// under the given placement policy. XBank's partner bank is half the
// banks away; the bank count is a power of two, so the wrap is a mask.
func (l *Layout) CounterBank(dataAddr uint64, p config.Placement) int {
	if p == config.SingleBank {
		return l.Banks - 1
	}
	bank := l.BankOf(dataAddr)
	switch p {
	case config.SameBank:
		return bank
	case config.XBank:
		return (bank + l.Banks/2) & (l.Banks - 1)
	}
	panic(badPlacement(p))
}

// CounterLineAddr returns the physical address of the counter line that
// protects the data page containing dataAddr, under the given placement
// policy. It panics if dataAddr is outside the data region: a counter of
// a counter is a model bug.
func (l *Layout) CounterLineAddr(dataAddr uint64, p config.Placement) uint64 {
	if dataAddr >= l.DataBytes {
		panic(notData{dataAddr, l.DataBytes})
	}
	page := l.PageOf(dataAddr)
	bank := l.CounterBank(dataAddr, p)
	return l.CtrBase + (page*uint64(l.Banks)+uint64(bank))*config.LineSize
}

// The lookups above panic with these values rather than a formatted
// string: the message is built only when a panic prints it, which
// keeps the lookups small enough to inline.
type (
	badPlacement config.Placement
	notData      struct{ addr, dataEnd uint64 }
)

func (p badPlacement) Error() string {
	return fmt.Sprintf("nvm: unknown placement %v", config.Placement(p))
}

func (e notData) Error() string {
	return fmt.Sprintf("nvm: counter lookup for non-data address %#x (data region ends at %#x)", e.addr, e.dataEnd)
}

// CounterPageOf inverts CounterLineAddr: it returns the data page index a
// counter-region address protects. It panics on non-counter addresses.
func (l *Layout) CounterPageOf(ctrAddr uint64) uint64 {
	if ctrAddr < l.CtrBase {
		panic(fmt.Sprintf("nvm: %#x is not in the counter region", ctrAddr))
	}
	return (ctrAddr - l.CtrBase) / config.LineSize / uint64(l.Banks)
}
