// Package alloc provides a line-aligned persistent-heap allocator. A
// heap owns one or more contiguous address regions (typically slices of
// adjacent NVM banks, matching the paper's "the OS usually allocates
// continuous memory space … which may locate in the adjacent banks")
// and hands out extents round-robin across them, so consecutive
// allocations stripe over the program's banks.
package alloc

import (
	"fmt"

	"supermem/internal/config"
)

// Region is one contiguous address range [Base, Base+Size).
type Region struct {
	Base uint64
	Size uint64
}

// End returns the first address past the region.
func (r Region) End() uint64 { return r.Base + r.Size }

type regionState struct {
	Region
	next uint64
}

// Heap is a bump allocator with per-size free lists.
type Heap struct {
	regions []*regionState
	cur     int
	free    map[uint64][]uint64 // rounded size -> free addresses
}

// NewHeap builds a heap over the given regions. Regions must be
// line-aligned and non-empty.
func NewHeap(regions ...Region) (*Heap, error) {
	if len(regions) == 0 {
		return nil, fmt.Errorf("alloc: heap needs at least one region")
	}
	h := &Heap{free: make(map[uint64][]uint64)}
	for _, r := range regions {
		if r.Size == 0 {
			return nil, fmt.Errorf("alloc: empty region at %#x", r.Base)
		}
		if r.Base%config.LineSize != 0 || r.Size%config.LineSize != 0 {
			return nil, fmt.Errorf("alloc: region %#x+%#x not line-aligned", r.Base, r.Size)
		}
		h.regions = append(h.regions, &regionState{Region: r, next: r.Base})
	}
	return h, nil
}

// round returns size rounded up to a whole number of lines.
func round(size uint64) uint64 {
	if size == 0 {
		size = 1
	}
	return (size + config.LineSize - 1) &^ (config.LineSize - 1)
}

// Alloc returns a line-aligned extent of at least size bytes. It prefers
// recycled extents of the same rounded size, then bumps the next region
// in round-robin order.
func (h *Heap) Alloc(size uint64) (uint64, error) {
	rs := round(size)
	if fl := h.free[rs]; len(fl) > 0 {
		addr := fl[len(fl)-1]
		h.free[rs] = fl[:len(fl)-1]
		return addr, nil
	}
	for tries := 0; tries < len(h.regions); tries++ {
		r := h.regions[h.cur]
		h.cur = (h.cur + 1) % len(h.regions)
		if r.next+rs <= r.End() {
			addr := r.next
			r.next += rs
			return addr, nil
		}
	}
	return 0, fmt.Errorf("alloc: out of memory allocating %d bytes", size)
}

// Free recycles an extent previously returned by Alloc with the same
// size.
func (h *Heap) Free(addr, size uint64) {
	rs := round(size)
	h.free[rs] = append(h.free[rs], addr)
}

// Remaining returns the unallocated bump space across all regions
// (excluding free lists).
func (h *Heap) Remaining() uint64 {
	var total uint64
	for _, r := range h.regions {
		total += r.End() - r.next
	}
	return total
}
