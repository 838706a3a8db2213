package tlb

import (
	"testing"

	"flick/internal/paging"
)

func walkFor(va, pa, size uint64, flags paging.Flags) paging.Walk {
	base := va &^ (size - 1)
	pbase := pa &^ (size - 1)
	return paging.Walk{VA: va, PhysAddr: pbase + (va - base), PageBase: pbase, PageSize: size, Flags: flags}
}

func TestLookupMissThenHit(t *testing.T) {
	tl := New("d-tlb", 4)
	if _, ok := tl.Lookup(0x1000); ok {
		t.Fatal("empty TLB hit")
	}
	r := tl.Insert(0x1234, walkFor(0x1234, 0x9234, paging.PageSize4K, paging.Flags{Writable: true}))
	if r.Phys != 0x9234 || r.Hit {
		t.Errorf("insert result = %+v", r)
	}
	r2, ok := tl.Lookup(0x1FF8)
	if !ok || r2.Phys != 0x9FF8 || !r2.Hit {
		t.Errorf("hit = %+v, %v", r2, ok)
	}
	hits, misses := tl.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("stats = %d/%d", hits, misses)
	}
}

func TestLRUEviction(t *testing.T) {
	tl := New("d-tlb", 2)
	tl.Insert(0x1000, walkFor(0x1000, 0xA000, paging.PageSize4K, paging.Flags{}))
	tl.Insert(0x2000, walkFor(0x2000, 0xB000, paging.PageSize4K, paging.Flags{}))
	// Touch 0x1000 so 0x2000 becomes LRU.
	if _, ok := tl.Lookup(0x1000); !ok {
		t.Fatal("expected hit")
	}
	tl.Insert(0x3000, walkFor(0x3000, 0xC000, paging.PageSize4K, paging.Flags{}))
	if _, ok := tl.Lookup(0x2000); ok {
		t.Error("LRU entry not evicted")
	}
	if _, ok := tl.Lookup(0x1000); !ok {
		t.Error("recently used entry evicted")
	}
	if tl.Len() != 2 {
		t.Errorf("Len = %d", tl.Len())
	}
}

func TestHugePageEntryCoverage(t *testing.T) {
	tl := New("d-tlb", 16)
	tl.Insert(1<<30, walkFor(1<<30, 4<<30, paging.PageSize1G, paging.Flags{Writable: true, User: true}))
	r, ok := tl.Lookup(1<<30 + 123456789)
	if !ok {
		t.Fatal("1G entry did not cover offset")
	}
	if want := uint64(4<<30 + 123456789); r.Phys != want {
		t.Errorf("Phys = %#x, want %#x", r.Phys, want)
	}
}

func TestRemapRegister(t *testing.T) {
	// The paper's Fig. 3 example: local DDR at 0x80000000 exposed at host
	// 0xA0000000 → delta 0x20000000.
	tl := New("nxp-d-tlb", 16)
	tl.SetRemap(Remap{HostBase: 0xA000_0000, Size: 4 << 20, Delta: 0x2000_0000})
	tl.Insert(0x4_0000_0000, walkFor(0x4_0000_0000, 0xA000_0000, paging.PageSize4K, paging.Flags{Writable: true}))
	r, ok := tl.Lookup(0x4_0000_0010)
	if !ok {
		t.Fatal("miss")
	}
	if r.Phys != 0x8000_0010 {
		t.Errorf("remapped phys = %#x, want 0x80000010", r.Phys)
	}
	// Addresses outside the window pass through.
	tl.Insert(0x5_0000_0000, walkFor(0x5_0000_0000, 0x1000, paging.PageSize4K, paging.Flags{}))
	r, _ = tl.Lookup(0x5_0000_0000)
	if r.Phys != 0x1000 {
		t.Errorf("non-window phys = %#x", r.Phys)
	}
	if !tl.RemapReg().Active() {
		t.Error("remap register reads back inactive")
	}
}

func TestHolesBypassTranslation(t *testing.T) {
	tl := New("nxp-d-tlb", 16)
	tl.AddHole(Hole{VABase: 0xFFFF_8000_0000_0000, Size: 1 << 20, PhysBase: 0x8100_0000})
	r, ok := tl.Lookup(0xFFFF_8000_0000_0040)
	if !ok || r.Phys != 0x8100_0040 || !r.Hit {
		t.Errorf("hole lookup = %+v, %v", r, ok)
	}
	// Holes survive a flush; entries don't.
	tl.Insert(0x1000, walkFor(0x1000, 0x2000, paging.PageSize4K, paging.Flags{}))
	tl.Flush()
	if _, ok := tl.Lookup(0x1000); ok {
		t.Error("entry survived flush")
	}
	if _, ok := tl.Lookup(0xFFFF_8000_0000_0040); !ok {
		t.Error("hole did not survive flush")
	}
}

func TestFlushPage(t *testing.T) {
	tl := New("d-tlb", 16)
	tl.Insert(0x1000, walkFor(0x1000, 0xA000, paging.PageSize4K, paging.Flags{}))
	tl.Insert(0x2000, walkFor(0x2000, 0xB000, paging.PageSize4K, paging.Flags{}))
	tl.FlushPage(0x1FFF)
	if _, ok := tl.Lookup(0x1000); ok {
		t.Error("FlushPage missed target")
	}
	if _, ok := tl.Lookup(0x2000); !ok {
		t.Error("FlushPage dropped innocent entry")
	}
}

func TestFlagsPreserved(t *testing.T) {
	tl := New("i-tlb", 16)
	tl.Insert(0x7000, walkFor(0x7000, 0x8000, paging.PageSize4K, paging.Flags{NX: true, User: true}))
	r, _ := tl.Lookup(0x7000)
	if !r.Flags.NX || !r.Flags.User || r.Flags.Writable {
		t.Errorf("flags = %+v", r.Flags)
	}
}

func TestZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("capacity 0 accepted")
		}
	}()
	New("bad", 0)
}

func TestCoversAtAddressSpaceTop(t *testing.T) {
	// Regression: a page ending exactly at 2^64 used to compute
	// VABase+PageSize, which wraps to 0 and makes the entry cover nothing.
	top := ^uint64(0)
	base := top &^ (paging.PageSize4K - 1)
	e := Entry{VABase: base, PageSize: paging.PageSize4K, PhysBase: 0x9000}
	if !e.covers(top) {
		t.Errorf("entry [%#x, 2^64) does not cover %#x", base, top)
	}
	if !e.covers(base) {
		t.Errorf("entry [%#x, 2^64) does not cover its own base", base)
	}
	if e.covers(base - 1) {
		t.Errorf("entry [%#x, 2^64) covers %#x below it", base, base-1)
	}
	if e.covers(0) {
		t.Error("top page covers va 0 (wraparound)")
	}
}

func TestLookupHitAtAddressSpaceTop(t *testing.T) {
	top := ^uint64(0)
	base := top &^ (paging.PageSize4K - 1)
	tl := New("d-tlb", 4)
	tl.Insert(base, walkFor(base, 0x9000, paging.PageSize4K, paging.Flags{Writable: true}))
	r, ok := tl.Lookup(top)
	if !ok || r.Phys != 0x9000+paging.PageSize4K-1 {
		t.Errorf("lookup(%#x) = %+v, %v", top, r, ok)
	}
	if _, ok := tl.Peek(top); !ok {
		t.Errorf("peek(%#x) missed", top)
	}
	// FlushPage on the top page must drop the entry, not skip it.
	tl.FlushPage(top)
	if tl.Len() != 0 {
		t.Errorf("entry survived shootdown at address-space top, len = %d", tl.Len())
	}
}

func TestRemapAtAddressSpaceTop(t *testing.T) {
	// A remap window touching the top of the physical address space:
	// HostBase+Size wraps to 0, which used to deactivate the window.
	base := ^uint64(0) - 0xFFF
	r := Remap{HostBase: base, Size: 0x1000, Delta: base - 0x4000}
	if got := r.Apply(base + 0x10); got != 0x4010 {
		t.Errorf("Apply(%#x) = %#x, want 0x4010", base+0x10, got)
	}
	if got := r.Apply(base - 1); got != base-1 {
		t.Errorf("Apply below window rewrote to %#x", got)
	}
	tl := New("n-dtlb", 4)
	tl.AddRemap(r)
	if got := tl.applyRemap(^uint64(0)); got != 0x4FFF {
		t.Errorf("applyRemap(top) = %#x, want 0x4FFF", got)
	}
	if got := tl.applyRemap(0); got != 0 {
		t.Errorf("applyRemap(0) = %#x, wraparound match", got)
	}
}

func TestHoleAtAddressSpaceTop(t *testing.T) {
	base := ^uint64(0) - 0xFFF
	tl := New("n-dtlb", 4)
	tl.AddHole(Hole{VABase: base, Size: 0x1000, PhysBase: 0x2000})
	r, ok := tl.Lookup(^uint64(0))
	if !ok || r.Phys != 0x2FFF {
		t.Errorf("hole lookup at top = %+v, %v", r, ok)
	}
	if _, ok := tl.Lookup(0); ok {
		t.Error("hole at top matched va 0 (wraparound)")
	}
	if _, ok := tl.Peek(^uint64(0)); !ok {
		t.Error("peek missed hole at top")
	}
}

// TestResultSpan pins Result.Span, the linear window the MMU's
// last-translation fast path offsets within: the whole page unless a
// hole intersects the page's virtual range or a remap window splits the
// raw page, then the 4 KiB frame when the frame itself is clean, else 0.
func TestResultSpan(t *testing.T) {
	const (
		g     = paging.PageSize1G
		frame = paging.PageSize4K
		va    = 1 << 30     // the 1 GiB page's virtual base
		raw   = 4 << 30     // its raw physical base
		mid   = 0x2000_0000 // an offset well inside the page
	)
	cases := []struct {
		name   string
		size   uint64 // page size of the entry
		holes  []Hole
		remaps []Remap
		off    uint64 // translated offset into the page
		want   uint64
	}{
		{name: "clean huge page", size: g, off: mid, want: g},
		{name: "hole inside page", size: g, off: 0, want: frame,
			holes: []Hole{{VABase: va + mid, Size: 0x10000, PhysBase: 0x8000_0000}}},
		{name: "hole inside frame", size: g, off: mid, want: 0,
			holes: []Hole{{VABase: va + mid + 0x800, Size: 0x100, PhysBase: 0x8000_0000}}},
		{name: "holes adjacent to page", size: g, off: mid, want: g,
			holes: []Hole{
				{VABase: va - 0x10000, Size: 0x10000, PhysBase: 0x8000_0000},
				{VABase: va + g, Size: 0x10000, PhysBase: 0x8001_0000},
			}},
		{name: "remap holds part of raw page", size: g, off: 0, want: frame,
			remaps: []Remap{{HostBase: raw + mid, Size: 0x1000_0000, Delta: 0x1_0000_0000}}},
		{name: "remap holds start of raw page", size: g, off: mid, want: frame,
			remaps: []Remap{{HostBase: raw - mid, Size: 2 * mid, Delta: 0x1_0000_0000}}},
		{name: "remap holds whole raw page", size: g, off: mid, want: g,
			remaps: []Remap{{HostBase: raw - g, Size: 4 * g, Delta: 0x1_0000_0000}}},
		{name: "remap misses raw page", size: g, off: mid, want: g,
			remaps: []Remap{{HostBase: raw + g, Size: g, Delta: 0x1_0000_0000}}},
		{name: "remap edge inside frame", size: g, off: mid, want: 0,
			remaps: []Remap{{HostBase: raw + mid + 0x800, Size: 0x1000_0000, Delta: 0x1_0000_0000}}},
		{name: "clean 4K page", size: frame, off: 0x10, want: frame},
		{name: "hole on 4K page", size: frame, off: 0x10, want: 0,
			holes: []Hole{{VABase: va + 0x800, Size: 0x100, PhysBase: 0x8000_0000}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tl := New("d-tlb", 4)
			for _, h := range tc.holes {
				tl.AddHole(h)
			}
			for _, r := range tc.remaps {
				tl.AddRemap(r)
			}
			ins := tl.Insert(va+tc.off, walkFor(va+tc.off, raw, tc.size, paging.Flags{}))
			hit, ok := tl.Lookup(va + tc.off)
			if !ok {
				t.Fatal("inserted entry missed")
			}
			if ins.Span != tc.want || hit.Span != tc.want {
				t.Errorf("Span = %#x (Insert), %#x (Lookup), want %#x", ins.Span, hit.Span, tc.want)
			}
		})
	}
}
