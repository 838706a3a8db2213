package mem

import "testing"

// The granule memo (Sparse.memo) and the mapping memo
// (AddressSpace.last) cache facts that never change; these tests pin
// that neither can serve a stale or missing answer.

// TestGranuleMemoSeesLaterWrites: a read of a never-written granule must
// not cache its absence, so a write through any path is visible to the
// next word load.
func TestGranuleMemoSeesLaterWrites(t *testing.T) {
	s := NewSparse(4 << 20)
	const off = 5*chunkSize + 0x40
	if v := s.LoadWord(off, 8); v != 0 {
		t.Fatalf("unwritten LoadWord = %#x, want 0", v)
	}
	s.StoreWord(off, 8, 0x1122334455667788)
	if v := s.LoadWord(off, 8); v != 0x1122334455667788 {
		t.Fatalf("LoadWord after StoreWord = %#x", v)
	}

	const off2 = 9 * chunkSize
	if v := s.LoadWord(off2, 4); v != 0 {
		t.Fatalf("unwritten LoadWord = %#x, want 0", v)
	}
	s.WriteAt(off2, []byte{1, 2, 3, 4})
	if v := s.LoadWord(off2, 4); v != 0x04030201 {
		t.Fatalf("LoadWord after WriteAt = %#x", v)
	}
	if got := s.AllocatedBytes(); got != 2*chunkSize {
		t.Errorf("AllocatedBytes = %d, want the two written granules (%d)", got, 2*chunkSize)
	}
}

// TestGranuleMemoViewWrites: a write through View (the zero-copy DMA
// path) lands in the same granule the memo hands to LoadWord.
func TestGranuleMemoViewWrites(t *testing.T) {
	s := NewSparse(1 << 20)
	const off = 3*chunkSize + 0x100
	s.StoreWord(off, 8, 1) // materialize and fill the memo slot
	if v := s.LoadWord(off, 8); v != 1 {
		t.Fatalf("LoadWord = %d, want 1", v)
	}
	view, ok := s.View(off, 8)
	if !ok {
		t.Fatal("View of a materialized granule refused")
	}
	view[0], view[7] = 0xAB, 0xCD
	if v := s.LoadWord(off, 8); v != 0xCD000000_000000AB {
		t.Fatalf("LoadWord after View write = %#x", v)
	}
}

// TestGranuleMemoCollisions: granules whose numbers share a memo slot
// evict each other without mixing up their contents, and reads through
// the memo never materialize anything.
func TestGranuleMemoCollisions(t *testing.T) {
	s := NewSparse(4 * memoSlots * chunkSize)
	for i := uint64(0); i < 4; i++ {
		s.StoreWord(i*memoSlots*chunkSize+8, 8, 100+i)
	}
	before := s.AllocatedBytes()
	for round := 0; round < 3; round++ {
		for i := uint64(0); i < 4; i++ {
			if v := s.LoadWord(i*memoSlots*chunkSize+8, 8); v != 100+i {
				t.Fatalf("granule %d reads %d, want %d", i*memoSlots, v, 100+i)
			}
			if v := s.LoadWord(i*memoSlots*chunkSize+chunkSize, 8); v != 0 {
				t.Fatalf("unwritten neighbour of granule %d reads %d", i*memoSlots, v)
			}
		}
	}
	if got := s.AllocatedBytes(); got != before || got != 4*chunkSize {
		t.Errorf("AllocatedBytes = %d after reads, want %d", got, 4*chunkSize)
	}
}

// TestLookupMemoAcrossMap: Map re-sorts the mappings after Lookup has
// memoized one; lookups on either side of the new mapping, and inside
// it, still resolve to the right region and offset.
func TestLookupMemoAcrossMap(t *testing.T) {
	as := NewAddressSpace("v")
	lo, hi, mid := NewRAM("lo", 0x1000), NewRAM("hi", 0x1000), NewRAM("mid", 0x1000)
	if err := as.Map(0x1000, lo); err != nil {
		t.Fatal(err)
	}
	if err := as.Map(0x5000, hi); err != nil {
		t.Fatal(err)
	}
	check := func(addr uint64, want *Region, wantOff uint64) {
		t.Helper()
		r, off, err := as.Lookup(addr)
		if err != nil || r != want || off != wantOff {
			t.Fatalf("Lookup(%#x) = %v, %#x, %v; want %s, %#x", addr, r, off, err, want.Name, wantOff)
		}
	}
	check(0x5010, hi, 0x10) // memoizes hi
	if err := as.Map(0x3000, mid); err != nil {
		t.Fatal(err)
	}
	check(0x3008, mid, 0x8)
	check(0x5ff8, hi, 0xff8)
	check(0x1000, lo, 0)
	if _, _, err := as.Lookup(0x2000); err == nil {
		t.Fatal("Lookup in the gap after a memo fill succeeded")
	}
	check(0x3fff, mid, 0xfff)
	if _, _, err := as.Lookup(0x4000); err == nil {
		t.Fatal("Lookup just past a memoized mapping succeeded")
	}
}

// TestFrameResolvesOnlyWholeGranules: Frame hands out a frame only when
// one materialized RAM or ROM granule backs all of it, and its loads and
// stores then agree with AddressSpace.Load/Store.
func TestFrameResolvesOnlyWholeGranules(t *testing.T) {
	as := NewAddressSpace("v")
	ram, odd, tail := NewRAM("ram", 4*chunkSize), NewRAM("odd", 3*chunkSize), NewRAM("tail", chunkSize/2)
	rom := NewROM("rom", make([]byte, chunkSize))
	for _, m := range []struct {
		base uint64
		r    *Region
	}{{0, ram}, {0x10_0800, odd}, {0x20_0000, tail}, {0x30_0000, rom}, {0x40_0000, NewMMIO("regs", chunkSize, nil)}} {
		if err := as.Map(m.base, m.r); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []*Region{odd, tail} {
		r.Store().WriteAt(0, make([]byte, r.Size()))
	}
	for _, tc := range []struct {
		name string
		addr uint64
		ok   bool
	}{
		{"ram", 0x1008, true},
		{"rom", 0x30_0010, true},
		{"unmaterialized", 0x2008, false},
		{"unaligned region base", 0x10_1008, false},
		{"region ends inside the frame", 0x20_0008, false},
		{"mmio", 0x40_0008, false},
		{"unmapped", 0x50_0000, false},
	} {
		if tc.name == "ram" {
			ram.Store().StoreWord(0x1000, 1, 1) // materialize the frame
		}
		f, ok := as.Frame(tc.addr)
		if ok != tc.ok {
			t.Errorf("%s: Frame(%#x) ok = %v, want %v", tc.name, tc.addr, ok, tc.ok)
			continue
		}
		if ok && f.ROM != (tc.name == "rom") {
			t.Errorf("%s: ROM = %v", tc.name, f.ROM)
		}
	}
	f, _ := as.Frame(0x1008)
	ram.Store().WatchCode(0x1000, 1)
	f.Store(0x8, 8, 0x1122334455667788)
	if v, _ := as.Load(0x1008, 8); v != 0x1122334455667788 {
		t.Errorf("AddressSpace.Load after Frame.Store = %#x", v)
	}
	if ram.Store().CodeGen() != 1 {
		t.Errorf("Frame.Store to a watched frame left CodeGen at %d", ram.Store().CodeGen())
	}
	if err := as.Store(0x100c, 2, 0xABCD); err != nil {
		t.Fatal(err)
	}
	if v := f.Load(0xc, 2); v != 0xABCD {
		t.Errorf("Frame.Load after AddressSpace.Store = %#x", v)
	}
}
