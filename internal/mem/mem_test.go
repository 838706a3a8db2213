package mem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"
)

func TestSparseZeroFill(t *testing.T) {
	s := NewSparse(1 << 20)
	buf := make([]byte, 64)
	for i := range buf {
		buf[i] = 0xFF
	}
	s.ReadAt(12345, buf)
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d = %#x, want 0", i, b)
		}
	}
	if s.AllocatedBytes() != 0 {
		t.Errorf("reads materialized %d bytes", s.AllocatedBytes())
	}
}

func TestSparseReadWriteAcrossChunks(t *testing.T) {
	s := NewSparse(1 << 20)
	data := make([]byte, 3*chunkSize+17)
	for i := range data {
		data[i] = byte(i * 7)
	}
	off := uint64(chunkSize - 9) // straddles several chunk boundaries
	s.WriteAt(off, data)
	got := make([]byte, len(data))
	s.ReadAt(off, got)
	if !bytes.Equal(got, data) {
		t.Fatal("cross-chunk round trip mismatch")
	}
}

func TestSparseBoundsPanic(t *testing.T) {
	s := NewSparse(100)
	defer func() {
		if recover() == nil {
			t.Error("out-of-bounds write did not panic")
		}
	}()
	s.WriteAt(99, []byte{1, 2})
}

func TestSparseLazyAllocation(t *testing.T) {
	s := NewSparse(4 << 30) // "4 GB" DIMM
	s.WriteAt(3<<30, []byte{1})
	if got := s.AllocatedBytes(); got != chunkSize {
		t.Errorf("AllocatedBytes = %d, want %d", got, chunkSize)
	}
}

func TestSparseRoundTripProperty(t *testing.T) {
	s := NewSparse(1 << 22)
	f := func(off uint32, data []byte) bool {
		o := uint64(off) % (1<<22 - 4096)
		if len(data) > 4096 {
			data = data[:4096]
		}
		s.WriteAt(o, data)
		got := make([]byte, len(data))
		s.ReadAt(o, got)
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSparseWordMatchesReadWriteAt pins LoadWord/StoreWord to the
// byte-slice ReadAt/WriteAt they stand in for: same value, same bytes
// stored, same granules materialized and same code-generation bumps, at
// every size and at offsets inside a granule, at its edges and straddling
// two.
func TestSparseWordMatchesReadWriteAt(t *testing.T) {
	const size = 4 * chunkSize
	offsets := []uint64{0, 5, chunkSize - 8, chunkSize - 3, chunkSize - 1, chunkSize, 2*chunkSize + 100, size - 8}
	const v = 0x8877_6655_4433_2211
	for _, off := range offsets {
		for n := 1; n <= 8; n++ {
			// Two identical stores: granule 0 holds a pattern and is
			// watched as code, the rest start unmaterialized.
			mk := func() *Sparse {
				s := NewSparse(size)
				pat := make([]byte, chunkSize)
				for i := range pat {
					pat[i] = byte(i*13 + 1)
				}
				s.WriteAt(0, pat)
				s.WatchCode(0, chunkSize)
				return s
			}
			ref, word := mk(), mk()

			var buf [8]byte
			ref.ReadAt(off, buf[:n])
			if got, want := word.LoadWord(off, n), binary.LittleEndian.Uint64(buf[:]); got != want {
				t.Errorf("LoadWord(%#x, %d) = %#x, ReadAt gives %#x", off, n, got, want)
			}
			if word.AllocatedBytes() != ref.AllocatedBytes() {
				t.Errorf("LoadWord(%#x, %d) materialized %d bytes, ReadAt %d", off, n, word.AllocatedBytes(), ref.AllocatedBytes())
			}

			binary.LittleEndian.PutUint64(buf[:], v)
			ref.WriteAt(off, buf[:n])
			word.StoreWord(off, n, v)
			if word.CodeGen() != ref.CodeGen() || word.AllocatedBytes() != ref.AllocatedBytes() {
				t.Errorf("StoreWord(%#x, %d): codeGen %d alloc %d, WriteAt codeGen %d alloc %d",
					off, n, word.CodeGen(), word.AllocatedBytes(), ref.CodeGen(), ref.AllocatedBytes())
			}
			a, b := make([]byte, size), make([]byte, size)
			ref.ReadAt(0, a)
			word.ReadAt(0, b)
			if !bytes.Equal(a, b) {
				t.Errorf("StoreWord(%#x, %d) left different contents than WriteAt", off, n)
			}
		}
	}
}

// TestSparseLoadWordUnmaterialized pins the zero-read contract: loading
// from a granule nobody wrote returns 0, materializes nothing and
// allocates nothing.
func TestSparseLoadWordUnmaterialized(t *testing.T) {
	s := NewSparse(1 << 20)
	var got uint64
	allocs := testing.AllocsPerRun(100, func() {
		got |= s.LoadWord(0x5008, 8) | s.LoadWord(0x6FFC, 8) | s.LoadWord(0x7001, 1)
	})
	if got != 0 || allocs != 0 || s.AllocatedBytes() != 0 {
		t.Errorf("unmaterialized loads: value %#x, %v allocs, %d bytes materialized; want 0, 0, 0",
			got, allocs, s.AllocatedBytes())
	}
}

func TestAddressSpaceMapOverlapRejected(t *testing.T) {
	as := NewAddressSpace("host")
	if err := as.Map(0, NewRAM("dram", 0x1000)); err != nil {
		t.Fatal(err)
	}
	if err := as.Map(0x800, NewRAM("other", 0x1000)); err == nil {
		t.Error("overlapping map accepted")
	}
	if err := as.Map(0x1000, NewRAM("adjacent", 0x1000)); err != nil {
		t.Errorf("adjacent map rejected: %v", err)
	}
}

func TestAddressSpaceWrapRejected(t *testing.T) {
	as := NewAddressSpace("host")
	if err := as.Map(^uint64(0)-10, NewRAM("wrap", 0x1000)); err == nil {
		t.Error("wrapping map accepted")
	}
}

func TestLookupAndFault(t *testing.T) {
	as := NewAddressSpace("host")
	dram := NewRAM("dram", 0x10000)
	if err := as.Map(0x1000, dram); err != nil {
		t.Fatal(err)
	}
	r, off, err := as.Lookup(0x1234)
	if err != nil || r != dram || off != 0x234 {
		t.Errorf("Lookup = %v, %#x, %v", r, off, err)
	}
	if _, _, err := as.Lookup(0x0); err == nil {
		t.Error("hole lookup succeeded")
	}
	var fe *FaultError
	_, _, err = as.Lookup(0x20000)
	if !errors.As(err, &fe) {
		t.Errorf("want FaultError, got %v", err)
	}
}

func TestSharedRegionAliasing(t *testing.T) {
	// One DIMM visible at different bases in two views: the BAR model.
	dimm := NewRAM("nxp-ddr", 1<<20)
	hostView := NewAddressSpace("host")
	nxpView := NewAddressSpace("nxp")
	if err := hostView.Map(0xA000_0000, dimm); err != nil {
		t.Fatal(err)
	}
	if err := nxpView.Map(0x8000_0000, dimm); err != nil {
		t.Fatal(err)
	}
	if err := hostView.WriteU64(0xA000_0040, 0xDEADBEEF); err != nil {
		t.Fatal(err)
	}
	v, err := nxpView.ReadU64(0x8000_0040)
	if err != nil || v != 0xDEADBEEF {
		t.Errorf("aliased read = %#x, %v", v, err)
	}
	base, ok := nxpView.BaseOf(dimm)
	if !ok || base != 0x8000_0000 {
		t.Errorf("BaseOf = %#x, %v", base, ok)
	}
}

func TestROMWriteRejected(t *testing.T) {
	rom := NewROM("boot", []byte{1, 2, 3, 4})
	as := NewAddressSpace("nxp")
	if err := as.Map(0xFFFF_0000, rom); err != nil {
		t.Fatal(err)
	}
	v, err := as.Load(0xFFFF_0002, 1)
	if err != nil || v != 3 {
		t.Errorf("ROM read = %d, %v", v, err)
	}
	if err := as.Store(0xFFFF_0000, 1, 9); err == nil {
		t.Error("ROM write accepted")
	}
	// Backdoor store writes still work (factory programming).
	rom.Store().WriteAt(0, []byte{9})
	if v, _ := as.Load(0xFFFF_0000, 1); v != 9 {
		t.Error("backdoor ROM programming failed")
	}
}

type regDevice struct {
	last   uint64
	reads  int
	failRd bool
}

func (d *regDevice) MMIORead(off uint64, buf []byte) error {
	d.reads++
	if d.failRd {
		return errors.New("device error")
	}
	for i := range buf {
		buf[i] = byte(d.last >> (8 * (uint(i) + uint(off)*8)))
	}
	return nil
}

func (d *regDevice) MMIOWrite(off uint64, buf []byte) error {
	d.last = 0
	for i := range buf {
		d.last |= uint64(buf[i]) << (8 * i)
	}
	return nil
}

func TestMMIODispatch(t *testing.T) {
	dev := &regDevice{}
	as := NewAddressSpace("host")
	if err := as.Map(0xB000_0000, NewMMIO("regs", 0x100, dev)); err != nil {
		t.Fatal(err)
	}
	if err := as.Store(0xB000_0000, 4, 0x12345678); err != nil {
		t.Fatal(err)
	}
	if dev.last != 0x12345678 {
		t.Errorf("device saw %#x", dev.last)
	}
	if v, err := as.Load(0xB000_0000, 4); err != nil || v != 0x12345678 {
		t.Errorf("MMIO read = %#x, %v", v, err)
	}
	dev.failRd = true
	if _, err := as.Load(0xB000_0000, 4); err == nil {
		t.Error("device error not propagated")
	}
}

func TestCrossRegionAccessRejected(t *testing.T) {
	as := NewAddressSpace("host")
	if err := as.Map(0, NewRAM("a", 0x1000)); err != nil {
		t.Fatal(err)
	}
	if err := as.Map(0x1000, NewRAM("b", 0x1000)); err != nil {
		t.Fatal(err)
	}
	var buf [8]byte
	if err := as.Read(0xFFC, buf[:]); err == nil {
		t.Error("cross-region read accepted")
	}
}

func TestScalarAccessors(t *testing.T) {
	as := NewAddressSpace("host")
	if err := as.Map(0, NewRAM("dram", 0x1000)); err != nil {
		t.Fatal(err)
	}
	if err := as.Store(0x10, 2, 0xBEEF); err != nil {
		t.Fatal(err)
	}
	if v, _ := as.Load(0x10, 2); v != 0xBEEF {
		t.Errorf("U16 = %#x", v)
	}
	if v, _ := as.Load(0x11, 1); v != 0xBE {
		t.Errorf("little-endian layout violated: %#x", v)
	}
	if err := as.WriteU64(0x20, 0x1122334455667788); err != nil {
		t.Fatal(err)
	}
	if v, _ := as.Load(0x20, 4); v != 0x55667788 {
		t.Errorf("U32 low half = %#x", v)
	}
	if v, _ := as.ReadU64(0x20); v != 0x1122334455667788 {
		t.Errorf("U64 = %#x", v)
	}
}

func TestRegionsListing(t *testing.T) {
	as := NewAddressSpace("host")
	_ = as.Map(0x2000, NewRAM("b", 0x100))
	_ = as.Map(0x1000, NewRAM("a", 0x100))
	rs := as.Regions()
	if len(rs) != 2 || rs[0].Base != 0x1000 || rs[1].Base != 0x2000 {
		t.Errorf("Regions() = %+v", rs)
	}
}

func TestKindString(t *testing.T) {
	if RAM.String() != "RAM" || ROM.String() != "ROM" || MMIO.String() != "MMIO" {
		t.Error("Kind.String broken")
	}
	if Kind(42).String() == "" {
		t.Error("unknown kind should still format")
	}
}
