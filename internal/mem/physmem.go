package mem

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Kind classifies what backs a region of physical address space.
type Kind int

const (
	// RAM is ordinary byte-addressable memory backed by a Sparse store.
	RAM Kind = iota
	// ROM is like RAM but rejects writes through the bus (loading via
	// Region.Store is still allowed, modeling factory programming).
	ROM
	// MMIO dispatches accesses to a device handler.
	MMIO
)

func (k Kind) String() string {
	switch k {
	case RAM:
		return "RAM"
	case ROM:
		return "ROM"
	case MMIO:
		return "MMIO"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Device is the handler interface for MMIO regions. Offsets are relative to
// the region base. Devices see word-sized accesses as the byte slices the
// bus carries; register devices typically decode 4- or 8-byte accesses.
type Device interface {
	MMIORead(off uint64, buf []byte) error
	MMIOWrite(off uint64, buf []byte) error
}

// Region is a contiguous range of a physical address space. The same Region
// (and backing store) may be installed in multiple AddressSpaces at
// different bases; that is how one DIMM appears at 0x8000_0000 to the NxP
// and behind a PCIe BAR to the host.
type Region struct {
	Name  string
	Kind  Kind
	size  uint64
	store *Sparse
	dev   Device
}

// NewRAM creates a RAM region of the given size.
func NewRAM(name string, size uint64) *Region {
	return &Region{Name: name, Kind: RAM, size: size, store: NewSparse(size)}
}

// NewROM creates a ROM region preloaded with contents.
func NewROM(name string, contents []byte) *Region {
	r := &Region{Name: name, Kind: ROM, size: uint64(len(contents)), store: NewSparse(uint64(len(contents)))}
	r.store.WriteAt(0, contents)
	return r
}

// NewMMIO creates a device-backed region.
func NewMMIO(name string, size uint64, dev Device) *Region {
	return &Region{Name: name, Kind: MMIO, size: size, dev: dev}
}

// Size returns the region length in bytes.
func (r *Region) Size() uint64 { return r.size }

// Store exposes the backing store for RAM/ROM regions (nil for MMIO). It is
// the loader's backdoor: writing through it models JTAG/factory programming
// and bypasses ROM write protection and bus accounting.
func (r *Region) Store() *Sparse { return r.store }

// mapping places a region at a base address within one address space.
type mapping struct {
	base   uint64
	region *Region
}

// AddressSpace is one observer's view of physical memory: an ordered set of
// non-overlapping region mappings. The simulated machine has two — the host
// view (host DRAM at 0, NxP resources behind BAR windows) and the NxP view
// (host DRAM at 0, local resources at their native addresses).
type AddressSpace struct {
	Name     string
	mappings []mapping // sorted by base

	// last is the mapping Lookup resolved most recently, checked before
	// the binary search. A mapping never moves or changes once installed
	// (there is no Unmap), so the memo holds an immutable fact; Map
	// clears it anyway, since it re-sorts mappings.
	last mapping
}

// NewAddressSpace creates an empty view.
func NewAddressSpace(name string) *AddressSpace {
	return &AddressSpace{Name: name}
}

// Map installs region at base. It returns an error if the range overlaps an
// existing mapping or wraps the address space.
func (as *AddressSpace) Map(base uint64, region *Region) error {
	end := base + region.size
	if end < base {
		return fmt.Errorf("mem: %s: mapping %q at %#x wraps address space", as.Name, region.Name, base)
	}
	for _, m := range as.mappings {
		mEnd := m.base + m.region.size
		if base < mEnd && m.base < end {
			return fmt.Errorf("mem: %s: mapping %q [%#x,%#x) overlaps %q [%#x,%#x)",
				as.Name, region.Name, base, end, m.region.Name, m.base, mEnd)
		}
	}
	as.mappings = append(as.mappings, mapping{base: base, region: region})
	as.last = mapping{}
	sort.Slice(as.mappings, func(i, j int) bool { return as.mappings[i].base < as.mappings[j].base })
	return nil
}

// Lookup resolves addr to its region and offset.
func (as *AddressSpace) Lookup(addr uint64) (*Region, uint64, error) {
	if m := as.last; m.region != nil && addr-m.base < m.region.size {
		return m.region, addr - m.base, nil
	}
	i := sort.Search(len(as.mappings), func(i int) bool {
		return as.mappings[i].base+as.mappings[i].region.size > addr
	})
	if i < len(as.mappings) && as.mappings[i].base <= addr {
		as.last = as.mappings[i]
		return as.mappings[i].region, addr - as.mappings[i].base, nil
	}
	return nil, 0, &FaultError{Addr: addr, Space: as.Name, Reason: "no region"}
}

// BaseOf returns the base address of region within this space.
func (as *AddressSpace) BaseOf(region *Region) (uint64, bool) {
	for _, m := range as.mappings {
		if m.region == region {
			return m.base, true
		}
	}
	return 0, false
}

// Regions lists the mappings in ascending base order as (base, region) pairs.
func (as *AddressSpace) Regions() []struct {
	Base   uint64
	Region *Region
} {
	out := make([]struct {
		Base   uint64
		Region *Region
	}, len(as.mappings))
	for i, m := range as.mappings {
		out[i].Base = m.base
		out[i].Region = m.region
	}
	return out
}

// FaultError reports a physical access that hit no region or violated a
// region's access rules. The machine turns these into machine-check-style
// failures; software-visible page faults are produced by the paging layer,
// not here.
type FaultError struct {
	Addr   uint64
	Space  string
	Reason string
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("mem: physical access fault at %#x in %s view: %s", e.Addr, e.Space, e.Reason)
}

// Read copies len(buf) bytes from physical address addr in this view. The
// access must not cross a region boundary (real buses split such bursts;
// the simulated cores never issue them).
func (as *AddressSpace) Read(addr uint64, buf []byte) error {
	r, off, err := as.Lookup(addr)
	if err != nil {
		return err
	}
	if off+uint64(len(buf)) > r.size {
		return &FaultError{Addr: addr, Space: as.Name, Reason: "access crosses region boundary"}
	}
	if r.Kind == MMIO {
		return r.dev.MMIORead(off, buf)
	}
	r.store.ReadAt(off, buf)
	return nil
}

// Write copies buf to physical address addr in this view.
func (as *AddressSpace) Write(addr uint64, buf []byte) error {
	r, off, err := as.Lookup(addr)
	if err != nil {
		return err
	}
	if off+uint64(len(buf)) > r.size {
		return &FaultError{Addr: addr, Space: as.Name, Reason: "access crosses region boundary"}
	}
	switch r.Kind {
	case MMIO:
		return r.dev.MMIOWrite(off, buf)
	case ROM:
		return &FaultError{Addr: addr, Space: as.Name, Reason: "write to ROM"}
	}
	r.store.WriteAt(off, buf)
	return nil
}

// View returns a slice aliasing [addr, addr+n) for RAM/ROM-backed
// ranges that lie within one materialized allocation granule, avoiding a
// copy. MMIO, unmaterialized (all-zero) ranges, region-crossing and
// granule-straddling ranges return false, directing the caller to the
// copying Read/Write path. Writes through the view bypass bus
// accounting and ROM protection and must be followed by
// Sparse.NoteCodeWrite; the store it aliases is returned so callers can
// do that.
func (as *AddressSpace) View(addr, n uint64) ([]byte, *Sparse, bool) {
	r, off, err := as.Lookup(addr)
	if err != nil || r.Kind == MMIO || off+n > r.size {
		return nil, nil, false
	}
	b, ok := r.store.View(off, n)
	if !ok {
		return nil, nil, false
	}
	return b, r.store, true
}

// WatchCode marks [addr, addr+n) as holding decoded code in its backing
// store (see Sparse.WatchCode) and returns that store, so the caller can
// snapshot and revalidate its CodeGen. MMIO and unmapped ranges return
// false: device-backed code cannot be watched and must not be cached.
func (as *AddressSpace) WatchCode(addr, n uint64) (*Sparse, bool) {
	r, off, err := as.Lookup(addr)
	if err != nil || r.Kind == MMIO || off+n > r.size {
		return nil, false
	}
	r.store.WatchCode(off, n)
	return r.store, true
}

// Word accesses do not delegate to Read/Write. Read/Write may hand the
// buffer to a Device interface, so a caller's stack buffer always escapes
// through them — one heap allocation per simulated load/store, which made
// word reads the single largest allocation site in the simulator. Load and
// Store keep the RAM/ROM path on concrete *Sparse calls that read and
// write the granule in place, so every word access runs allocation-free;
// only the (rare) MMIO branch still pays the interface escape.

// Load reads a size-byte (1..8) little-endian value at addr, with
// Read's region and boundary checks.
func (as *AddressSpace) Load(addr uint64, size int) (uint64, error) {
	r, off, err := as.wordRegion(addr, uint64(size))
	if err != nil {
		return 0, err
	}
	if r.Kind != MMIO {
		return r.store.LoadWord(off, size), nil
	}
	var b [8]byte
	if err := r.dev.MMIORead(off, b[:size]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// Store writes the low size bytes (1..8) of v little-endian at addr, with
// Write's region, boundary and ROM checks.
func (as *AddressSpace) Store(addr uint64, size int, v uint64) error {
	r, off, err := as.wordRegion(addr, uint64(size))
	if err != nil {
		return err
	}
	switch r.Kind {
	case MMIO:
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		return r.dev.MMIOWrite(off, b[:size])
	case ROM:
		return &FaultError{Addr: addr, Space: as.Name, Reason: "write to ROM"}
	}
	r.store.StoreWord(off, size, v)
	return nil
}

// wordRegion resolves addr for an n-byte word access with Read/Write's
// boundary semantics.
func (as *AddressSpace) wordRegion(addr, n uint64) (*Region, uint64, error) {
	r, off, err := as.Lookup(addr)
	if err != nil {
		return nil, 0, err
	}
	if off+n > r.size {
		return nil, 0, &FaultError{Addr: addr, Space: as.Name, Reason: "access crosses region boundary"}
	}
	return r, off, nil
}

// FrameSize is the size of the physical frames Frame resolves: one
// allocation granule.
const FrameSize = chunkSize

// Frame is one FrameSize-aligned physical frame of RAM or ROM resolved to
// the granule that backs it, for word accesses made in place. It stays
// exact for the life of the address space: a mapping never moves (there
// is no Unmap) and a granule never moves once materialized.
type Frame struct {
	g   *[chunkSize]byte
	s   *Sparse
	off uint64 // store offset of the frame's first byte
	// ROM is set when bus writes to the frame fault (Store's ROM check).
	ROM bool
}

// Frame resolves the physical frame holding addr. It returns false when
// no region holds the whole frame on one granule (MMIO, a region edge or
// an unaligned region base inside the frame) and when the frame's granule
// was never written: an unmaterialized frame reads as zero and
// materializes on its first write, which Load and Store handle.
func (as *AddressSpace) Frame(addr uint64) (Frame, bool) {
	r, off, err := as.Lookup(addr)
	in := addr & (chunkSize - 1)
	if err != nil || r.Kind == MMIO || off&(chunkSize-1) != in || off-in+chunkSize > r.size {
		return Frame{}, false
	}
	off -= in
	g := r.store.chunkFor(off, false)
	if g == nil {
		return Frame{}, false
	}
	return Frame{g: g, s: r.store, off: off, ROM: r.Kind == ROM}, true
}

// Load reads the size-byte (1..8) little-endian word at byte in of the
// frame; in+size must not exceed FrameSize. It returns what
// AddressSpace.Load returns for the same address.
func (f *Frame) Load(in uint64, size int) uint64 { return loadLE(f.g[in:], size) }

// Store writes the low size bytes of v at byte in of the frame, noting
// the write for the code watch; in+size must not exceed FrameSize. On a
// RAM frame it does what AddressSpace.Store does for the same address.
func (f *Frame) Store(in uint64, size int, v uint64) {
	f.s.NoteCodeWrite(f.off+in, uint64(size))
	storeLE(f.g[in:], size, v)
}

// ReadU64 reads a little-endian 64-bit word.
func (as *AddressSpace) ReadU64(addr uint64) (uint64, error) { return as.Load(addr, 8) }

// WriteU64 writes a little-endian 64-bit word.
func (as *AddressSpace) WriteU64(addr, v uint64) error { return as.Store(addr, 8, v) }
