package multibin

import (
	"encoding/binary"
	"fmt"
	"sort"

	"flick/internal/isa"
)

// PageSize is the alignment the linker script forces on every output
// section, so that code for each ISA occupies its own page-table entries
// and the loader can flip NX bits per section (paper §IV-C2).
const PageSize = 4096

// Segment is one loadable piece of the linked image.
type Segment struct {
	Name  string
	ISA   isa.ISA
	Kind  SectionKind
	VA    uint64
	Bytes []byte
}

// End returns the first VA past the segment.
func (s Segment) End() uint64 { return s.VA + uint64(len(s.Bytes)) }

// Contains reports whether va falls inside the segment.
func (s Segment) Contains(va uint64) bool { return va >= s.VA && va < s.End() }

// Image is a fully linked multi-ISA executable: every internal reference —
// including references that cross ISA boundaries — is resolved, exactly as
// the paper's linker produces.
type Image struct {
	Segments []Segment
	Symbols  map[string]uint64 // global symbol → VA
	Entry    uint64            // VA of the entry symbol
}

// SegmentAt returns the segment containing va.
func (im *Image) SegmentAt(va uint64) (Segment, bool) {
	for _, s := range im.Segments {
		if s.Contains(va) {
			return s, true
		}
	}
	return Segment{}, false
}

// TextISA reports which ISA's text segment contains va, used by the kernel
// fault handler to distinguish a migration-triggering fault from a stray
// jump.
func (im *Image) TextISA(va uint64) (isa.ISA, bool) {
	s, ok := im.SegmentAt(va)
	if !ok || s.Kind != SecText {
		return 0, false
	}
	return s.ISA, true
}

// LinkConfig controls layout.
type LinkConfig struct {
	// BaseVA is where the first section is placed (default 0x400000,
	// the traditional ELF text base).
	BaseVA uint64
	// Entry is the entry symbol name (default "main"). It must resolve
	// to host text: Flick threads always start on the host.
	Entry string
	// PerISASymbols names symbols that resolve differently per referring
	// ISA: a reference to name from a host section binds to "name.host",
	// from an NxP section to "name.nxp". This implements the paper's
	// §III-D rule that the linker routes memory-allocation calls in each
	// ISA's text to that ISA's allocator.
	PerISASymbols []string
}

// LinkError reports a resolution failure.
type LinkError struct {
	Symbol string
	Reason string
}

func (e *LinkError) Error() string {
	if e.Symbol != "" {
		return fmt.Sprintf("multibin: link: symbol %q: %s", e.Symbol, e.Reason)
	}
	return "multibin: link: " + e.Reason
}

// Link merges the objects, lays out sections page-aligned in one address
// space, resolves the global symbol table, and applies relocations using
// each section's ISA conventions.
func Link(cfg LinkConfig, objects ...*Object) (*Image, error) {
	if cfg.BaseVA == 0 {
		cfg.BaseVA = 0x400000
	}
	if cfg.Entry == "" {
		cfg.Entry = "main"
	}

	// Merge sections by name, tracking each input section's offset within
	// the merged output.
	type inputRef struct {
		sec *Section
		off uint64 // offset of this input within the merged section
	}
	merged := map[string]*Section{}
	inputs := map[string][]inputRef{}
	var order []string
	for _, o := range objects {
		for _, s := range o.Sections {
			m, ok := merged[s.Name]
			if !ok {
				m = &Section{Name: s.Name, ISA: s.ISA, Kind: s.Kind, Align: s.Align}
				merged[s.Name] = m
				order = append(order, s.Name)
			}
			if m.ISA != s.ISA || m.Kind != s.Kind {
				return nil, &LinkError{Reason: fmt.Sprintf("section %q kind/ISA mismatch across objects", s.Name)}
			}
			off := alignUp(uint64(len(m.Bytes)), s.Align)
			m.Bytes = append(m.Bytes, make([]byte, off-uint64(len(m.Bytes)))...)
			m.Bytes = append(m.Bytes, s.Bytes...)
			inputs[s.Name] = append(inputs[s.Name], inputRef{sec: s, off: off})
		}
	}

	// Deterministic layout: host text first (threads start there), then
	// NxP text, then host data, then NxP data; ties broken by name.
	sort.SliceStable(order, func(i, j int) bool {
		return sectionRank(merged[order[i]]) < sectionRank(merged[order[j]])
	})

	im := &Image{Symbols: make(map[string]uint64)}
	va := cfg.BaseVA
	secVA := map[string]uint64{}
	for _, name := range order {
		m := merged[name]
		va = alignUp(va, PageSize)
		secVA[name] = va
		im.Segments = append(im.Segments, Segment{Name: name, ISA: m.ISA, Kind: m.Kind, VA: va, Bytes: m.Bytes})
		va += uint64(len(m.Bytes))
	}

	// Global symbol table. Both passes walk the sections in layout order,
	// not map order, so a failing link always reports the same symbol.
	for _, name := range order {
		refs := inputs[name]
		base := secVA[name]
		for _, ref := range refs {
			for _, sym := range ref.sec.Symbols {
				addr := base + ref.off + sym.Off
				if old, dup := im.Symbols[sym.Name]; dup {
					return nil, &LinkError{Symbol: sym.Name, Reason: fmt.Sprintf("defined at both %#x and %#x", old, addr)}
				}
				im.Symbols[sym.Name] = addr
			}
		}
	}

	// Relocation. The section's ISA selects the relocation repertoire the
	// paper's modified linker dispatches on by section name.
	for _, name := range order {
		refs := inputs[name]
		base := secVA[name]
		seg := findSegment(im, name)
		for _, ref := range refs {
			for _, r := range ref.sec.Relocs {
				symName := r.Symbol
				for _, per := range cfg.PerISASymbols {
					if symName == per {
						symName = per + "." + ref.sec.ISA.String()
						break
					}
				}
				s, ok := im.Symbols[symName]
				if !ok {
					return nil, &LinkError{Symbol: symName, Reason: "undefined"}
				}
				var value int64
				switch r.Kind {
				case RelocPCRel32:
					p := base + ref.off + r.InstrOff
					value = int64(s) + r.Addend - int64(p)
					if value < -1<<31 || value >= 1<<31 {
						return nil, &LinkError{Symbol: r.Symbol, Reason: fmt.Sprintf("PC-relative displacement %d overflows 32 bits", value)}
					}
				case RelocAbs64:
					value = int64(s) + r.Addend
				case RelocAbsLo32:
					value = int64(int32(uint32(uint64(int64(s) + r.Addend))))
				case RelocAbsHi32:
					value = int64(uint64(int64(s)+r.Addend) >> 32)
				default:
					return nil, &LinkError{Symbol: r.Symbol, Reason: fmt.Sprintf("unknown relocation kind %v", r.Kind)}
				}
				off := ref.off + r.Off
				if off+uint64(r.Width) > uint64(len(seg.Bytes)) {
					return nil, &LinkError{Symbol: r.Symbol, Reason: "relocation site out of section bounds"}
				}
				patch(seg.Bytes[off:off+uint64(r.Width)], value)
			}
		}
	}

	entry, ok := im.Symbols[cfg.Entry]
	if !ok {
		return nil, &LinkError{Symbol: cfg.Entry, Reason: "entry symbol undefined"}
	}
	if eisa, ok := im.TextISA(entry); !ok || !isa.IsHost(eisa) {
		return nil, &LinkError{Symbol: cfg.Entry, Reason: "entry symbol must be host text: Flick threads start on the host"}
	}
	im.Entry = entry
	return im, nil
}

func sectionRank(s *Section) int {
	// Host text first (threads start there), then the board ISAs' text in
	// ISA order, then data in the same order.
	base := 0
	if s.Kind == SecData {
		base = 8
	}
	return base + int(s.ISA)
}

func findSegment(im *Image, name string) *Segment {
	for i := range im.Segments {
		if im.Segments[i].Name == name {
			return &im.Segments[i]
		}
	}
	return nil
}

func patch(b []byte, v int64) {
	switch len(b) {
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(int32(v)))
	case 8:
		binary.LittleEndian.PutUint64(b, uint64(v))
	default:
		panic(fmt.Sprintf("multibin: relocation width %d", len(b)))
	}
}

func alignUp(v, align uint64) uint64 {
	if align == 0 {
		return v
	}
	return (v + align - 1) &^ (align - 1)
}
