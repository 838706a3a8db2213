package cpu

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"flick/internal/isa"
	"flick/internal/mem"
	"flick/internal/mmu"
	"flick/internal/paging"
	"flick/internal/sim"
	"flick/internal/tlb"
)

// Virtual layout of the word-path rig. Each case region is chosen for the
// boundary it puts under a word access.
const (
	wvPageVA   = 0x10_0000 // two writable 4 KiB pages on scattered frames
	wvROVA     = 0x11_0000 // read-only PTE
	wvROMVA    = 0x12_0000 // two pages of ROM, writable PTEs
	wvMMIOVA   = 0x13_0000 // device registers
	wvHalfVA   = 0x14_0000 // mapped page followed by an unmapped one
	wvHugeVA   = 0x40_0000 // one 2 MiB page: 4 KiB chunk edges inside a page
	wvUnmapped = 0x50_0000 // nothing
	wvROMPA    = 0x1000_0000
	wvMMIOPA   = 0x1100_0000
)

// wvDevice is an MMIO register file that logs every access and serves
// reads from a pattern of the offset, so both paths' device traffic can
// be compared exactly.
type wvDevice struct{ log []string }

func (d *wvDevice) MMIORead(off uint64, buf []byte) error {
	for i := range buf {
		buf[i] = byte(off) + byte(i) + 0x40
	}
	d.log = append(d.log, fmt.Sprintf("r%#x/%d", off, len(buf)))
	return nil
}

func (d *wvDevice) MMIOWrite(off uint64, buf []byte) error {
	d.log = append(d.log, fmt.Sprintf("w%#x/%x", off, buf))
	return nil
}

// wvRig is one core over the layout above, with its DMMU's counters
// published so a test can read translates and TLB hits.
type wvRig struct {
	env     *sim.Env
	core    *Core
	ram     *mem.Sparse
	dev     *wvDevice
	metrics *sim.Metrics
}

func newWVRig(t *testing.T) *wvRig {
	t.Helper()
	phys := mem.NewAddressSpace("host")
	ram := mem.NewRAM("dram", 64<<20)
	rom := make([]byte, 0x2000)
	for i := range rom {
		rom[i] = byte(i*7 + 3)
	}
	dev := &wvDevice{}
	for _, m := range []struct {
		base uint64
		r    *mem.Region
	}{{0, ram}, {wvROMPA, mem.NewROM("rom", rom)}, {wvMMIOPA, mem.NewMMIO("regs", 0x1000, dev)}} {
		if err := phys.Map(m.base, m.r); err != nil {
			t.Fatal(err)
		}
	}
	alloc, err := paging.NewFrameAlloc(32<<20, 48<<20)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := paging.New(phys, alloc)
	if err != nil {
		t.Fatal(err)
	}
	rw := paging.Flags{Writable: true, User: true, NX: true}
	ro := paging.Flags{User: true, NX: true}
	for _, m := range []struct {
		va, pa, size uint64
		flags        paging.Flags
	}{
		{wvPageVA, 0x20_0000, paging.PageSize4K, rw},
		{wvPageVA + 0x1000, 0x30_5000, paging.PageSize4K, rw},
		{wvROVA, 0x21_0000, paging.PageSize4K, ro},
		{wvROMVA, wvROMPA, paging.PageSize4K, rw},
		{wvROMVA + 0x1000, wvROMPA + 0x1000, paging.PageSize4K, rw},
		{wvMMIOVA, wvMMIOPA, paging.PageSize4K, rw},
		{wvHalfVA, 0x22_0000, paging.PageSize4K, rw},
		{wvHugeVA, 0x60_0000, paging.PageSize2M, rw},
	} {
		if err := tables.Map(m.va, m.pa, m.size, m.flags); err != nil {
			t.Fatal(err)
		}
	}
	// Patterned data on the 4 KiB frames and the huge page's first chunk;
	// the huge page's second chunk stays unmaterialized.
	pattern := make([]byte, 0x1000)
	for i := range pattern {
		pattern[i] = byte(i*13 + 1)
	}
	for _, pa := range []uint64{0x20_0000, 0x30_5000, 0x21_0000, 0x22_0000, 0x60_0000} {
		ram.Store().WriteAt(pa, pattern)
	}
	// Watch one data frame as if code had been decoded from it, so stores
	// there must bump the code generation.
	ram.Store().WatchCode(0x30_5000, 0x1000)

	metrics := sim.NewMetrics()
	dtlb := tlb.New("d", 8)
	dtlb.Register(metrics)
	dmmu := mmu.New("d", dtlb, tables, func(pa uint64) sim.Duration { return sim.Duration(pa%61+10) * sim.Nanosecond }, 3*sim.Nanosecond)
	dmmu.Register(metrics)
	core := New(Config{
		Name: "wv", ISA: isa.ISAHost, DMMU: dmmu, Phys: phys, CycleTime: sim.Nanosecond,
		AccessCost: func(pa uint64, size int, write bool) sim.Duration {
			d := sim.Duration(pa%97+uint64(size)*7) * sim.Nanosecond
			if write {
				d += 3 * sim.Nanosecond
			}
			return d
		},
	})
	core.SetContext(&Context{PC: 0x1234})
	return &wvRig{env: sim.NewEnv(), core: core, ram: ram.Store(), dev: dev, metrics: metrics}
}

// wvCase is one word access.
type wvCase struct {
	name  string
	va    uint64
	size  int
	write bool
}

// wvObs is everything an access may change that a caller could observe.
type wvObs struct {
	Value     uint64
	Err       string
	Kind      string
	Elapsed   sim.Duration
	Counters  string
	CodeGen   uint64
	Allocated uint64
	Device    string
	Memory    string
}

// wvKind classifies err as dataFault would.
func wvKind(err error) string {
	var f *Fault
	var nm *paging.NotMappedError
	var mf *mem.FaultError
	switch {
	case err == nil:
		return "ok"
	case errors.As(err, &f):
		return f.Kind.String()
	case errors.As(err, &nm):
		return FaultDataNotMapped.String()
	case errors.As(err, &mf):
		return "machine-check: " + mf.Reason
	}
	return "other: " + err.Error()
}

// wvValue is the word a write case stores (its low size bytes).
const wvValue = 0x8877_6655_4433_2211

// observe runs cases on a fresh rig through either the word path or the
// byte-slice path, recording every observable after each access. Each
// case runs twice in a row so both the cold and the warmed TLB are
// compared.
func observe(t *testing.T, cases []wvCase, word bool) []wvObs {
	t.Helper()
	rig := newWVRig(t)
	var out []wvObs
	rig.env.Spawn("wv", func(p *sim.Proc) {
		for _, tc := range cases {
			for range 2 {
				start := p.Now()
				var v uint64
				var err error
				if word {
					v, err = rig.core.wordVirt(p, tc.va, tc.size, tc.write, wvValue)
				} else {
					var buf [8]byte
					if tc.write {
						binary.LittleEndian.PutUint64(buf[:], wvValue)
					}
					err = rig.core.accessVirt(p, tc.va, buf[:tc.size], tc.write)
					if !tc.write && err == nil {
						v = binary.LittleEndian.Uint64(buf[:])
					}
				}
				o := wvObs{Value: v, Kind: wvKind(err), Elapsed: p.Now().Sub(start),
					CodeGen: rig.ram.CodeGen(), Allocated: rig.ram.AllocatedBytes()}
				if err != nil {
					o.Err = err.Error()
				}
				snap := rig.metrics.Snapshot()
				o.Counters = fmt.Sprint(snap.Counters)
				o.Device = fmt.Sprint(rig.dev.log)
				// Memory around the access; device registers are left
				// alone, since reading them would add to the device log.
				var around [24]byte
				if r, err := rig.core.cfg.DMMU.Probe(tc.va &^ 7); err == nil && r.Phys < wvMMIOPA {
					if rig.core.cfg.Phys.Read(r.Phys, around[:]) == nil {
						o.Memory = fmt.Sprintf("%x", around)
					}
				}
				out = append(out, o)
			}
		}
	})
	rig.env.Run()
	return out
}

// TestWordVirtMatchesAccessVirt pins the word path's contract: for every
// size, boundary and backing, wordVirt is indistinguishable from the
// byte-slice accessVirt it replaced on the hot paths — same value, same
// error, same virtual time, same MMU/TLB counters, same code-generation
// bumps, same device traffic and same memory contents.
func TestWordVirtMatchesAccessVirt(t *testing.T) {
	type where struct {
		name string
		va   uint64
	}
	places := []where{
		{"in-page", wvPageVA + 0x10},
		{"in-page-unaligned", wvPageVA + 0x13},
		{"page-straddle", wvPageVA + 0xFFD},
		{"watched-page", wvPageVA + 0x1010},
		{"chunk-straddle", wvHugeVA + 0xFFD},
		{"unmaterialized", wvHugeVA + 0x1800},
		{"read-only-pte", wvROVA + 0x10},
		{"rom", wvROMVA + 0x10},
		{"rom-page-straddle", wvROMVA + 0xFFE},
		{"mmio", wvMMIOVA + 0x10},
		{"unmapped", wvUnmapped + 0x10},
		{"straddle-into-unmapped", wvHalfVA + 0xFFE},
	}
	var cases []wvCase
	for _, w := range places {
		for _, size := range []int{1, 2, 4, 8} {
			for _, write := range []bool{false, true} {
				op := "load"
				if write {
					op = "store"
				}
				cases = append(cases, wvCase{fmt.Sprintf("%s/%s%d", w.name, op, size), w.va, size, write})
			}
		}
	}
	byteObs := observe(t, cases, false)
	wordObs := observe(t, cases, true)
	if len(byteObs) != 2*len(cases) || len(wordObs) != len(byteObs) {
		t.Fatalf("observed %d/%d accesses, want %d", len(byteObs), len(wordObs), 2*len(cases))
	}
	for i, tc := range cases {
		for k := range 2 {
			b, w := byteObs[2*i+k], wordObs[2*i+k]
			if b != w {
				t.Errorf("%s (pass %d):\n byte path %+v\n word path %+v", tc.name, k, b, w)
			}
		}
	}
	// The cases must exercise what they claim.
	kinds := map[string]bool{}
	for _, o := range byteObs {
		kinds[o.Kind] = true
	}
	for _, want := range []string{"ok", FaultDataProtection.String(), FaultDataNotMapped.String(), "machine-check: write to ROM"} {
		if !kinds[want] {
			t.Errorf("no case produced %q (got %v)", want, kinds)
		}
	}
	if last := byteObs[len(byteObs)-1]; last.CodeGen == 0 {
		t.Error("no case bumped the code generation")
	}
}
