package cpu

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"flick/internal/isa"
	"flick/internal/mem"
	"flick/internal/mmu"
	"flick/internal/paging"
	"flick/internal/sim"
	"flick/internal/tlb"
)

// Layout of the data-frame memo rig. Each region puts one of the memo's
// validity conditions under test.
const (
	fmPoolVA    = 0x1000_0000 // fmPoolPages 4 KiB pages on scattered RAM frames
	fmPoolPages = frameSlots * 9 / 4
	fmHugeVA    = 0x2000_0000 // one 2 MiB page
	fmHugePA    = 0x0280_0000
	fmROVA      = 0x2100_0000 // read-only PTE
	fmROMVA     = 0x2200_0000 // two pages of ROM, writable PTEs
	fmROMPA     = 0x1000_0000
	fmMMIOVA    = 0x2300_0000 // device registers
	fmMMIOPA    = 0x1100_0000
	fmOddVA     = 0x2400_0000 // a frame on two granules: region base not frame-aligned
	fmOddBase   = 0x1200_0800
	fmTailVA    = 0x2500_0000 // a frame the region ends halfway through
	fmTailPA    = 0x1300_0000
	fmShiftVA   = 0x2600_0000 // two pages behind a remap window shifting by half a frame
	fmShiftRaw  = 0x4000_0000
	fmShiftPA   = 0x0030_0800
	fmLateVA    = 0x2700_0000 // two pages of a region mapped mid-run
	fmLatePA    = 0x1400_0000
	fmUnmapVA   = 0x2800_0000 // nothing
	fmFrameLow  = 0x10_0000   // pool frames are drawn from [fmFrameLow, fmHugePA)
)

// fmMode selects how a memo run performs its word accesses.
type fmMode int

const (
	fmWord fmMode = iota // wordVirt, memo active
	fmByte               // accessVirt, the byte-slice path
)

// fmRig is one core over the layout above, with every counter it and its
// DMMU keep published.
type fmRig struct {
	env      *sim.Env
	core     *Core
	phys     *mem.AddressSpace
	tables   *paging.Tables
	dtlb     *tlb.TLB
	ram      *mem.Region
	dev      *wvDevice
	metrics  *sim.Metrics
	pool     []uint64 // physical frame of each pool page
	lastPage uint64   // virtual page of the latest pick

	// What the memo held over the run (see noteFrames).
	memoKeys      [frameSlots]uint64
	memoSeen      map[uint64]bool
	memoEvictions int
}

func newFMRig(t *testing.T) *fmRig {
	t.Helper()
	r := &fmRig{env: sim.NewEnv(), phys: mem.NewAddressSpace("host"), ram: mem.NewRAM("dram", 64<<20),
		dev: &wvDevice{}, metrics: sim.NewMetrics()}
	rom := make([]byte, 0x2000)
	for i := range rom {
		rom[i] = byte(i*11 + 5)
	}
	for _, m := range []struct {
		base uint64
		reg  *mem.Region
	}{
		{0, r.ram},
		{fmROMPA, mem.NewROM("rom", rom)},
		{fmMMIOPA, mem.NewMMIO("regs", 0x1000, r.dev)},
		{fmOddBase, mem.NewRAM("odd", 0x3000)},
		{fmTailPA, mem.NewRAM("tail", 0x800)},
	} {
		if err := r.phys.Map(m.base, m.reg); err != nil {
			t.Fatal(err)
		}
	}
	alloc, err := paging.NewFrameAlloc(48<<20, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	if r.tables, err = paging.New(r.phys, alloc); err != nil {
		t.Fatal(err)
	}
	rw := paging.Flags{Writable: true, User: true, NX: true}
	ro := paging.Flags{User: true, NX: true}
	// Pool frames are distinct, scattered, and alias one another in the
	// memo's slots; every other one starts materialized with a pattern.
	rng := rand.New(rand.NewSource(99))
	used := map[uint64]bool{}
	pattern := make([]byte, 0x1000)
	for len(r.pool) < fmPoolPages {
		f := fmFrameLow + uint64(rng.Intn((fmHugePA-fmFrameLow)/0x1000))*0x1000
		if used[f] {
			continue
		}
		used[f] = true
		if len(r.pool)%2 == 0 {
			rng.Read(pattern)
			r.ram.Store().WriteAt(f, pattern)
		}
		r.pool = append(r.pool, f)
	}
	maps := []struct {
		va, pa, size uint64
		flags        paging.Flags
	}{
		{fmHugeVA, fmHugePA, paging.PageSize2M, rw},
		{fmROVA, r.pool[0], paging.PageSize4K, ro},
		{fmROMVA, fmROMPA, paging.PageSize4K, rw},
		{fmROMVA + 0x1000, fmROMPA + 0x1000, paging.PageSize4K, rw},
		{fmMMIOVA, fmMMIOPA, paging.PageSize4K, rw},
		{fmOddVA, fmOddBase + 0x800, paging.PageSize4K, rw},
		{fmTailVA, fmTailPA, paging.PageSize4K, rw},
		{fmShiftVA, fmShiftRaw, paging.PageSize4K, rw},
		{fmShiftVA + 0x1000, fmShiftRaw + 0x1000, paging.PageSize4K, rw},
		{fmLateVA, fmLatePA, paging.PageSize4K, rw},
		{fmLateVA + 0x1000, fmLatePA + 0x1000, paging.PageSize4K, rw},
	}
	for i, f := range r.pool {
		maps = append(maps, struct {
			va, pa, size uint64
			flags        paging.Flags
		}{fmPoolVA + uint64(i)*0x1000, f, paging.PageSize4K, rw})
	}
	for _, m := range maps {
		if err := r.tables.Map(m.va, m.pa, m.size, m.flags); err != nil {
			t.Fatal(err)
		}
	}
	for i := range pattern {
		pattern[i] = byte(i*13 + 1)
	}
	for _, pa := range []uint64{fmHugePA, fmHugePA + 0x3000, fmOddBase, fmTailPA, fmShiftPA & ^uint64(0xFFF)} {
		r.phys.Write(pa, pattern[:0x800])
	}

	r.dtlb = tlb.New("d", 16)
	r.dtlb.AddRemap(tlb.Remap{HostBase: fmShiftRaw, Size: 0x2000, Delta: fmShiftRaw - fmShiftPA})
	r.dtlb.Register(r.metrics)
	dmmu := mmu.New("d", r.dtlb, r.tables, func(pa uint64) sim.Duration { return sim.Duration(pa%61+10) * sim.Nanosecond }, 3*sim.Nanosecond)
	dmmu.Register(r.metrics)
	r.core = New(Config{
		Name: "fm", ISA: isa.ISAHost, DMMU: dmmu, Phys: r.phys, CycleTime: sim.Nanosecond,
		AccessCost: func(pa uint64, size int, write bool) sim.Duration {
			d := sim.Duration(pa%97+uint64(size)*7) * sim.Nanosecond
			if write {
				d += 3 * sim.Nanosecond
			}
			return d
		},
	})
	r.core.Register(r.metrics)
	r.core.SetContext(&Context{PC: 0x1234})
	return r
}

// pick returns a random virtual address for a size-byte access: half the
// time on the page picked last (so the translation window, and with it the
// memo, answers), else mostly on a pool page, else on one of the special
// regions; near a page edge one time in eight.
func (r *fmRig) pick(rng *rand.Rand, size int) uint64 {
	off := uint64(rng.Intn(0x1000 - 8))
	if rng.Intn(8) == 0 {
		off = 0x1000 - uint64(rng.Intn(8)) - 1
	}
	switch {
	case rng.Intn(2) == 0 && r.lastPage != 0:
	case rng.Intn(10) < 7:
		r.lastPage = fmPoolVA + uint64(rng.Intn(fmPoolPages))*0x1000
	default:
		bases := []uint64{fmHugeVA + uint64(rng.Intn(512))*0x1000, fmROVA, fmROMVA, fmROMVA + 0x1000,
			fmMMIOVA, fmOddVA, fmTailVA, fmShiftVA, fmShiftVA + 0x1000, fmLateVA, fmLateVA + 0x1000, fmUnmapVA}
		r.lastPage = bases[rng.Intn(len(bases))]
	}
	if r.lastPage == fmShiftVA && rng.Intn(2) == 0 {
		off = 0x800 - uint64(rng.Intn(size)) // straddles a physical frame
	}
	return r.lastPage + off
}

// access performs one word access through mode: a native accessor
// (sizes 1 and 8) or an interpreter load/store, and describes everything
// it could change.
func (r *fmRig) access(p *sim.Proc, mode fmMode, rng *rand.Rand) string {
	c := r.core
	interp := rng.Intn(2) == 0
	size := []int{1, 8}[rng.Intn(2)]
	if interp {
		size = 1 << rng.Intn(4)
	}
	write := rng.Intn(5) < 2
	va := r.pick(rng, size)
	v := rng.Uint64()
	var got uint64
	var err error
	if interp {
		c.ctx.SetReg(isa.A0, va-0x10)
		c.ctx.SetReg(isa.A1, v)
	}
	switch {
	case mode == fmByte:
		var buf [8]byte
		if write {
			binary.LittleEndian.PutUint64(buf[:], v)
		}
		if err = c.accessVirt(p, va, buf[:size], write); err == nil && !write {
			got = binary.LittleEndian.Uint64(buf[:])
		}
		if interp && err != nil {
			err = c.dataFault(p, err, va)
		} else if interp && !write {
			c.ctx.SetReg(isa.A1, got)
		}
	case interp && write:
		err = execStore(c, p, isa.Instr{Op: isa.OpSt1 + isa.Op(bits.TrailingZeros(uint(size))), Rd: isa.A0, Rs: isa.A1, Imm: 0x10}, c.ctx.PC)
	case interp:
		if err = execLoad(c, p, isa.Instr{Op: isa.OpLd1 + isa.Op(bits.TrailingZeros(uint(size))), Rd: isa.A1, Rs: isa.A0, Imm: 0x10}, c.ctx.PC); err == nil {
			got = c.ctx.Reg(isa.A1)
		}
	case size == 1 && write:
		err = c.WriteU8Virt(p, va, uint8(v))
	case size == 1:
		var b uint8
		b, err = c.ReadU8Virt(p, va)
		got = uint64(b)
	case write:
		err = c.WriteU64Virt(p, va, v)
	default:
		got, err = c.ReadU64Virt(p, va)
	}
	var around [16]byte
	if pr, perr := c.cfg.DMMU.Probe(va &^ 7); perr == nil && pr.Phys-fmMMIOPA >= 0x1000 {
		if r.phys.Read(pr.Phys, around[:]) != nil {
			around = [16]byte{}
		}
	}
	return fmt.Sprintf("%#x/%d w=%v i=%v: v=%#x err=%s kind=%s at=%d gen=%d alloc=%d dev=%d mem=%x\n%v",
		va, size, write, interp, got, errString(err), wvKind(err), p.Now(), r.ram.Store().CodeGen(),
		r.ram.Store().AllocatedBytes(), len(r.dev.log), around, r.metrics.Snapshot().Counters)
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// disturb changes what the memo's entries and the translation window rest
// on, the same way in every run, and describes what it did.
func (r *fmRig) disturb(rng *rand.Rand, lateMapped *bool) string {
	i := rng.Intn(fmPoolPages)
	va, f := fmPoolVA+uint64(i)*0x1000, r.pool[i]
	switch rng.Intn(7) {
	case 0: // remap the page onto a fresh frame and shoot it down
		nf := fmFrameLow + uint64(rng.Intn((fmHugePA-fmFrameLow)/0x1000))*0x1000
		if _, err := r.tables.Unmap(va); err != nil {
			return err.Error()
		}
		if err := r.tables.Map(va, nf, paging.PageSize4K, paging.Flags{Writable: true, User: true, NX: true}); err != nil {
			return err.Error()
		}
		r.pool[i] = nf
		r.dtlb.FlushPage(va)
		return fmt.Sprintf("remap %#x -> %#x", va, nf)
	case 1:
		r.dtlb.Flush()
		return "flush"
	case 2: // map the late region the late pages already point at
		if *lateMapped {
			return "late region already mapped"
		}
		*lateMapped = true
		return fmt.Sprint("map late region: ", r.phys.Map(fmLatePA, mem.NewRAM("late", 0x2000)))
	case 3: // materialize a frame with zeros
		r.ram.Store().WriteAt(f+uint64(rng.Intn(0x1000)), []byte{0})
		return fmt.Sprintf("zero byte in %#x", f)
	case 4: // loader backdoor write
		b := make([]byte, 1+rng.Intn(64))
		rng.Read(b)
		off := f + uint64(rng.Intn(0x1000-len(b)))
		r.ram.Store().WriteAt(off, b)
		return fmt.Sprintf("backdoor %#x %x", off, b)
	case 5: // decode code from the frame: stores there must bump CodeGen
		r.ram.Store().WatchCode(f, 0x1000)
		return fmt.Sprintf("watch %#x", f)
	default: // the TLB's reach moves: translate elsewhere without timing
		_, err := r.core.cfg.DMMU.Translate(nil, fmHugeVA+uint64(rng.Intn(0x200000)))
		return fmt.Sprint("translate ", err)
	}
}

// noteFrames records which frames the memo holds now.
func (r *fmRig) noteFrames() {
	if r.core.frames == nil {
		return
	}
	if r.memoSeen == nil {
		r.memoSeen = map[uint64]bool{}
	}
	for i, e := range r.core.frames {
		if e.key != r.memoKeys[i] {
			if r.memoKeys[i] != 0 {
				r.memoEvictions++
			}
			r.memoKeys[i] = e.key
			r.memoSeen[e.key] = true
		}
	}
}

// runFM runs the memo workload on a fresh rig: a main process mixing
// accesses with disturbances, and a second process on the same core
// whose accesses land while the main one sleeps out an access cost. It
// returns every observation in order, then a digest of RAM.
func runFM(t *testing.T, mode fmMode) (string, *fmRig) {
	t.Helper()
	r := newFMRig(t)
	var out strings.Builder
	lateMapped := false
	r.env.Spawn("main", func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(1))
		for range 6000 {
			if rng.Intn(8) == 0 {
				fmt.Fprintln(&out, "main", r.disturb(rng, &lateMapped))
			} else {
				fmt.Fprintln(&out, "main", r.access(p, mode, rng))
			}
			r.noteFrames()
		}
	})
	r.env.Spawn("other", func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(2))
		for range 1500 {
			fmt.Fprintln(&out, "other", r.access(p, mode, rng))
		}
	})
	r.env.Run()
	var frame [0x1000]byte
	h := fnv.New64a()
	for off := uint64(0); off < r.ram.Size(); off += 0x1000 {
		r.ram.Store().ReadAt(off, frame[:])
		h.Write(frame[:])
	}
	fmt.Fprintf(&out, "RAM digest %x\n", h.Sum64())
	return out.String(), r
}

// TestFrameMemoMatchesBytePath: with the data-frame memo serving word
// accesses, every value, error, timestamp, counter, code-generation bump,
// allocation, device access and memory byte matches the byte-slice path
// and the FLICKSIM_NOSUPERBLOCK path (no translation window, so no memo),
// while the accesses spread over more frames than the memo has slots and
// the disturbances move everything a memo entry could depend on.
func TestFrameMemoMatchesBytePath(t *testing.T) {
	if sim.FastPathsDisabled() {
		t.Skip("FLICKSIM_NOSUPERBLOCK set: the memo is off")
	}
	memo, rig := runFM(t, fmWord)
	byteLog, _ := runFM(t, fmByte)
	var slow string
	t.Run("nosuperblock", func(t *testing.T) {
		t.Setenv("FLICKSIM_NOSUPERBLOCK", "1")
		var srig *fmRig
		slow, srig = runFM(t, fmWord)
		if srig.core.frames != nil {
			t.Error("memo allocated with the translation window disabled")
		}
	})
	for _, ref := range []struct{ name, log string }{{"byte path", byteLog}, {"FLICKSIM_NOSUPERBLOCK", slow}} {
		if ref.log != memo {
			t.Errorf("memo path differs from the %s:\n%s", ref.name, firstLineDiff(ref.log, memo))
		}
	}
	// The memo must have served the workload it claims to: more distinct
	// frames than it has slots, so that entries evict one another.
	if len(rig.memoSeen) <= frameSlots || rig.memoEvictions == 0 {
		t.Errorf("memo held %d distinct frames with %d evictions; want more than %d frames and some evictions",
			len(rig.memoSeen), rig.memoEvictions, frameSlots)
	}
	for _, want := range []string{"kind=" + FaultDataProtection.String(), "write to ROM", "kind=" + FaultDataNotMapped.String(),
		"no region", "map late region: <nil>", "remap", "watch"} {
		if !strings.Contains(memo, want) {
			t.Errorf("workload never produced %q", want)
		}
	}
}

// firstLineDiff reports the first line where two logs differ.
func firstLineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := range min(len(w), len(g)) {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i, w[i], g[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(g), len(w))
}

// TestFrameMemoEntryOutlivesRefill: a memo access copies its entry before
// sleeping out the access cost, so a second process on the same core
// that refills the slot with an aliasing frame during that sleep cannot
// redirect the first access.
func TestFrameMemoEntryOutlivesRefill(t *testing.T) {
	if sim.FastPathsDisabled() {
		t.Skip("FLICKSIM_NOSUPERBLOCK set: the memo is off")
	}
	r := newFMRig(t)
	slot := func(f uint64) uint64 { return (f/mem.FrameSize + 1) % frameSlots }
	// Two pool pages on frames that share a slot, both holding data.
	var p1, p2 int
	for i := range r.pool {
		for k := range i {
			if slot(r.pool[i]) == slot(r.pool[k]) {
				p1, p2 = k, i
			}
		}
	}
	f1, f2 := r.pool[p1], r.pool[p2]
	if f1 == f2 || slot(f1) != slot(f2) {
		t.Fatal("no aliasing pool frames")
	}
	// The first access pays the rig's largest cost (pa%97 == 96), the
	// second process's the smallest, so two of its accesses fit inside
	// the first one's sleep.
	off1 := (96 - f1%97 + 97) % 97
	off2 := (97 - f2%97) % 97
	for i, f := range []uint64{f1, f2} {
		b := make([]byte, 0x100)
		for k := range b {
			b[k] = byte(i*0x80 + k)
		}
		r.ram.Store().WriteAt(f, b)
	}
	va1, va2 := fmPoolVA+uint64(p1)*0x1000+off1, fmPoolVA+uint64(p2)*0x1000+off2
	want, err := r.phys.Load(f1+off1, 8)
	if err != nil {
		t.Fatal(err)
	}
	start := r.env.NewCond("start")
	var got uint64
	var refilled bool
	r.env.Spawn("other", func(p *sim.Proc) {
		p.Wait(start)
		for range 2 {
			if _, err := r.core.ReadU8Virt(p, va2); err != nil {
				t.Error(err)
			}
		}
		refilled = r.core.frames[slot(f2)].key == f2/mem.FrameSize+1
	})
	r.env.Spawn("main", func(p *sim.Proc) {
		// Warm the TLB for both pages, then the window and memo for va1.
		for _, va := range []uint64{va2, va1, va1} {
			if _, err := r.core.ReadU64Virt(p, va); err != nil {
				t.Error(err)
			}
		}
		start.Signal()
		got, err = r.core.ReadU64Virt(p, va1)
	})
	r.env.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !refilled {
		t.Fatal("the second process did not refill the slot during the first access")
	}
	if got != want {
		t.Errorf("read %#x through a slot refilled mid-access, want %#x", got, want)
	}
}
