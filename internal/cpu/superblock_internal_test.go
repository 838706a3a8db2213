package cpu

import (
	"errors"
	"testing"

	"flick/internal/isa"
	"flick/internal/mem"
	"flick/internal/mmu"
	"flick/internal/paging"
	"flick/internal/sim"
	"flick/internal/tlb"
)

// TestSuperblockIndexAliasing pins the direct-mapped cache's behavior
// when two distinct block heads collide in the same slot: the pa tag must
// keep each site executing its own code (an aliasing bug would leak one
// site's decoded block to the other), with the collision surfacing only
// as refill churn. The cmp codec is the interesting geometry — its 2-byte
// alignment gives the densest head packing (index shift 1), so colliding
// heads sit only sbEntries<<1 bytes apart.
func TestSuperblockIndexAliasing(t *testing.T) {
	if sim.FastPathsDisabled() {
		t.Skip("FLICKSIM_NOSUPERBLOCK set")
	}
	codec := isa.MustLookup(isa.ISACmp)
	d := newSBCache(codec)

	// Two head addresses that collide in the direct-mapped index but
	// differ in tag. Verify the premise against the live geometry so a
	// future resize cannot silently turn this into a non-collision test.
	const pa1 = uint64(0x10000)
	pa2 := pa1 + (sbEntries << d.shift)
	if d.index(pa1) != d.index(pa2) {
		t.Fatalf("premise broken: index(%#x)=%d index(%#x)=%d should collide", pa1, d.index(pa1), pa2, d.index(pa2))
	}

	// Plant "movi a0, <site>; halt" at each site and identity-map both
	// pages as cmp-tagged text.
	env := sim.NewEnv()
	phys := mem.NewAddressSpace("host")
	ram := mem.NewRAM("dram", 64<<20)
	if err := phys.Map(0, ram); err != nil {
		t.Fatal(err)
	}
	alloc, err := paging.NewFrameAlloc(1<<20, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := paging.New(phys, alloc)
	if err != nil {
		t.Fatal(err)
	}
	tag := uint8(isa.ISACmp) + 1
	plant := func(pa uint64, val int64) {
		var code []byte
		for _, ins := range []isa.Instr{
			{Op: isa.OpMovi, Rd: isa.A0, Imm: val},
			{Op: isa.OpHalt},
		} {
			b, err := codec.Encode(ins)
			if err != nil {
				t.Fatal(err)
			}
			code = append(code, b...)
		}
		if err := phys.Write(pa, code); err != nil {
			t.Fatal(err)
		}
		page := pa &^ (paging.PageSize4K - 1)
		if err := tables.MapRange(page, page, paging.PageSize4K, paging.PageSize4K,
			paging.Flags{User: true, NX: true, ISATag: tag}); err != nil {
			t.Fatal(err)
		}
	}
	plant(pa1, 1)
	plant(pa2, 2)

	mkMMU := func(name string) *mmu.MMU {
		return mmu.New(name, tlb.New(name, 64), tables,
			func(uint64) sim.Duration { return 10 * sim.Nanosecond }, 0)
	}
	core := New(Config{
		Name: "alias0", ISA: isa.ISACmp,
		IMMU: mkMMU("alias-itlb"), DMMU: mkMMU("alias-dtlb"),
		Phys: phys, CycleTime: sim.Nanosecond,
		ISATag: tag,
	})

	var runErr error
	env.Spawn("alias", func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			for site, want := range map[uint64]uint64{pa1: 1, pa2: 2} {
				ctx := &Context{PC: site}
				core.SetContext(ctx)
				if err := core.Run(p, 100); !errors.Is(err, ErrHalted) {
					runErr = err
					return
				}
				if got := ctx.Reg(isa.A0); got != want {
					t.Errorf("site %#x returned %d, want %d (aliased superblock)", site, got, want)
					return
				}
			}
		}
	})
	env.Run()
	if runErr != nil {
		t.Fatal(runErr)
	}

	// The collision itself must be visible as eviction churn: every
	// alternation rebuilds the slot, so fills grow with the iteration
	// count instead of saturating at two.
	_, fills, flushes := core.SuperblockStats()
	if fills < 50 {
		t.Errorf("fills=%d; colliding heads should evict each other every alternation", fills)
	}
	if flushes != 0 {
		t.Errorf("%d flushes on read-only alternation, want 0", flushes)
	}
}
