package cpu_test

import (
	"errors"
	"math/rand"
	"testing"

	"flick/internal/asm"
	"flick/internal/cpu"
	"flick/internal/isa"
	"flick/internal/mem"
	"flick/internal/mmu"
	"flick/internal/multibin"
	"flick/internal/paging"
	"flick/internal/sim"
	"flick/internal/tlb"
)

// benchRig is the hot-loop measurement harness: one core of the chosen
// ISA spinning a counted arithmetic loop over identity-mapped memory —
// the steady state every workload's compute phase reduces to.
type benchRig struct {
	env  *sim.Env
	core *cpu.Core
	ctx  *cpu.Context
	syms map[string]uint64
}

// benchSrc returns a never-terminating two-instruction loop for the ISA
// (a0 counts up toward a1, which the harness sets to 2^64-1). The linker
// requires a host-text main, so the loop lives in its own function and
// the harness enters at "spin" directly.
func benchSrc(is isa.ISA) string {
	name := is.String()
	return `
.func main isa=host
    ret
.endfunc
.func spin isa=` + name + `
loop:
    addi a0, a0, 1
    bne  a0, a1, loop
    ret
.endfunc
`
}

// dataSrc returns a never-terminating loop for the ISA whose body is the
// interpreter's whole data path — ld8/st8/ld1/st1 against the buffer a2
// points at, then a push/pop pair on the stack — closed by the same
// counted branch as benchSrc's spin loop.
func dataSrc(is isa.ISA) string {
	return `
.func main isa=host
    ret
.endfunc
.func dloop isa=` + is.String() + `
loop:
    ld8  t0, [a2+0]
    st8  t0, [a2+8]
    ld1  t1, [a2+16]
    st1  t1, [a2+17]
    push t0
    pop  t1
    addi a0, a0, 1
    bne  a0, a1, loop
    ret
.endfunc
.data dbuf isa=host
    .zero 256
.enddata
`
}

// buildBenchRig assembles the spin loop and wires the minimal platform
// around one core: identity-mapped pages, 64-entry TLBs, a 10 ns walk
// cost, an I-cache with a fill cost, and tagged execution for the DSP
// (which has no NX polarity of its own).
func buildBenchRig(tb testing.TB, is isa.ISA) *benchRig {
	return buildRig(tb, is, benchSrc(is), "spin")
}

// buildDataRig is buildBenchRig around dataSrc's loop: a2 points at the
// data buffer and the stack is its top half, so every access hits one
// writable data page.
func buildDataRig(tb testing.TB, is isa.ISA) (*benchRig, uint64) {
	rig := buildRig(tb, is, dataSrc(is), "dloop")
	buf := rig.syms["dbuf"]
	rig.ctx.SetReg(isa.A2, buf)
	rig.ctx.SetReg(isa.SP, buf+256)
	return rig, buf
}

// The BFS-shaped native access pattern: one 1 GiB page at hugeVA maps
// the rig's RAM, carrying a u64 array read sequentially (BFS's
// targets[i]) and a byte array read at random (visited[t]), the two
// accesses alternating.
const (
	hugeVA    = 1 << 30
	seqPA     = 32 << 20 // u64 array
	seqWords  = 1 << 17  // 1 MiB
	bytesPA   = 40 << 20 // byte array
	bytesSize = 4 << 20
)

// buildInterleavedRig is buildDataRig plus the huge page and its two
// arrays, every granule of both materialized as a populated graph's
// would be. It returns the rig and the random byte-array offsets to
// visit.
func buildInterleavedRig(tb testing.TB, is isa.ISA) (*benchRig, []uint64) {
	rig, _ := buildDataRig(tb, is)
	flags := paging.Flags{Writable: true, User: true, NX: true}
	if err := rig.core.DMMU().Tables().Map(hugeVA, 0, paging.PageSize1G, flags); err != nil {
		tb.Fatal(err)
	}
	phys := rig.core.Phys()
	for _, a := range []struct{ pa, n uint64 }{{seqPA, seqWords * 8}, {bytesPA, bytesSize}} {
		for off := uint64(0); off < a.n; off += paging.PageSize4K {
			if err := phys.Store(a.pa+off, 8, off|1); err != nil {
				tb.Fatal(err)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	visits := make([]uint64, 4096)
	for i := range visits {
		visits[i] = uint64(rng.Int63n(bytesSize))
	}
	return rig, visits
}

// readInterleaved performs access i of the BFS-shaped pattern: even i
// reads the next u64 of the sequential array, odd i a random byte.
func readInterleaved(p *sim.Proc, c *cpu.Core, visits []uint64, i int) error {
	if i&1 == 0 {
		_, err := c.ReadU64Virt(p, hugeVA+seqPA+uint64(i/2%seqWords)*8)
		return err
	}
	_, err := c.ReadU8Virt(p, hugeVA+bytesPA+visits[i/2%len(visits)])
	return err
}

// buildRig assembles src and enters it at the entry symbol.
func buildRig(tb testing.TB, is isa.ISA, src, entry string) *benchRig {
	tb.Helper()
	obj, err := asm.Assemble("bench.fasm", src)
	if err != nil {
		tb.Fatal(err)
	}
	im, err := multibin.Link(multibin.LinkConfig{}, obj)
	if err != nil {
		tb.Fatal(err)
	}

	env := sim.NewEnv()
	phys := mem.NewAddressSpace("host")
	ram := mem.NewRAM("dram", 64<<20)
	if err := phys.Map(0, ram); err != nil {
		tb.Fatal(err)
	}
	alloc, err := paging.NewFrameAlloc(1<<20, 16<<20)
	if err != nil {
		tb.Fatal(err)
	}
	tables, err := paging.New(phys, alloc)
	if err != nil {
		tb.Fatal(err)
	}

	// NX polarity covers the host and the default board family; any other
	// backend runs tagged, as it would on a three-plus-ISA platform.
	tag := uint8(0)
	if is != isa.ISAHost && is != isa.ISANxP {
		tag = uint8(is) + 1
	}
	for _, seg := range im.Segments {
		ram.Store().WriteAt(seg.VA, seg.Bytes)
		n := (uint64(len(seg.Bytes)) + paging.PageSize4K - 1) &^ (paging.PageSize4K - 1)
		nx := !(seg.Kind == multibin.SecText && seg.ISA == isa.ISAHost)
		flags := paging.Flags{Writable: seg.Kind == multibin.SecData, User: true, NX: nx}
		if seg.Kind == multibin.SecText {
			flags.ISATag = tag
		}
		if err := tables.MapRange(seg.VA, seg.VA, n, paging.PageSize4K, flags); err != nil {
			tb.Fatal(err)
		}
	}

	mkMMU := func(name string) *mmu.MMU {
		return mmu.New(name, tlb.New(name, 64), tables,
			func(uint64) sim.Duration { return 10 * sim.Nanosecond }, 0)
	}
	core := cpu.New(cpu.Config{
		Name: "bench0", ISA: is,
		IMMU: mkMMU("bench-itlb"), DMMU: mkMMU("bench-dtlb"),
		Phys: phys, CycleTime: sim.Nanosecond,
		ExecNX:      is == isa.ISANxP,
		ISATag:      tag,
		FetchCost:   func(uint64) sim.Duration { return 5 * sim.Nanosecond },
		ICacheLines: 64,
	})

	ctx := &cpu.Context{PC: im.Symbols[entry]}
	ctx.SetReg(isa.A1, ^uint64(0))
	core.SetContext(ctx)
	return &benchRig{env: env, core: core, ctx: ctx, syms: im.Symbols}
}

// benchCoreStep measures steady-state per-instruction wall-clock for one
// ISA. One Step may retire a whole chained superblock run, so the loop
// counts retired instructions rather than Step calls: ns/op stays
// per-simulated-instruction and comparable across the interpreter's
// generations (with FLICKSIM_NOSUPERBLOCK=1 each Step retires exactly one
// instruction and this reduces to the old Step-counting loop).
func benchCoreStep(b *testing.B, is isa.ISA) {
	benchSteps(b, buildBenchRig(b, is))
}

// benchSteps times the rig's core per retired instruction after a warm-up.
func benchSteps(b *testing.B, rig *benchRig) {
	var stepErr error
	rig.env.Spawn("bench", func(p *sim.Proc) {
		// Warm the TLB, I-cache, and superblock cache out of the timed
		// region, then measure the steady state.
		for i := 0; i < 64 && stepErr == nil; i++ {
			stepErr = rig.core.Step(p)
		}
		start, _ := rig.core.Stats()
		b.ReportAllocs()
		b.ResetTimer()
		for stepErr == nil {
			if in, _ := rig.core.Stats(); in-start >= uint64(b.N) {
				break
			}
			stepErr = rig.core.Step(p)
		}
		b.StopTimer()
	})
	rig.env.Run()
	if stepErr != nil {
		b.Fatal(stepErr)
	}
}

func BenchmarkCoreStep(b *testing.B) {
	for _, be := range isa.All() {
		be := be
		b.Run(be.Name(), func(b *testing.B) { benchCoreStep(b, be.ISA()) })
	}
}

// TestStepZeroAllocs pins the tentpole's allocation contract: the
// steady-state Step path — superblock hit, MRU translation, in-place
// sleep — must not allocate at all.
func TestStepZeroAllocs(t *testing.T) {
	if sim.FastPathsDisabled() {
		t.Skip("FLICKSIM_NOSUPERBLOCK set: slow path makes no allocation promise")
	}
	for _, be := range isa.All() {
		is := be.ISA()
		rig := buildBenchRig(t, is)
		var stepErr error
		avg := -1.0
		rig.env.Spawn("alloc", func(p *sim.Proc) {
			for i := 0; i < 64 && stepErr == nil; i++ {
				stepErr = rig.core.Step(p)
			}
			if stepErr != nil {
				return
			}
			avg = testing.AllocsPerRun(200, func() {
				if err := rig.core.Step(p); err != nil {
					stepErr = err
				}
			})
		})
		rig.env.Run()
		if stepErr != nil {
			t.Fatalf("%v: step: %v", is, stepErr)
		}
		if avg != 0 {
			t.Errorf("%v: %v allocs per steady-state Step, want 0", is, avg)
		}
	}
}

// TestBenchRigUsesPredecode guards the benchmark's premise: the warmed
// rig must actually be hitting the superblock cache, otherwise the
// numbers in BENCH_hotloop.json measure the wrong path.
func TestBenchRigUsesPredecode(t *testing.T) {
	if sim.FastPathsDisabled() {
		t.Skip("FLICKSIM_NOSUPERBLOCK set")
	}
	rig := buildBenchRig(t, isa.ISAHost)
	var stepErr error
	rig.env.Spawn("probe", func(p *sim.Proc) {
		for i := 0; i < 100 && stepErr == nil; i++ {
			stepErr = rig.core.Step(p)
		}
	})
	rig.env.Run()
	if stepErr != nil {
		t.Fatal(stepErr)
	}
	hits, fills, _ := rig.core.SuperblockStats()
	if fills == 0 || hits < 90 {
		t.Errorf("superblock hits=%d fills=%d; benchmark would not measure the fast path", hits, fills)
	}
}

// memoMissVisits returns n byte-array offsets for ReadU64Virt whose
// frames always miss the core's data-frame memo: random frames of the
// array's first half (more of them than the memo has slots), each
// followed by the frame 2 MiB above it, which maps to the same slot.
func memoMissVisits(n int) []uint64 {
	rng := rand.New(rand.NewSource(2))
	visits := make([]uint64, n)
	for i := 0; i < n; i += 2 {
		visits[i] = uint64(rng.Int63n(bytesSize/2)) &^ 7
		visits[i+1] = visits[i] + bytesSize/2
	}
	return visits
}

// BenchmarkDataAccess times the simulated data path on every ISA: the
// interpreter running dataSrc's load/store/push/pop loop (ns per retired
// instruction), a native function's ReadU64Virt of warm board-style
// memory (ns per read) — the access the Table IV BFS kernel makes — the
// BFS kernel's interleaving of a sequential u64 array with random bytes
// of a second array on one huge page (ns per access), and ReadU64Virt on
// that page with every access missing the data-frame memo (ns per read).
func BenchmarkDataAccess(b *testing.B) {
	for _, be := range isa.All() {
		is := be.ISA()
		b.Run(be.Name()+"/interp", func(b *testing.B) {
			rig, _ := buildDataRig(b, is)
			benchSteps(b, rig)
		})
		b.Run(be.Name()+"/read-u64-virt", func(b *testing.B) {
			rig, buf := buildDataRig(b, is)
			var err error
			rig.env.Spawn("bench", func(p *sim.Proc) {
				if _, err = rig.core.ReadU64Virt(p, buf); err != nil {
					return
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N && err == nil; i++ {
					_, err = rig.core.ReadU64Virt(p, buf+uint64(i%32)*8)
				}
				b.StopTimer()
			})
			rig.env.Run()
			if err != nil {
				b.Fatal(err)
			}
		})
		b.Run(be.Name()+"/read-u64-virt-interleaved", func(b *testing.B) {
			rig, visits := buildInterleavedRig(b, is)
			var err error
			rig.env.Spawn("bench", func(p *sim.Proc) {
				for i := 0; i < 2*len(visits) && err == nil; i++ {
					err = readInterleaved(p, rig.core, visits, i)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N && err == nil; i++ {
					err = readInterleaved(p, rig.core, visits, i)
				}
				b.StopTimer()
			})
			rig.env.Run()
			if err != nil {
				b.Fatal(err)
			}
		})
		b.Run(be.Name()+"/read-u64-virt-memo-miss", func(b *testing.B) {
			rig, _ := buildInterleavedRig(b, is)
			visits := memoMissVisits(4096)
			var err error
			rig.env.Spawn("bench", func(p *sim.Proc) {
				for _, v := range visits {
					if _, err = rig.core.ReadU64Virt(p, hugeVA+bytesPA+v); err != nil {
						return
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N && err == nil; i++ {
					_, err = rig.core.ReadU64Virt(p, hugeVA+bytesPA+visits[i%len(visits)])
				}
				b.StopTimer()
			})
			rig.env.Run()
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// TestDataAccessZeroAllocs extends TestStepZeroAllocs to the data path:
// steady-state loads, stores, pushes and pops in the interpreter, and the
// native word and byte accessors, must not allocate on any ISA.
func TestDataAccessZeroAllocs(t *testing.T) {
	if sim.FastPathsDisabled() {
		t.Skip("FLICKSIM_NOSUPERBLOCK set: slow path makes no allocation promise")
	}
	for _, be := range isa.All() {
		is := be.ISA()
		rig, buf := buildDataRig(t, is)
		var err error
		var step, native float64
		rig.env.Spawn("alloc", func(p *sim.Proc) {
			for i := 0; i < 64 && err == nil; i++ {
				err = rig.core.Step(p)
			}
			if err != nil {
				return
			}
			step = testing.AllocsPerRun(200, func() {
				if e := rig.core.Step(p); e != nil {
					err = e
				}
			})
			native = testing.AllocsPerRun(200, func() {
				v, e1 := rig.core.ReadU64Virt(p, buf+32)
				e2 := rig.core.WriteU64Virt(p, buf+40, v+1)
				b, e3 := rig.core.ReadU8Virt(p, buf+48)
				e4 := rig.core.WriteU8Virt(p, buf+49, b+1)
				if e := errors.Join(e1, e2, e3, e4); e != nil {
					err = e
				}
			})
		})
		rig.env.Run()
		if err != nil {
			t.Fatalf("%v: %v", is, err)
		}
		if step != 0 || native != 0 {
			t.Errorf("%v: %v allocs per data-loop Step and %v per native access round, want 0", is, step, native)
		}

		irig, visits := buildInterleavedRig(t, is)
		interleaved := -1.0
		irig.env.Spawn("alloc", func(p *sim.Proc) {
			for i := 0; i < 2*len(visits) && err == nil; i++ {
				err = readInterleaved(p, irig.core, visits, i)
			}
			i := 0
			interleaved = testing.AllocsPerRun(200, func() {
				if e := readInterleaved(p, irig.core, visits, i); e != nil {
					err = e
				}
				i++
			})
		})
		irig.env.Run()
		if err != nil {
			t.Fatalf("%v: interleaved: %v", is, err)
		}
		if interleaved != 0 {
			t.Errorf("%v: %v allocs per interleaved huge-page access, want 0", is, interleaved)
		}
	}
}
