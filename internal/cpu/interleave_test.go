package cpu_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
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

// The interleaving differential: several board cores run random programs
// concurrently — pure ALU runs, inner loops that chain pure blocks, loads,
// stores and divides — while a disturber process flushes TLBs, invalidates
// I-caches and superblocks, and rewrites the cores' code at random
// virtual times. Every observable of a superblock run (registers, PC,
// retired instructions, cycles, faults, the data they wrote, every
// registered counter and the end time) must equal the same run with the
// superblock cache off. The superblock executor's steps then run from the
// event loop (the cores are always interleaved), so this is what proves
// the continuation exact under interference.

const (
	ilDataBase = 0x60_0000 // per-core data pages, one each, then a shared one
	ilAltText  = 0x90_0000 // the second physical copy of the board text
)

// ilCores bounds the cores of one scenario.
const ilCores = 4

// ilProgram generates core i's function. Two variants of one program
// differ only in immediates, so they assemble to the same layout and the
// disturber can swap one for the other under a running core.
func ilProgram(r *rand.Rand, i int) (a, b string) {
	regs := []string{"a0", "a1", "t0", "t1", "t2", "t3"}
	reg := func() string { return regs[r.Intn(len(regs))] }
	var sa, sb strings.Builder
	both := func(format string, args ...any) {
		fmt.Fprintf(&sa, format+"\n", args...)
		fmt.Fprintf(&sb, format+"\n", args...)
	}
	imm := func(format string) {
		x, y := 1+r.Intn(60), 1+r.Intn(60)
		fmt.Fprintf(&sa, format+"\n", x)
		fmt.Fprintf(&sb, format+"\n", y)
	}
	alu := func() {
		switch r.Intn(6) {
		case 0:
			imm("    movi " + reg() + ", %d")
		case 1:
			imm("    addi " + reg() + ", " + reg() + ", %d")
		case 2:
			both("    add %s, %s, %s", reg(), reg(), reg())
		case 3:
			both("    xor %s, %s, %s", reg(), reg(), reg())
		case 4:
			both("    mul %s, %s, %s", reg(), reg(), reg())
		default:
			imm("    shli " + reg() + ", " + reg() + ", %d")
		}
	}
	both(".func w%d isa=nxp", i)
	both("    li   a2, %d", ilDataBase+uint64(i)*paging.PageSize4K)
	both("    movi t5, %d", 4+r.Intn(12))
	both("outer:")
	// A racy shared counter: the cores' loads and stores interleave, so
	// the final count records their exact order.
	both("    li   a3, %d", ilDataBase+uint64(ilCores)*paging.PageSize4K)
	both("    ld8  t0, [a3+0]")
	both("    addi t0, t0, 1")
	both("    st8  t0, [a3+0]")
	for k, n := 0, 4+r.Intn(10); k < n; k++ {
		switch r.Intn(10) {
		case 0:
			both("    st8  %s, [a2+%d]", reg(), 8*r.Intn(16))
		case 1:
			both("    ld8  %s, [a2+%d]", reg(), 8*r.Intn(16))
		case 2:
			both("    movi t4, 7")
			both("    udiv %s, %s, t4", reg(), reg())
		case 3:
			both("    movi t4, %d", 2+r.Intn(20))
			both("inner%d:", k)
			for j, m := 0, 1+r.Intn(6); j < m; j++ {
				alu()
			}
			both("    addi t4, t4, -1")
			both("    bne  t4, zr, inner%d", k)
		default:
			alu()
		}
	}
	both("    addi t5, t5, -1")
	both("    bne  t5, zr, outer")
	both("    halt")
	both(".endfunc")
	return sa.String(), sb.String()
}

type ilCore struct {
	core *cpu.Core
	ctx  *cpu.Context
	err  error
}

// ilRun builds a fresh machine for the scenario and runs it, returning a
// dump of everything observable plus the coroutine switches it took.
func ilRun(t *testing.T, seed int64, spurious, noSuperblocks bool) (string, uint64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	nCores := 2 + r.Intn(ilCores-1)
	// The linker wants a host entry point; the cores never run it.
	const entry = ".func main isa=host\n    halt\n.endfunc\n"
	var srcA, srcB strings.Builder
	srcA.WriteString(entry)
	srcB.WriteString(entry)
	for i := range nCores {
		a, b := ilProgram(r, i)
		srcA.WriteString(a)
		srcB.WriteString(b)
	}
	link := func(src string) *multibin.Image {
		obj, err := asm.Assemble("il.fasm", src)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		im, err := multibin.Link(multibin.LinkConfig{}, obj)
		if err != nil {
			t.Fatal(err)
		}
		return im
	}
	boardText := func(im *multibin.Image) multibin.Segment {
		for _, seg := range im.Segments {
			if seg.Kind == multibin.SecText && seg.ISA == isa.ISANxP {
				return seg
			}
		}
		t.Fatalf("seed %d: no board text", seed)
		return multibin.Segment{}
	}
	imA := link(srcA.String())
	text, textB := boardText(imA), boardText(link(srcB.String()))
	if text.VA != textB.VA || len(text.Bytes) != len(textB.Bytes) {
		t.Fatalf("seed %d: program variants do not share one text layout", seed)
	}
	variants := [][]byte{text.Bytes, textB.Bytes}

	env := sim.NewEnv()
	phys := mem.NewAddressSpace("phys")
	ram := mem.NewRAM("dram", 64<<20)
	if err := phys.Map(0, ram); err != nil {
		t.Fatal(err)
	}
	alloc, err := paging.NewFrameAlloc(1<<20, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := paging.New(phys, alloc)
	if err != nil {
		t.Fatal(err)
	}
	// Two physical copies of the text, one per variant; the disturber
	// remaps the text between them and rewrites the mapped one.
	textPA := [2]uint64{text.VA, ilAltText}
	ram.Store().WriteAt(textPA[0], variants[0])
	ram.Store().WriteAt(textPA[1], variants[1])
	textLen := (uint64(len(text.Bytes)) + paging.PageSize4K - 1) &^ (paging.PageSize4K - 1)
	textFlags := paging.Flags{User: true, NX: true}
	if err := tables.MapRange(text.VA, textPA[0], textLen, paging.PageSize4K, textFlags); err != nil {
		t.Fatal(err)
	}
	if err := tables.MapRange(ilDataBase, ilDataBase, (ilCores+1)*paging.PageSize4K, paging.PageSize4K,
		paging.Flags{Writable: true, User: true, NX: true}); err != nil {
		t.Fatal(err)
	}

	cores := make([]*ilCore, nCores)
	var mmus []*mmu.MMU
	for i := range cores {
		mk := func(kind string) *mmu.MMU {
			name := fmt.Sprintf("c%d-%s", i, kind)
			m := mmu.New(name, tlb.New(name, 16), tables, func(uint64) sim.Duration { return 9 * sim.Nanosecond }, 0)
			m.Register(env.Metrics())
			m.TLB.Register(env.Metrics())
			mmus = append(mmus, m)
			return m
		}
		cfg := cpu.Config{
			Name: fmt.Sprintf("c%d", i), ISA: isa.ISANxP,
			IMMU: mk("i"), DMMU: mk("d"),
			Phys:      phys,
			CycleTime: sim.Duration(3+i) * sim.Nanosecond,
			ExecNX:    true,
			AccessCost: func(pa uint64, size int, write bool) sim.Duration {
				return sim.Duration(5+size) * sim.Nanosecond
			},
			FetchCost:     func(pa uint64) sim.Duration { return sim.Duration(40+pa%64) * sim.Nanosecond },
			ICacheLines:   1 + i%3,
			Natives:       cpu.NewNativeTable(),
			NoSuperblocks: noSuperblocks,
			Fault: func(p *sim.Proc, c *cpu.Core, f *cpu.Fault) error {
				if f.Spurious {
					p.Sleep(25 * sim.Nanosecond)
					return nil
				}
				return f
			},
		}
		if spurious {
			sr := rand.New(rand.NewSource(seed*31 + int64(i)))
			cfg.SpuriousFault = func() bool { return sr.Intn(300) == 0 }
		}
		c := &ilCore{core: cpu.New(cfg), ctx: &cpu.Context{PC: imA.Symbols[fmt.Sprintf("w%d", i)]}}
		c.core.Register(env.Metrics())
		c.core.SetContext(c.ctx)
		cores[i] = c
		env.Spawn(cfg.Name, func(p *sim.Proc) {
			if err := c.core.Run(p, 200_000); !errors.Is(err, cpu.ErrHalted) {
				c.err = err
			}
		})
	}

	done := func() bool {
		for _, c := range cores {
			if !c.core.Halted() && c.err == nil {
				return false
			}
		}
		return true
	}
	dr := rand.New(rand.NewSource(seed ^ 0x5eed))
	mapped := 0
	env.Spawn("disturber", func(p *sim.Proc) {
		for !done() {
			p.Sleep(sim.Duration(dr.Intn(600)) * sim.Nanosecond)
			c := cores[dr.Intn(len(cores))].core
			switch dr.Intn(6) {
			case 0: // remap the text to the other copy, then shoot it down everywhere
				mapped ^= 1
				for off := uint64(0); off < textLen; off += paging.PageSize4K {
					if _, err := tables.Unmap(text.VA + off); err != nil {
						panic(err)
					}
					if err := tables.Map(text.VA+off, textPA[mapped]+off, paging.PageSize4K, textFlags); err != nil {
						panic(err)
					}
					for _, o := range cores {
						o.core.IMMU().TLB.FlushPage(text.VA + off)
						o.core.InvalidateSuperblocks()
					}
				}
			case 1: // full flush of one MMU
				mmus[dr.Intn(len(mmus))].TLB.Flush()
			case 2:
				c.InvalidateICache()
			case 3, 4: // rewrite the mapped code, swapping immediates under the cores
				if err := phys.Write(textPA[mapped], variants[dr.Intn(2)]); err != nil {
					panic(err)
				}
			default:
				c.InvalidateSuperblocks()
			}
		}
	})
	end := env.Run()

	var out strings.Builder
	fmt.Fprintf(&out, "end %v\n", end)
	for i, c := range cores {
		instret, cycles := c.core.Stats()
		fmt.Fprintf(&out, "c%d err=%v halted=%v pc=%#x regs=%v instret=%d cycles=%d faults=%d\n",
			i, c.err, c.core.Halted(), c.ctx.PC, c.ctx.Regs, instret, cycles, c.core.Faults())
		data := make([]byte, 128)
		if err := phys.Read(ilDataBase+uint64(i)*paging.PageSize4K, data); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "c%d data=%x\n", i, data)
	}
	shared, err := phys.ReadU64(ilDataBase + ilCores*paging.PageSize4K)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&out, "shared=%d\n", shared)
	for _, s := range env.Metrics().Snapshot().Counters {
		fmt.Fprintf(&out, "%s=%d\n", s.Name, s.Value)
	}
	return out.String(), env.Handoffs()
}

// TestInterleavedCoresMatchNoSuperblocks is the differential described
// above, over random seeds, with and without spurious-fault polling (which
// rules out aggregate mode and hands fired polls back to the body).
func TestInterleavedCoresMatchNoSuperblocks(t *testing.T) {
	if sim.FastPathsDisabled() {
		t.Skip("FLICKSIM_NOSUPERBLOCK set: both sides would run without superblocks")
	}
	for _, spurious := range []bool{false, true} {
		t.Run(fmt.Sprintf("spurious=%v", spurious), func(t *testing.T) {
			var fast, slow uint64
			for seed := int64(1); seed <= 40; seed++ {
				want, slowSwitches := ilRun(t, seed, spurious, true)
				got, fastSwitches := ilRun(t, seed, spurious, false)
				if got != want {
					t.Fatalf("seed %d diverges from the run without superblocks:\n%s", seed, lineDiff(want, got))
				}
				if !strings.Contains(want, "halted=true") || strings.Contains(want, "err=<nil> halted=false") {
					t.Fatalf("seed %d: a core neither halted nor failed:\n%s", seed, want)
				}
				fast += fastSwitches
				slow += slowSwitches
			}
			t.Logf("coroutine switches: %d with superblocks, %d without", fast, slow)
			if fast*2 > slow {
				t.Errorf("superblock runs took %d coroutine switches against %d without: the executor is not stepping from the event loop", fast, slow)
			}
		})
	}
}

// lineDiff reports the first differing line of two dumps.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := range max(len(w), len(g)) {
		var a, b string
		if i < len(w) {
			a = w[i]
		}
		if i < len(g) {
			b = g[i]
		}
		if a != b {
			return fmt.Sprintf("line %d:\n  without: %s\n  with:    %s", i, a, b)
		}
	}
	return "(identical)"
}
