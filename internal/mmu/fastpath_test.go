package mmu

import (
	"fmt"
	"math/rand"
	"testing"

	"flick/internal/paging"
	"flick/internal/sim"
	"flick/internal/tlb"
)

// Layout of the differential test's address space: four 1 GiB pages
// whose spans differ. Page A carries a hole inside it, so only 4 KiB
// frames away from the hole are linear; BAR remap windows split raw
// page B (a window inside it) and raw page D (a window straddling its
// start); page C is clean — a remap window holds its whole raw
// page and a hole sits right after its end — so its span is the page.
const (
	diffGiB   = paging.PageSize1G
	diffVAA   = 1 * diffGiB
	diffVAB   = 2 * diffGiB
	diffVAC   = 3 * diffGiB
	diffVAD   = 6 * diffGiB
	diffRawA  = 8 * diffGiB
	diffRawB  = 12 * diffGiB
	diffRawC  = 16 * diffGiB
	diffRawD  = 20 * diffGiB
	diffHoleA = diffVAA + 0x2000_0000 // inside page A
	diffHoleC = diffVAC + diffGiB     // adjacent to page C's end
	diffHoleN = 0x10000
	diffWinB  = diffRawB + 0x1000_0000 // remap window inside raw page B
	diffWinN  = 0x1000_0000
	diffWinD  = diffRawD - diffWinN // remap window straddling raw page D's start
)

// diffTables maps the four pages; alt moves page C to another raw page,
// standing in for a second address space the MMU can switch to.
func diffTables(t *testing.T, alt bool) *paging.Tables {
	t.Helper()
	tb := newTables(t)
	rawC := uint64(diffRawC)
	if alt {
		rawC += diffGiB
	}
	for _, m := range []struct{ va, pa uint64 }{{diffVAA, diffRawA}, {diffVAB, diffRawB}, {diffVAC, rawC}, {diffVAD, diffRawD}} {
		if err := tb.Map(m.va, m.pa, diffGiB, paging.Flags{Writable: true}); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// diffMMU builds one side of the differential test: a 4-entry TLB
// programmed with the layout's holes and remap windows over its own
// copy of the two address spaces.
func diffMMU(t *testing.T, fast bool) (m *MMU, main, alt *paging.Tables) {
	t.Helper()
	tl := tlb.New("dtlb", 4)
	tl.AddHole(tlb.Hole{VABase: diffHoleA, Size: diffHoleN, PhysBase: 0x40_0000})
	tl.AddHole(tlb.Hole{VABase: diffHoleC, Size: diffHoleN, PhysBase: 0x50_0000})
	tl.AddRemap(tlb.Remap{HostBase: diffWinB, Size: diffWinN, Delta: 4 * diffGiB})
	tl.AddRemap(tlb.Remap{HostBase: diffWinD, Size: 2 * diffWinN, Delta: 5 * diffGiB})
	tl.AddRemap(tlb.Remap{HostBase: diffRawC - diffGiB, Size: 4 * diffGiB, Delta: 2 * diffGiB})
	main, alt = diffTables(t, false), diffTables(t, true)
	m = New("dmmu", tl, main, func(pa uint64) sim.Duration { return sim.Duration(pa>>12) % 97 }, 50)
	m.noFast = !fast
	return m, main, alt
}

// diffVA draws an address the way BFS interleaves its arrays — mostly
// scattered over the four pages — plus the edges the fast path must
// respect: the holes, the remap window's boundaries, 4 KiB alias
// pages, and an unmapped address.
func diffVA(rng *rand.Rand, aliases []uint64) uint64 {
	page := []uint64{diffVAA, diffVAB, diffVAC, diffVAD}[rng.Intn(4)]
	switch rng.Intn(10) {
	case 0:
		return diffHoleA + uint64(rng.Intn(diffHoleN))
	case 1:
		return diffHoleC + uint64(rng.Intn(diffHoleN))
	case 2:
		// Either side of a remap window's edge inside page B or D.
		edge := []uint64{diffWinB - diffRawB + diffVAB, diffWinB + diffWinN - diffRawB + diffVAB,
			diffWinD + 2*diffWinN - diffRawD + diffVAD}[rng.Intn(3)]
		return edge - 0x2000 + uint64(rng.Intn(0x4000))
	case 3:
		return aliases[rng.Intn(len(aliases))] + uint64(rng.Intn(int(paging.PageSize4K)))
	case 4:
		return 5*diffGiB + uint64(rng.Intn(1<<20)) // unmapped
	case 5, 6:
		// Near the previous draw's neighbourhood: same frame or page.
		return page + uint64(rng.Intn(0x3000))
	}
	return page + uint64(rng.Int63n(int64(diffGiB)))
}

// TestTranslateFastPathDifferential drives a random interleaving of
// translations, alias inserts, page flushes and address-space switches
// through two MMUs, one with the last-translation fast path and one
// without, and requires every Result, error and counter — translates,
// walks, walk time, TLB hits/misses and Gen — to agree after each step.
func TestTranslateFastPathDifferential(t *testing.T) {
	fast, fMain, fAlt := diffMMU(t, true)
	slow, sMain, sAlt := diffMMU(t, false)
	// 4 KiB alias entries inside the huge pages' virtual ranges, mapping
	// elsewhere: inserted straight into both TLBs, they shadow (or are
	// shadowed by) the huge entry depending on LRU order.
	aliases := []uint64{diffVAA + 0x1000, diffVAB + 0x7000_0000, diffVAC + 0x40_0000, diffVAC + 0x3FFF_F000, diffVAD + 0x2000}
	rng := rand.New(rand.NewSource(1))
	// fastHits counts translations the fast path answered; pageHits those
	// among them that left the previous 4 KiB frame — the huge-page span.
	fastHits, pageHits := 0, 0
	env := sim.NewEnv()
	env.Spawn("diff", func(p *sim.Proc) {
		for step := 0; step < 20000; step++ {
			var op string
			switch k := rng.Intn(100); {
			case k < 2:
				a := aliases[rng.Intn(len(aliases))]
				w := paging.Walk{PageBase: 0x60_0000 + uint64(rng.Intn(16))<<12, PageSize: paging.PageSize4K, Flags: paging.Flags{User: true}}
				fast.TLB.Insert(a, w)
				slow.TLB.Insert(a, w)
				op = fmt.Sprintf("alias insert %#x", a)
			case k < 4:
				va := diffVA(rng, aliases)
				fast.TLB.FlushPage(va)
				slow.TLB.FlushPage(va)
				op = fmt.Sprintf("FlushPage %#x", va)
			case k < 5:
				if rng.Intn(2) == 0 {
					fast.SetTables(fMain)
					slow.SetTables(sMain)
				} else {
					fast.SetTables(fAlt)
					slow.SetTables(sAlt)
				}
				op = "SetTables"
			default:
				va := diffVA(rng, aliases)
				if _, ok := fast.RepeatPeek(va); ok {
					fastHits++
					if va>>12 != fast.lastVA>>12 {
						pageHits++
					}
				}
				fr, ferr := fast.Translate(p, va)
				sr, serr := slow.Translate(p, va)
				if fr != sr || fmt.Sprint(ferr) != fmt.Sprint(serr) {
					t.Fatalf("step %d: Translate(%#x) = %+v, %v with fast path; %+v, %v without", step, va, fr, ferr, sr, serr)
				}
				op = fmt.Sprintf("Translate %#x", va)
			}
			fh, fm := fast.TLB.Stats()
			sh, sm := slow.TLB.Stats()
			fw, fwt := fast.Stats()
			sw, swt := slow.Stats()
			if fh != sh || fm != sm || fast.TLB.Gen() != slow.TLB.Gen() || fast.translates != slow.translates || fw != sw || fwt != swt {
				t.Fatalf("step %d (%s): hits/misses/gen/translates/walks/walkTime = %d/%d/%d/%d/%d/%v with fast path, %d/%d/%d/%d/%d/%v without",
					step, op, fh, fm, fast.TLB.Gen(), fast.translates, fw, fwt, sh, sm, slow.TLB.Gen(), slow.translates, sw, swt)
			}
		}
	})
	env.Run()
	t.Logf("fast path answered %d translations, %d of them beyond the previous frame", fastHits, pageHits)
	if fastHits < 500 || pageHits < 300 {
		t.Errorf("fast path answered %d translations (%d beyond the previous frame); the test no longer exercises it", fastHits, pageHits)
	}
}
