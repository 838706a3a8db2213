// Package tlb implements the translation lookaside buffers of the simulated
// cores. The NxP's TLB carries two features the paper calls out explicitly:
// a BAR remap control register, so physical addresses that fall inside the
// host-assigned PCIe BAR window are shifted to the board-local address of
// the same resource (Fig. 3), and programmable "holes" that bypass page
// translation entirely for scratchpad-style direct access.
package tlb

import (
	"fmt"

	"flick/internal/paging"
	"flick/internal/sim"
)

// Entry is one cached translation.
type Entry struct {
	VABase   uint64
	PageSize uint64
	PhysBase uint64 // host-view physical base (pre-remap)
	Flags    paging.Flags
}

// covers reports whether the entry translates va. The subtraction form is
// deliberate: VABase+PageSize would wrap for a page ending at the top of
// the address space and make the entry cover nothing.
func (e Entry) covers(va uint64) bool {
	return va-e.VABase < e.PageSize
}

// Remap is the BAR remap control register: addresses inside
// [HostBase, HostBase+Size) are shifted by -Delta to produce board-local
// physical addresses. A zero Remap is inactive.
type Remap struct {
	HostBase uint64
	Size     uint64
	Delta    uint64 // HostBase - LocalBase
}

// Active reports whether the register has been programmed.
func (r Remap) Active() bool { return r.Size != 0 }

// Apply rewrites pa if it falls inside the window. Written as a wrap-safe
// subtraction: HostBase+Size overflows for a window touching the top of
// the physical address space.
func (r Remap) Apply(pa uint64) uint64 {
	if r.Active() && pa-r.HostBase < r.Size {
		return pa - r.Delta
	}
	return pa
}

// Hole is a programmable MMU bypass: virtual range [VABase, VABase+Size)
// maps linearly onto local physical memory at PhysBase without touching the
// page tables. Holes are always writable, non-user, executable.
type Hole struct {
	VABase   uint64
	Size     uint64
	PhysBase uint64
}

// TLB is a fully-associative, LRU-replaced translation cache. The paper's
// NxP core uses 16-entry I- and D-TLBs; the host model uses larger ones.
// TLB is a pure structure — timing is charged by the MMU and core models.
type TLB struct {
	Name     string
	capacity int
	entries  []Entry // LRU order: most recent last
	remaps   []Remap
	holes    []Hole

	hits, misses        uint64
	flushes, shootdowns uint64

	// gen counts every mutation of the translation function or the LRU
	// order: Insert, Flush, FlushPage, remap/hole programming, and any
	// Lookup hit that reorders entries. A Lookup hit on the entry that is
	// already most-recently-used leaves gen unchanged — its only state
	// change is hits++, which CountHit replicates. The MMU's
	// last-translation fast path caches (va, Result, gen) and is valid
	// exactly while gen is unchanged, because an unchanged gen proves a
	// real Lookup would be an MRU hit returning the same Result.
	gen uint64
}

// Register publishes the TLB's counters into a metrics registry under
// "tlb.<name>.*". Registration is gauge-based: the hot lookup path keeps
// its plain uint64 counters and the registry samples them only when a
// snapshot is taken.
func (t *TLB) Register(m *sim.Metrics) {
	prefix := "tlb." + t.Name + "."
	m.Gauge(prefix+"hits", func() uint64 { return t.hits })
	m.Gauge(prefix+"misses", func() uint64 { return t.misses })
	m.Gauge(prefix+"flushes", func() uint64 { return t.flushes })
	m.Gauge(prefix+"shootdowns", func() uint64 { return t.shootdowns })
}

// New creates a TLB with the given entry capacity.
func New(name string, capacity int) *TLB {
	if capacity <= 0 {
		panic(fmt.Sprintf("tlb: capacity %d", capacity))
	}
	return &TLB{Name: name, capacity: capacity}
}

// SetRemap programs the BAR remap control register bank to a single
// window. The host driver does this once it learns where the host mapped
// the board's BARs.
func (t *TLB) SetRemap(r Remap) { t.remaps = []Remap{r}; t.gen++ }

// AddRemap appends a remap window; the board exposes one per BAR.
func (t *TLB) AddRemap(r Remap) { t.remaps = append(t.remaps, r); t.gen++ }

// RemapReg returns the first remap register value (zero if none).
func (t *TLB) RemapReg() Remap {
	if len(t.remaps) == 0 {
		return Remap{}
	}
	return t.remaps[0]
}

// applyRemap rewrites pa through the first matching window.
func (t *TLB) applyRemap(pa uint64) uint64 {
	for _, r := range t.remaps {
		if r.Active() && pa-r.HostBase < r.Size {
			return pa - r.Delta
		}
	}
	return pa
}

// AddHole programs a translation bypass window.
func (t *TLB) AddHole(h Hole) { t.holes = append(t.holes, h); t.gen++ }

// Gen returns the TLB's mutation generation (see the gen field).
func (t *TLB) Gen() uint64 { return t.gen }

// CountHit records a TLB hit that was satisfied without calling Lookup:
// the MMU's last-translation fast path proves (via Gen) that a real
// Lookup would be a statistics-only MRU hit, then calls CountHit so the
// hit counter stays byte-identical to the slow path.
func (t *TLB) CountHit() { t.hits++ }

// CountHits is CountHit for a batch of n replicated hits — the superblock
// executor's one-update-per-block accounting for a run of fetches it has
// proven (same page, unchanged Gen) would each be MRU hits.
func (t *TLB) CountHits(n int) { t.hits += uint64(n) }

// Result is a successful translation. Its fields are ordered so Flags and
// Hit share one word: a result is copied on every translation, and the
// packed layout keeps it at 32 bytes.
type Result struct {
	Phys     uint64 // final physical address (post-remap, requester view)
	PageSize uint64
	Flags    paging.Flags
	Hit      bool // satisfied from the TLB (or a hole) without a walk

	// Span is the size of the naturally aligned virtual block around the
	// translated address that maps with one uniform delta (0: none). It
	// is the whole page when no hole intersects the page's virtual range
	// and every BAR remap window holds the raw page entirely or misses
	// it; failing that, the 4 KiB frame when the same holds for the
	// frame; otherwise 0. Only addresses inside the span may be answered
	// by adding an offset to this result instead of re-translating. Set
	// by Lookup entry hits and Insert; hole results and Peek/ResultFor
	// leave it 0.
	Span uint64
}

// linearSpan computes Result.Span for va translated through e.
func (t *TLB) linearSpan(e Entry, va uint64) uint64 {
	if t.uniform(e.VABase, e.PhysBase, e.PageSize) {
		return e.PageSize
	}
	if e.PageSize == paging.PageSize4K {
		return 0
	}
	frame := va &^ (paging.PageSize4K - 1)
	if t.uniform(frame, e.PhysBase+(frame-e.VABase), paging.PageSize4K) {
		return paging.PageSize4K
	}
	return 0
}

// uniform reports whether the size-byte virtual range at vaBase, whose
// raw (pre-remap) physical range starts at rawBase, translates with one
// uniform offset: no hole intersects the virtual range, and no remap
// window splits the raw range (each holds it entirely or misses it, so
// the first window that holds it shifts every byte alike).
func (t *TLB) uniform(vaBase, rawBase, size uint64) bool {
	for _, h := range t.holes {
		// Wrap-safe overlap test: any overlap puts one range's start
		// inside the other.
		if vaBase-h.VABase < h.Size || h.VABase-vaBase < size {
			return false
		}
	}
	last := rawBase + size - 1
	for _, r := range t.remaps {
		if !r.Active() {
			continue
		}
		if rawBase-r.HostBase < r.Size {
			if last-r.HostBase >= r.Size {
				return false // starts inside, ends beyond
			}
		} else if r.HostBase-rawBase < size {
			return false // window starts inside the range
		}
	}
	return true
}

// Lookup translates va if a hole or cached entry covers it. The boolean
// reports success; a false return means the caller must walk the tables
// and Insert the result.
func (t *TLB) Lookup(va uint64) (Result, bool) {
	for _, h := range t.holes {
		if va-h.VABase < h.Size {
			return Result{
				Phys:     h.PhysBase + (va - h.VABase),
				Flags:    paging.Flags{Writable: true},
				PageSize: h.Size,
				Hit:      true,
			}, true
		}
	}
	for i := len(t.entries) - 1; i >= 0; i-- {
		e := t.entries[i]
		if e.covers(va) {
			if i != len(t.entries)-1 {
				// Refresh LRU position. An MRU hit leaves the order (and
				// gen) untouched so the fast path survives repeat hits.
				copy(t.entries[i:], t.entries[i+1:])
				t.entries[len(t.entries)-1] = e
				t.gen++
			}
			t.hits++
			return Result{
				Phys:     t.applyRemap(e.PhysBase + (va - e.VABase)),
				Flags:    e.Flags,
				PageSize: e.PageSize,
				Hit:      true,
				Span:     t.linearSpan(e, va),
			}, true
		}
	}
	t.misses++
	return Result{}, false
}

// Peek translates va like Lookup but without refreshing LRU order or
// updating hit/miss statistics — for debugger-style inspection that must
// not perturb the metrics invariants.
func (t *TLB) Peek(va uint64) (Result, bool) {
	for _, h := range t.holes {
		if va-h.VABase < h.Size {
			return Result{
				Phys:     h.PhysBase + (va - h.VABase),
				Flags:    paging.Flags{Writable: true},
				PageSize: h.Size,
				Hit:      true,
			}, true
		}
	}
	for i := len(t.entries) - 1; i >= 0; i-- {
		e := t.entries[i]
		if e.covers(va) {
			return Result{
				Phys:     t.applyRemap(e.PhysBase + (va - e.VABase)),
				Flags:    e.Flags,
				PageSize: e.PageSize,
				Hit:      true,
			}, true
		}
	}
	return Result{}, false
}

// ResultFor computes the Result Insert would return for a walked
// translation without caching it.
func (t *TLB) ResultFor(va uint64, w paging.Walk) Result {
	base := va &^ (w.PageSize - 1)
	return Result{
		Phys:     t.applyRemap(w.PageBase + (va - base)),
		Flags:    w.Flags,
		PageSize: w.PageSize,
		Hit:      false,
	}
}

// Insert caches a walked translation, evicting the least recently used
// entry if full, and returns the translation result for va.
func (t *TLB) Insert(va uint64, w paging.Walk) Result {
	e := Entry{
		VABase:   va &^ (w.PageSize - 1),
		PageSize: w.PageSize,
		PhysBase: w.PageBase,
		Flags:    w.Flags,
	}
	if len(t.entries) >= t.capacity {
		copy(t.entries, t.entries[1:])
		t.entries = t.entries[:len(t.entries)-1]
	}
	t.entries = append(t.entries, e)
	t.gen++
	return Result{
		Phys:     t.applyRemap(w.PageBase + (va - e.VABase)),
		Flags:    w.Flags,
		PageSize: w.PageSize,
		Hit:      false,
		Span:     t.linearSpan(e, va),
	}
}

// Flush drops all cached entries (context switch / PTBR change). Holes and
// the remap register survive: they are board configuration, not process
// state.
func (t *TLB) Flush() {
	t.entries = t.entries[:0]
	t.flushes++
	t.gen++
}

// FlushPage drops any entry covering va (TLB shootdown after protection
// changes, e.g. the loader flipping NX bits).
func (t *TLB) FlushPage(va uint64) {
	t.shootdowns++
	t.gen++
	out := t.entries[:0]
	for _, e := range t.entries {
		if !e.covers(va) {
			out = append(out, e)
		}
	}
	t.entries = out
}

// Stats reports lifetime hit/miss counts.
func (t *TLB) Stats() (hits, misses uint64) { return t.hits, t.misses }

// Len returns the number of cached entries.
func (t *TLB) Len() int { return len(t.entries) }
