package cpu

import "math/bits"

// icacheLineSize is the instruction-cache line size in bytes.
const icacheLineSize = 64

// icache is a minimal instruction cache model: a bounded set of physical
// line addresses with FIFO replacement. Its purpose is timing fidelity for
// the NxP core, whose instruction stream lives in host memory across the
// PCIe link (paper §III-D): the first fetch of a line pays the cross-link
// fill cost, loop bodies then run from the cache.
type icache struct {
	capacity int
	order    []uint64 // FIFO ring
	next     int
	hits     uint64
	fills    uint64

	// slots is the set of resident lines, open-addressed with linear
	// probing: a power-of-two table at least twice capacity, each line
	// stored as line|1 so that 0 marks an empty slot (line bases are
	// 64-byte aligned), the home slot the top bits of a Fibonacci hash.
	// Deletion shifts later entries back, so no tombstones build up.
	slots []uint64
	shift uint // 64 - log2(len(slots))
	n     int  // resident lines

	// gen counts content mutations (fills and flushes). A superblock that
	// validated all its lines resident at generation g can skip the
	// per-line residency probes while gen == g: no fill has evicted
	// anything and no flush has emptied the cache since.
	gen uint64
}

func newICache(lines int) *icache {
	size := 1 << bits.Len(uint(2*lines-1))
	return &icache{
		capacity: lines,
		order:    make([]uint64, lines),
		slots:    make([]uint64, size),
		shift:    uint(64 - bits.TrailingZeros(uint(size))),
	}
}

// home returns the slot where a probe for line starts.
func (ic *icache) home(line uint64) int {
	return int((line / icacheLineSize * 0x9E3779B97F4A7C15) >> ic.shift)
}

// find returns the slot holding line, or the empty slot ending its probe
// sequence and false.
func (ic *icache) find(line uint64) (int, bool) {
	mask := len(ic.slots) - 1
	for i := ic.home(line); ; i = (i + 1) & mask {
		switch ic.slots[i] {
		case line | 1:
			return i, true
		case 0:
			return i, false
		}
	}
}

// lookup returns the line base for pa and whether it is resident.
func (ic *icache) lookup(pa uint64) (line uint64, hit bool) {
	line = pa &^ (icacheLineSize - 1)
	_, hit = ic.find(line)
	if hit {
		ic.hits++
	}
	return line, hit
}

// fill inserts a line, evicting FIFO when full.
func (ic *icache) fill(line uint64) {
	if ic.n >= ic.capacity {
		ic.remove(ic.order[ic.next%ic.capacity])
	}
	if i, ok := ic.find(line); !ok {
		ic.slots[i] = line | 1
		ic.n++
	}
	ic.order[ic.next%ic.capacity] = line
	ic.next++
	ic.fills++
	ic.gen++
}

// remove drops line from the resident set if present, moving each later
// entry of its probe run whose home slot does not lie cyclically in
// (hole, entry] back into the hole.
func (ic *icache) remove(line uint64) {
	i, ok := ic.find(line)
	if !ok {
		return
	}
	mask := len(ic.slots) - 1
	for j := (i + 1) & mask; ic.slots[j] != 0; j = (j + 1) & mask {
		h := ic.home(ic.slots[j] &^ 1)
		if i <= j && (h <= i || h > j) || i > j && h <= i && h > j {
			ic.slots[i] = ic.slots[j]
			i = j
		}
	}
	ic.slots[i] = 0
	ic.n--
}

func (ic *icache) flush() {
	clear(ic.slots)
	ic.n = 0
	ic.next = 0
	ic.gen++
}

// resident reports whether a line is cached without touching the hit
// counter — a pure residency probe for block validation.
func (ic *icache) resident(line uint64) bool {
	_, ok := ic.find(line)
	return ok
}

// countHits settles the hit counter for n lookups a batch executor proved
// (via resident/gen) would each have hit.
func (ic *icache) countHits(n uint64) { ic.hits += n }
