package cpu

import (
	"fmt"
	"math/rand"
	"testing"
)

// mapICache is the I-cache as it was built on a Go map: the reference the
// open-addressed table must match operation for operation.
type mapICache struct {
	capacity          int
	lines             map[uint64]int
	order             []uint64
	next              int
	hits, fills, gens uint64
}

func (ic *mapICache) lookup(pa uint64) (uint64, bool) {
	line := pa &^ (icacheLineSize - 1)
	_, hit := ic.lines[line]
	if hit {
		ic.hits++
	}
	return line, hit
}

func (ic *mapICache) fill(line uint64) {
	if len(ic.lines) >= ic.capacity {
		delete(ic.lines, ic.order[ic.next%ic.capacity])
	}
	ic.lines[line] = ic.next
	ic.order[ic.next%ic.capacity] = line
	ic.next++
	ic.fills++
	ic.gens++
}

func (ic *mapICache) flush() {
	clear(ic.lines)
	ic.next = 0
	ic.gens++
}

// TestICacheMatchesMapReference drives the I-cache and the map reference
// through the same random lookups, fills (also of resident lines), flushes
// and residency probes over a pool of lines larger than the cache, and
// requires the same answers, counters, generation and resident set after
// every step.
func TestICacheMatchesMapReference(t *testing.T) {
	for _, capacity := range []int{256, 512} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("lines%d/seed%d", capacity, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				// Line 0, lines homed in the table's last slots (probe
				// runs that wrap around its end), and lines of one hot
				// region among scattered ones.
				got := newICache(capacity)
				pool := []uint64{0}
				for line := uint64(icacheLineSize); len(pool) < 32; line += icacheLineSize {
					if got.home(line) >= len(got.slots)-8 {
						pool = append(pool, line)
					}
				}
				for len(pool) < 3*capacity/2 {
					if rng.Intn(2) == 0 {
						pool = append(pool, uint64(rng.Intn(4*capacity))*icacheLineSize)
					} else {
						pool = append(pool, rng.Uint64()&^(icacheLineSize-1))
					}
				}
				want := &mapICache{capacity: capacity, lines: map[uint64]int{}, order: make([]uint64, capacity)}
				for step := range 20000 {
					line := pool[rng.Intn(len(pool))]
					switch op := rng.Intn(1000); {
					case op < 600:
						pa := line + uint64(rng.Intn(icacheLineSize))
						gl, gh := got.lookup(pa)
						wl, wh := want.lookup(pa)
						if gl != wl || gh != wh {
							t.Fatalf("step %d: lookup(%#x) = %#x,%v, want %#x,%v", step, pa, gl, gh, wl, wh)
						}
						if !wh {
							got.fill(wl)
							want.fill(wl)
						}
					case op < 700:
						got.fill(line)
						want.fill(line)
					case op < 701:
						got.flush()
						want.flush()
					default:
						_, ok := want.lines[line]
						if got.resident(line) != ok {
							t.Fatalf("step %d: resident(%#x) = %v, want %v", step, line, !ok, ok)
						}
					}
					if got.hits != want.hits || got.fills != want.fills || got.gen != want.gens || got.n != len(want.lines) {
						t.Fatalf("step %d: hits/fills/gen/resident %d/%d/%d/%d, want %d/%d/%d/%d", step,
							got.hits, got.fills, got.gen, got.n, want.hits, want.fills, want.gens, len(want.lines))
					}
				}
				for _, line := range pool {
					if _, ok := want.lines[line]; got.resident(line) != ok {
						t.Errorf("final: resident(%#x) = %v, want %v", line, !ok, ok)
					}
				}
			})
		}
	}
}
