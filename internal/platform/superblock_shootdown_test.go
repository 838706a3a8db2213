package platform

import (
	"fmt"
	"testing"

	"flick/internal/sim"
)

// TestShootdownDropsPredecode extends the shootdown fan-out contract to
// the superblock caches: a TLB shootdown IPI must also drop the decoded
// instructions of every core it reaches — host cores, every board's NxP
// core, and the DSP — across 1..3 boards.
func TestShootdownDropsPredecode(t *testing.T) {
	if sim.FastPathsDisabled() {
		t.Skip("FLICKSIM_NOSUPERBLOCK set: no superblock caches to drop")
	}
	for _, boards := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("boards=%d", boards), func(t *testing.T) {
			p := DefaultParams()
			p.Boards = boards
			p.EnableDSP = true
			m, err := New(p)
			if err != nil {
				t.Fatal(err)
			}
			before := make([]uint64, len(m.coreTLBSets))
			for i, set := range m.coreTLBSets {
				_, _, before[i] = set.core.SuperblockStats()
			}
			for _, tgt := range m.ShootdownTargets() {
				tgt.Flush(0x4_0000_0000)
			}
			for i, set := range m.coreTLBSets {
				if _, _, after := set.core.SuperblockStats(); after != before[i]+1 {
					t.Errorf("%s: superblock flushes %d -> %d after one shootdown, want +1",
						set.name, before[i], after)
				}
			}
		})
	}
}
