package workloads

import (
	"strings"
	"testing"

	"flick/internal/sim"
	"flick/internal/traffic"
)

// handoffProbe is an Observer that keeps the run's coroutine-switch count
// and the instructions all its cores retired.
type handoffProbe struct {
	handoffs, instret uint64
}

func (h *handoffProbe) observer() *sim.Observer {
	return &sim.Observer{OnReport: func(r sim.Report) {
		h.handoffs = r.Handoffs
		for _, c := range r.Metrics.Counters {
			if strings.HasPrefix(c.Name, "cpu.") && strings.HasSuffix(c.Name, ".instret") {
				h.instret += c.Value
			}
		}
	}}
}

func (h *handoffProbe) perHandoff() float64 { return float64(h.instret) / float64(h.handoffs) }

// TestBoardCoresSwitchRarely pins the cost the event loop's superblock
// continuation removed: with two or more busy board cores, every
// instruction used to park its core in the queue and switch coroutines,
// because the other core's next instruction was always earlier. Pure
// superblock members now run from the event loop at their own wakeups, so
// a switch is only needed where a handler must sleep or the Step ends.
// The counts are deterministic; the bound is the contract.
func TestBoardCoresSwitchRarely(t *testing.T) {
	if sim.FastPathsDisabled() {
		t.Skip("FLICKSIM_NOSUPERBLOCK runs every sleep through the body")
	}
	const minPerHandoff = 10

	var so handoffProbe
	if _, _, err := RunScaleOut(8, 12, 4, "round-robin", nil, so.observer()); err != nil {
		t.Fatal(err)
	}
	t.Logf("scale-out b4: %d instructions, %d handoffs (%.1f per handoff)", so.instret, so.handoffs, so.perHandoff())
	if so.perHandoff() < minPerHandoff {
		t.Errorf("scale-out b4: %.1f instructions per handoff, want >= %d", so.perHandoff(), minPerHandoff)
	}

	var tr handoffProbe
	r, err := RunTraffic(TrafficConfig{
		Arrival: traffic.Spec{Shape: traffic.ShapePoisson, Rate: 66_000, Seed: 42},
		Window:  4 * sim.Millisecond,
		Boards:  4,
		Obs:     tr.observer(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed != 0 {
		t.Fatalf("traffic b4: %d of %d tasks failed", r.Failed, r.Tasks)
	}
	t.Logf("traffic b4: %d instructions, %d handoffs (%.1f per handoff)", tr.instret, tr.handoffs, tr.perHandoff())
	if tr.perHandoff() < minPerHandoff {
		t.Errorf("traffic b4: %.1f instructions per handoff, want >= %d", tr.perHandoff(), minPerHandoff)
	}
}
