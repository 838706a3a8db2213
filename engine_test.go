package flick_test

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"flick/internal/experiments"
	"flick/internal/sim"
	"flick/internal/stats"
)

// engineRecord is everything `flicksim -boards 4 -metrics-out -trace-out
// scaleout traffic` writes: the rendered artifacts plus the metrics JSON
// and the Chrome trace.
type engineRecord struct {
	stdout, metrics, trace []byte
}

// renderBoards4 runs the four-board scale-out sweep and a short traffic
// sweep two jobs wide, so machines are built on one runner worker
// goroutine and driven by whichever worker picks them up.
func renderBoards4(t *testing.T) engineRecord {
	t.Helper()
	o := experiments.Quick()
	o.Boards = 4
	o.Jobs = 2
	o.Obs = stats.NewObs(1 << 12)
	var out, metrics, trace bytes.Buffer
	tab, err := experiments.ScaleOut(o)
	if err != nil {
		t.Fatal(err)
	}
	tab.Render(&out)
	if err := experiments.Traffic(o, experiments.TrafficOptions{Window: sim.Millisecond}, &out); err != nil {
		t.Fatal(err)
	}
	if err := o.Obs.WriteMetricsJSON(&metrics); err != nil {
		t.Fatal(err)
	}
	if err := o.Obs.WriteChromeTrace(&trace); err != nil {
		t.Fatal(err)
	}
	return engineRecord{out.Bytes(), metrics.Bytes(), trace.Bytes()}
}

// TestInterleavingIndependence pins the event engine against the host
// scheduler: a four-board run must give byte-identical artifacts, metrics
// and trace on one OS thread and on all of them. Every process is a
// coroutine handed control by the event loop, so no result may depend on
// how the runtime places goroutines.
func TestInterleavingIndependence(t *testing.T) {
	want := renderBoards4(t)
	if len(want.stdout) == 0 || len(want.metrics) == 0 || len(want.trace) == 0 {
		t.Fatal("empty record")
	}
	for _, procs := range []int{1, runtime.NumCPU()} {
		prev := runtime.GOMAXPROCS(procs)
		got := renderBoards4(t)
		runtime.GOMAXPROCS(prev)
		if !bytes.Equal(got.stdout, want.stdout) {
			t.Errorf("GOMAXPROCS=%d: stdout diverges:\n--- want ---\n%s\n--- got ---\n%s", procs, want.stdout, got.stdout)
		}
		if !bytes.Equal(got.metrics, want.metrics) {
			t.Errorf("GOMAXPROCS=%d: metrics JSON diverges (%d vs %d bytes)", procs, len(got.metrics), len(want.metrics))
		}
		if !bytes.Equal(got.trace, want.trace) {
			t.Errorf("GOMAXPROCS=%d: trace diverges (%d vs %d bytes)", procs, len(got.trace), len(want.trace))
		}
	}
}

// TestRepeatedRunsReleaseGoroutines checks that a finished machine leaves
// nothing running: every workload closes its machine, which stops the
// coroutines of the device engines and scheduler loops that idle forever.
// After repeated Figure 5a sweeps the goroutine count must return to its
// baseline.
func TestRepeatedRunsReleaseGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for rep := 0; rep < 3; rep++ {
		o := experiments.Quick()
		o.Jobs = 2
		if _, err := experiments.Fig5a(o); err != nil {
			t.Fatal(err)
		}
	}
	// Allow the runtime a moment to retire the runner's worker goroutines.
	for i := 0; i < 200 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked across fig5a runs: %d before, %d after", before, after)
	}
}
