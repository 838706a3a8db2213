package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// test's run starts set-up probes, which re-execute the running program.
func TestMain(m *testing.M) {
	if os.Getenv("PERFBENCH_MAIN") == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

type spec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// smoke runs the benchmark in-process at the tiny size and seed 42,
// checking against ref (the embedded reference when nil), and returns its
// result line and full output. Its repetitions re-execute the test
// binary, which TestMain turns into the benchmark.
func smoke(t *testing.T, workload string, trace bool, ref map[string]string) (result, string) {
	t.Helper()
	t.Setenv("PERFBENCH_MAIN", "1")
	w, ok := lookupWorkload(workload)
	if !ok {
		t.Fatalf("no workload %q", workload)
	}
	if ref == nil {
		var err error
		if ref, err = loadReference(); err != nil {
			t.Fatal(err)
		}
	}
	cfg := config{workload: w, seed: 42, seconds: time.Millisecond, trace: trace, tiny: true, reference: ref, dir: t.TempDir()}
	var out, errOut bytes.Buffer
	if code := runConfig(cfg, &out, &errOut); code != 0 {
		t.Fatalf("%s trace=%v: exit %d\n%s", workload, trace, code, errOut.String())
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var r result
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out.String())
	}
	return r, out.String()
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloadList) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(s.Workloads), len(workloadList))
	}
	for i, w := range s.Workloads {
		if got := workloadList[i]; got.name != w.Name || got.why != w.Why {
			t.Errorf("workload %d: benchmark has %q (%q), BENCHMARK.json %q (%q)", i, got.name, got.why, w.Name, w.Why)
		}
	}
}

// TestEveryNamePrintedWithUnit checks that the untraced run prints
// exactly the end-to-end metrics and the traced run exactly the
// per-layer ones, each with BENCHMARK.json's unit.
func TestEveryNamePrintedWithUnit(t *testing.T) {
	s := loadSpec(t)
	for _, c := range []struct {
		trace bool
		want  []struct{ Name, Unit string }
	}{{false, s.EndToEnd}, {true, s.PerLayer}} {
		r, _ := smoke(t, "traffic-b4", c.trace, nil)
		var got, want []string
		for n, m := range r.Metrics {
			got = append(got, n+" "+m.Unit)
		}
		for _, m := range c.want {
			want = append(want, m.Name+" "+m.Unit)
		}
		sort.Strings(got)
		sort.Strings(want)
		if g, w := fmtList(got), fmtList(want); g != w {
			t.Errorf("trace %v prints\n%s\nwant\n%s", c.trace, g, w)
		}
	}
}

func fmtList(xs []string) string {
	b, _ := json.MarshalIndent(xs, "", " ")
	return string(b)
}

func TestSmokeEachWorkload(t *testing.T) {
	for _, w := range workloadList {
		t.Run(w.name, func(t *testing.T) {
			r, out := smoke(t, w.name, false, nil)
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("correct=%v failed=%d attempted=%d\n%s", r.Correct, r.Failed, r.Attempted, out)
			}
			for n, m := range r.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v, want > 0", n, m.Value)
				}
			}
		})
	}
}

var digestRe = regexp.MustCompile(`(?m)^digest: ([0-9a-f]+) `)

// TestReferenceDigest checks that a matching reference passes and a
// corrupted one fails every job and task of the run.
func TestReferenceDigest(t *testing.T) {
	_, out := smoke(t, "traffic-b4", false, nil)
	m := digestRe.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no digest line in\n%s", out)
	}
	for _, c := range []struct {
		digest string
		ok     bool
	}{{m[1], true}, {"00000000000000000000000000000000", false}} {
		r, out := smoke(t, "traffic-b4", false, map[string]string{"traffic-b4 tiny seed=42": c.digest})
		if c.ok && (!r.Correct || r.Failed != 0) {
			t.Errorf("matching reference: correct=%v failed=%d\n%s", r.Correct, r.Failed, out)
		}
		if !c.ok && (r.Correct || r.Failed != r.Attempted || r.Attempted == 0) {
			t.Errorf("corrupted reference: correct=%v failed=%d of %d, want failed_frac 1\n%s", r.Correct, r.Failed, r.Attempted, out)
		}
	}
}

func TestReferenceCoversDefaultSeed(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadList {
		if k := refKey(config{workload: w, seed: 42}); ref[k] == "" {
			t.Errorf("no reference digest for %q", k)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), which the benchmark's consumers use.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
