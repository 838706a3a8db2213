// Command perfbench is the simulator's end-to-end benchmark. One
// invocation runs one named workload: a closed loop of back-to-back
// repetitions of a paper experiment with one client, on the default sequential engine with
// Jobs=1. It checks every repetition's simulated results against a
// reference digest, prints every metric by name and unit, and ends with
// one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (cpu_s,
// sim_instr_per_s, host_ns_per_crossing, setup_s, peak_rss_mb). With
// -trace 1 they are the per-layer ones: the untraced repetitions' median
// wall time (wall_s), job spans recorded around the scheduler, timed
// probes of each inner layer, and the program's own deterministic
// counters. A traced run also writes layers/<workload>.md
// (host ns per simulated event, by layer) and out/spans-<workload>.json.
//
// Each repetition runs in a fresh child process, as each flicksim run
// does; cpu_s is the median CPU time of a repetition, setup_s the median
// CPU time of a child from its start to its repetition's result, and
// peak_rss_mb the median of the children's peak resident memory. Wall
// times are printed beside them. CPU time adds up every thread, so the
// CPU-time metrics cannot credit a change whose gain is parallelism
// (overlapping work on several threads); judge such a change by wall_s
// and the printed wall quartiles. The reference digests in
// reference.json cover the default seed; at other seeds every repetition
// must reproduce the first one's digest, which the run prints so that two
// commits can be compared. A change meant to alter simulated results must
// refresh reference.json from the printed digests.
//
// Run it from the repository root through the launcher, which builds it:
//
//	bash perfbench/run.sh --workload bfs-table4 --seed 42 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's settings.
type config struct {
	workload *workload
	seed     int64
	seconds  time.Duration
	trace    bool
	tiny     bool
	// reference maps refKey(workload, size, seed) to the expected digest.
	reference map[string]string
	// dir is the benchmark's directory, where traced runs write their
	// per-layer report and spans.
	dir string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 42, "workload seed")
	seconds := fs.Float64("seconds", 25, "how long the closed loop runs")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	tiny := fs.Bool("tiny", false, "shrink the workload to a smoke-test size")
	rep := fs.String("rep", "", "internal: run one plain or traced repetition and print it as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 || *rep != "" && *rep != "plain" && *rep != "traced" {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1, -seconds positive, -rep plain or traced")
		return 2
	}
	ref, err := loadReference()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	cfg := config{
		workload:  w,
		seed:      *seed,
		seconds:   time.Duration(*seconds * float64(time.Second)),
		trace:     *trace == 1,
		tiny:      *tiny,
		reference: ref,
		dir:       "perfbench",
	}
	if *rep != "" {
		b, err := json.Marshal(runRep(cfg, *rep == "traced"))
		if err != nil {
			panic(err) // plain numbers, strings and maps always marshal
		}
		fmt.Fprintf(stdout, "%s\n", b)
		return 0
	}
	return runConfig(cfg, stdout, stderr)
}

// runConfig measures the configured run, writes a traced run's files and
// prints the result.
func runConfig(cfg config, stdout, stderr io.Writer) int {
	res, err := measure(cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if cfg.trace {
		if err := writeTraceFiles(cfg, res); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	printResult(stdout, cfg, res)
	return 0
}

// metric is one named, unit-carrying number of the final JSON line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the run's last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// printResult writes the human-readable header lines, then the JSON line.
func printResult(w io.Writer, cfg config, res *runResult) {
	fmt.Fprintf(w, "perfbench: workload=%s seed=%d trace=%v tiny=%v\n", cfg.workload.name, cfg.seed, cfg.trace, cfg.tiny)
	fmt.Fprintf(w, "host: %s\n", res.host)
	fmt.Fprintf(w, "digest: %s (%s)\n", res.digest, res.digestNote)
	wq, cq := quartiles(res.walls), quartiles(res.cpus)
	fmt.Fprintf(w, "untraced repetitions: %d; quartiles wall_s %.4f / %.4f / %.4f, cpu_s %.4f / %.4f / %.4f\n",
		len(res.walls), wq[0], wq[1], wq[2], cq[0], cq[1], cq[2])
	fmt.Fprintf(w, "failed_frac: %.4f (%d of %d jobs and tasks)\n", res.failedFrac(), res.failed, res.attempted)
	for _, line := range res.notes {
		fmt.Fprintln(w, line)
	}
	names := make([]string, 0, len(res.metrics))
	for n := range res.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.metrics[n]
		fmt.Fprintf(w, "  %-28s %16.6g %s\n", n, m.Value, m.Unit)
	}
	out := result{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   res.metrics,
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // a map of finite floats always marshals
	}
	fmt.Fprintln(w, string(b))
}

// writeTraceFiles stores the traced run's per-layer report and job spans
// in the benchmark's directory.
func writeTraceFiles(cfg config, res *runResult) error {
	layers := filepath.Join(cfg.dir, "layers")
	spans := filepath.Join(cfg.dir, "out")
	for _, d := range []string{layers, spans} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	name := cfg.workload.name
	if cfg.tiny {
		name += "-tiny"
	}
	if err := writeFile(filepath.Join(layers, name+".md"), func(w io.Writer) error {
		writeLayerReport(w, cfg, res)
		return nil
	}); err != nil {
		return err
	}
	return writeFile(filepath.Join(spans, "spans-"+name+".json"), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		return enc.Encode(res.spans)
	})
}

func writeFile(path string, fill func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	return f.Close()
}
