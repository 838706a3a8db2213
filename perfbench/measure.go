package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"flick/internal/runner"
	"flick/internal/stats"
)

// repResult is one repetition's outcome, as the child process that ran it
// reports it.
type repResult struct {
	Wall     time.Duration     `json:"wall_ns"`
	CPU      time.Duration     `json:"cpu_ns"` // user+sys of all threads
	Jobs     int               `json:"jobs"`   // scheduler jobs started
	Facts    facts             `json:"facts"`
	Counters map[string]uint64 `json:"counters"` // summed over jobs
	Digest   string            `json:"digest"`
	Err      string            `json:"err,omitempty"`

	// Traced repetitions only.
	Spans    []span        `json:"spans,omitempty"`
	Tracing  time.Duration `json:"tracing_ns,omitempty"` // spent recording spans and heap sizes
	Allocs   uint64        `json:"allocs,omitempty"`     // heap objects allocated
	GCs      uint32        `json:"gcs,omitempty"`        // GC cycles completed
	HeapPeak uint64        `json:"heap_peak,omitempty"`  // largest in-use heap seen at a job boundary
}

// units is how many jobs and traffic tasks the repetition attempted.
func (r repResult) units() int { return r.Jobs + r.Facts.Tasks }

// span is one scheduler job's wall-clock interval inside a traced
// repetition. Its parent is the repetition.
type span struct {
	Rep     int    `json:"rep"`
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Parent  string `json:"parent"`
	StartNS int64  `json:"start_ns"` // from the repetition's start
	DurNS   int64  `json:"dur_ns"`
}

// recorder is a repetition's Options.Progress hook. At every job's end it
// folds the job's own counters (the change in the summed counters since
// the previous job; Jobs=1 runs jobs one at a time) into the digest, and
// adds the time that takes to own, which the repetition's wall and CPU
// times exclude. In a traced repetition it also records the job's span
// and heap size, and adds the time that takes to tracing, which the
// repetition's times include: it is the cost of tracing.
type recorder struct {
	obs     *stats.Obs
	h       hash.Hash
	prev    map[string]uint64
	jobs    int
	own     time.Duration
	traced  bool
	tracing time.Duration
	start   time.Time
	begun   map[int]time.Time
	spans   []span
	heap    uint64
}

func (r *recorder) event(e runner.Event) {
	if !e.Done {
		r.jobs++
		if r.traced {
			now := time.Now()
			r.begun[e.ID] = now
			r.tracing += time.Since(now)
		}
		return
	}
	now := time.Now()
	fmt.Fprintf(r.h, "job %s err=%v\n", e.Name, e.Err)
	snap := r.obs.Merged()
	cur := make(map[string]uint64, len(snap.Counters)+2*len(snap.Histograms))
	for _, c := range snap.Counters {
		cur["c "+c.Name] = c.Value
	}
	for _, h := range snap.Histograms {
		cur["h "+h.Name+" count"] = h.Count
		cur["h "+h.Name+" sum"] = h.Sum
	}
	keys := make([]string, 0, len(cur))
	for k := range cur {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if d := cur[k] - r.prev[k]; d != 0 {
			fmt.Fprintf(r.h, "%s %d\n", k, d)
		}
	}
	r.prev = cur
	r.own += time.Since(now)
	if r.traced {
		t0 := time.Now()
		b := r.begun[e.ID]
		r.spans = append(r.spans, span{
			ID: e.ID, Name: e.Name,
			StartNS: b.Sub(r.start).Nanoseconds(), DurNS: now.Sub(b).Nanoseconds(),
		})
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		r.heap = max(r.heap, ms.HeapInuse)
		r.tracing += time.Since(t0)
	}
}

// runRep runs one repetition of the configured workload in this process.
func runRep(cfg config, traced bool) repResult {
	o := cfg.workload.options(cfg.seed, cfg.tiny)
	o.Obs = stats.NewObs(0)
	rec := &recorder{obs: o.Obs, h: sha256.New(), traced: traced, begun: map[int]time.Time{}}
	o.Progress = rec.event
	var art bytes.Buffer
	var ms0, ms1 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&ms0)
	}
	cpu0 := cpuTime()
	rec.start = time.Now()
	f, err := cfg.workload.rep(o, cfg.tiny, &art)
	wall := time.Since(rec.start) - rec.own
	cpu := cpuTime() - cpu0 - rec.own
	r := repResult{Wall: wall, CPU: cpu, Jobs: rec.jobs, Facts: f, Counters: map[string]uint64{}}
	if err != nil {
		r.Err = err.Error()
	}
	if traced {
		runtime.ReadMemStats(&ms1)
		r.Spans = rec.spans
		r.Tracing = rec.tracing
		r.Allocs = ms1.Mallocs - ms0.Mallocs
		r.GCs = ms1.NumGC - ms0.NumGC
		r.HeapPeak = max(rec.heap, ms1.HeapInuse)
	}
	for _, c := range o.Obs.Merged().Counters {
		r.Counters[c.Name] = c.Value
	}
	fmt.Fprintf(rec.h, "artifact %d\n", art.Len())
	rec.h.Write(art.Bytes())
	r.Digest = hex.EncodeToString(rec.h.Sum(nil)[:16])
	return r
}

// cpuTime is the user and system CPU time this process has used. The
// kernel leaves out time a virtual machine's host gave to other guests
// (steal time), which wall time includes.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sum adds every counter whose name starts with prefix and ends with
// suffix (e.g. "cpu." and ".instret" over all cores).
func (r repResult) sum(prefix, suffix string) uint64 {
	var n uint64
	for k, v := range r.Counters {
		if strings.HasPrefix(k, prefix) && strings.HasSuffix(k, suffix) {
			n += v
		}
	}
	return n
}

func (r repResult) crossings() uint64 {
	return r.Counters["flick.h2n_calls"] + r.Counters["flick.n2h_calls"]
}

// runResult is everything a run reports.
type runResult struct {
	host       string
	digest     string
	digestNote string
	walls      []float64 // untraced repetitions' wall and CPU seconds
	cpus       []float64
	attempted  int
	failed     int
	metrics    map[string]metric
	notes      []string
	spans      []span
	layers     *layerReport // traced runs only
}

func (res *runResult) failedFrac() float64 {
	if res.attempted == 0 {
		return 0
	}
	return float64(res.failed) / float64(res.attempted)
}

// check counts a repetition's jobs and tasks, all of them failed when it
// returned an error or its digest differs from the expected one.
func (res *runResult) check(r repResult, want string) {
	res.attempted += r.units()
	if r.Err != "" || r.Digest != want {
		res.failed += r.units()
	}
}

// minReps is the fewest repetitions a run makes, however long they take.
const minReps = 3

// measure runs the closed loop: back-to-back repetitions, each in a fresh
// child process, until the run's time is up. A fresh process per
// repetition is what a flicksim user pays for each experiment, and it
// keeps repetitions independent: the simulator does not release a
// finished machine's goroutines, so a process that repeats a workload
// carries every earlier repetition's machines. Every child also gives one
// sample of set-up time (its whole CPU time, process start included) and
// of peak resident memory.
//
// Times are CPU times, not wall times: on a shared virtual machine the
// host takes CPUs away from the guest for seconds at a time, and wall
// time counts that while CPU time does not.
func measure(cfg config, stderr io.Writer) (*runResult, error) {
	res := &runResult{metrics: map[string]metric{}}
	want, haveRef := cfg.reference[refKey(cfg)]
	var plain, traced []repResult
	var setups, rss []float64
	deadline := time.Now().Add(cfg.seconds)
	for i := 0; i < minReps || time.Now().Before(deadline); i++ {
		tr := cfg.trace && i%2 == 1
		r, secs, mb, err := spawnRep(cfg, tr)
		if err != nil {
			return nil, fmt.Errorf("repetition %d: %w", i, err)
		}
		if r.Err != "" {
			fmt.Fprintf(stderr, "perfbench: repetition %d: %s\n", i, r.Err)
		}
		if i == 0 {
			res.digest = r.Digest
			switch {
			case !haveRef:
				want = r.Digest
				res.digestNote = "no reference for this seed and size: compare it across commits"
			case r.Digest == want:
				res.digestNote = "matches the reference"
			default:
				res.digestNote = "DIFFERS from the reference " + want
			}
			res.notes = factNotes(r.Facts)
		}
		res.check(r, want)
		setups = append(setups, secs)
		rss = append(rss, mb)
		if tr {
			for j := range r.Spans {
				r.Spans[j].Rep, r.Spans[j].Parent = i, fmt.Sprintf("rep-%d", i)
			}
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	for _, r := range plain {
		res.walls = append(res.walls, r.Wall.Seconds())
		res.cpus = append(res.cpus, r.CPU.Seconds())
	}
	res.host = fingerprint()

	if !cfg.trace {
		var ips, nsx []float64
		for _, r := range plain {
			ips = append(ips, ratio(float64(r.sum("cpu.", ".instret")), r.CPU.Seconds()))
			nsx = append(nsx, ratio(float64(r.CPU.Nanoseconds()), float64(r.crossings())))
		}
		res.metrics["cpu_s"] = metric{median(res.cpus), "s"}
		res.metrics["sim_instr_per_s"] = metric{median(ips), "1/s"}
		res.metrics["host_ns_per_crossing"] = metric{median(nsx), "ns"}
		res.metrics["setup_s"] = metric{median(setups), "s"}
		res.metrics["peak_rss_mb"] = metric{median(rss), "MB"}
		return res, nil
	}
	lr, err := layerMetrics(cfg, res, traced)
	if err != nil {
		return nil, err
	}
	res.layers = lr
	for _, r := range traced {
		res.spans = append(res.spans, r.Spans...)
	}
	return res, nil
}

// factNotes describes the simulated results the paper comparison and the
// traffic plane report.
func factNotes(f facts) []string {
	var notes []string
	if len(f.Speedups) > 0 {
		var sp []string
		for _, x := range f.Speedups {
			sp = append(sp, fmt.Sprintf("%.2fx", x))
		}
		notes = append(notes, fmt.Sprintf("paper_err_pct: %.4f %% (Table IV speedups %s vs the paper's 0.75x/1.19x/1.09x)",
			f.PaperErrPct, strings.Join(sp, "/")))
	}
	if f.Tasks > 0 {
		notes = append(notes, fmt.Sprintf("virt_sojourn_p99_us: %.1f µs (%d tasks, %d failed)", f.SojournP99us, f.Tasks, f.TasksFailed))
	}
	return notes
}

// spawnRep runs one repetition in a child process of this program and
// returns its result, the child's whole CPU time in seconds, and its peak
// resident memory in MB.
func spawnRep(cfg config, traced bool) (r repResult, cpuSecs, rssMB float64, err error) {
	exe, err := os.Executable()
	if err != nil {
		return r, 0, 0, err
	}
	mode := "plain"
	if traced {
		mode = "traced"
	}
	args := []string{"-rep", mode, "-workload", cfg.workload.name, fmt.Sprintf("-seed=%d", cfg.seed)}
	if cfg.tiny {
		args = append(args, "-tiny")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return r, 0, 0, err
	}
	if err := cmd.Start(); err != nil {
		return r, 0, 0, err
	}
	line, rerr := bufio.NewReader(out).ReadBytes('\n')
	if werr := cmd.Wait(); rerr != nil || werr != nil {
		return r, 0, 0, fmt.Errorf("child exited without a result: %v %v", rerr, werr)
	}
	if err := json.Unmarshal(line, &r); err != nil {
		return r, 0, 0, fmt.Errorf("child result: %w", err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	cpuSecs = (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds()
	return r, cpuSecs, rssMB, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 { return quartiles(xs)[1] }

// quartiles returns the first quartile, median and third quartile, by
// the same exclusive method as Python's statistics.quantiles.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	for i := range q {
		pos := float64(i+1) * float64(n+1) / 4 // 1-based
		j := int(pos)
		frac := pos - float64(j)
		switch {
		case j < 1:
			q[i] = s[0]
		case j >= n:
			q[i] = s[n-1]
		default:
			q[i] = s[j-1] + frac*(s[j]-s[j-1])
		}
	}
	return q
}
