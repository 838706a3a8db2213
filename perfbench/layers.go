package main

import (
	"fmt"
	"io"
	"sort"
)

// layerReport is what a traced run's per-layer report needs beyond its
// metrics: repetition times and the program's counters per repetition.
type layerReport struct {
	plainCPU, tracedCPU float64 // median CPU s per repetition
	plainWall           float64 // median wall s per untraced repetition
	counters            map[string]uint64
}

// layerMetrics runs the layer probes and computes the per-layer metrics
// from them, the traced repetitions, and the untraced repetition times
// already in res.
func layerMetrics(cfg config, res *runResult, traced []repResult) (*layerReport, error) {
	pr, err := runProbes(cfg)
	if err != nil {
		return nil, err
	}
	var jobMax, self, allocs, gcs, heap, tc, overhead []float64
	for _, r := range traced {
		var longest, inJobs int64
		for _, s := range r.Spans {
			longest = max(longest, s.DurNS)
			inJobs += s.DurNS
		}
		jobMax = append(jobMax, float64(longest)/1e6)
		self = append(self, float64(r.Wall.Nanoseconds()-inJobs)/1e6)
		allocs = append(allocs, float64(r.Allocs))
		gcs = append(gcs, float64(r.GCs))
		heap = append(heap, float64(r.HeapPeak)/(1<<20))
		tc = append(tc, r.CPU.Seconds())
		overhead = append(overhead, 100*ratio(float64(r.Tracing), float64(r.Wall-r.Tracing)))
	}
	lr := &layerReport{plainCPU: median(res.cpus), tracedCPU: median(tc), plainWall: median(res.walls)}
	r := traced[0] // the program's counters repeat exactly
	f := r.Facts
	lr.counters = map[string]uint64{
		"cpu.instret":             r.sum("cpu.", ".instret"),
		"cpu.icache.hits":         r.sum("cpu.", ".icache.hits"),
		"cpu.icache.fills":        r.sum("cpu.", ".icache.fills"),
		"mmu.translates":          r.sum("mmu.", ".translates"),
		"mmu.walks":               r.sum("mmu.", ".walks"),
		"tlb.hits":                r.sum("tlb.", ".hits"),
		"tlb.misses":              r.sum("tlb.", ".misses"),
		"flick.crossings":         r.crossings(),
		"kernel.context_switches": r.Counters["kernel.context_switches"],
		"kernel.irqs":             r.Counters["kernel.irqs"],
		"dma.transfers":           r.sum("dma", ".transfers"),
		"dma.bytes":               r.sum("dma", ".bytes"),
		"migration.retries":       r.Counters["migration.retries"] + r.Counters["migration.dma_retries"],
		"runner.jobs":             uint64(r.Jobs),
	}
	c := lr.counters
	set := func(name, unit string, v float64) { res.metrics[name] = metric{v, unit} }
	count := func(name string) { set(name, "count", float64(c[name])) }

	count("runner.jobs")
	set("runner.job_ms_max", "ms", median(jobMax))
	set("experiments.self_ms", "ms", median(self))
	set("workloads.graphgen_ms", "ms", pr.graphgenMS)
	set("workloads.refbfs_ms", "ms", pr.refbfsMS)
	set("build.machine_ms", "ms", pr.buildMS)
	count("cpu.instret")
	set("cpu.icache_hit_ratio", "ratio", ratio(float64(c["cpu.icache.hits"]), float64(c["cpu.icache.hits"]+c["cpu.icache.fills"])))
	set("cpu.step_ns", "ns", pr.stepNS)
	set("cpu.read_u64_virt_ns", "ns", pr.readVirtNS)
	set("cpu.read_u64_virt_allocs", "count", pr.readVirtA)
	count("mmu.translates")
	count("mmu.walks")
	set("tlb.hit_ratio", "ratio", ratio(float64(c["tlb.hits"]), float64(c["tlb.hits"]+c["tlb.misses"])))
	set("mmu.translate_ns", "ns", pr.translateNS)
	set("mem.read_u64_ns", "ns", pr.memReadNS)
	set("mem.write_page_ns", "ns", pr.memWriteNS)
	set("mem.write_allocs", "count", pr.memWriteA)
	set("sim.handoff_ns", "ns", pr.handoffNS)
	set("sim.inplace_sleep_ns", "ns", pr.inplaceNS)
	set("sim.queue_op_ns", "ns", pr.queueOpNS)
	for _, n := range []string{"flick.crossings", "kernel.context_switches", "kernel.irqs", "dma.transfers", "dma.bytes", "migration.retries"} {
		count(n)
	}
	set("core.null_call_ns", "ns", pr.nullCallNS)
	set("traffic.tasks", "count", float64(f.Tasks))
	set("traffic.tasks_failed", "count", float64(f.TasksFailed))
	set("go.allocs_per_rep", "count", median(allocs))
	set("go.gc_cycles_per_rep", "count", median(gcs))
	set("go.heap_peak_mb", "MB", median(heap))
	set("trace.overhead_pct", "%", median(overhead))
	set("wall_s", "s", lr.plainWall)
	set("table4.paper_err_pct", "%", f.PaperErrPct)
	set("traffic.virt_sojourn_p99_us", "us", f.SojournP99us)
	set("failed_frac", "ratio", res.failedFrac())
	return lr, nil
}

// writeLayerReport renders the traced run's per-layer report: host time
// per simulated event for each layer's counter, then the probes.
func writeLayerReport(w io.Writer, cfg config, res *runResult) {
	lr := res.layers
	fmt.Fprintf(w, "# Per-layer report: %s\n\n", cfg.workload.name)
	fmt.Fprintf(w, "Traced run, seed %d. %s\n\n", cfg.seed, cfg.workload.why)
	fmt.Fprintf(w, "Host: %s\n\n", res.host)
	fmt.Fprintf(w, "Median repetition CPU time: %.4f s untraced, %.4f s traced; median wall time %.4f s untraced.\n", lr.plainCPU, lr.tracedCPU, lr.plainWall)
	fmt.Fprintf(w, "Recording spans and heap sizes took %.3f%% of a traced repetition's wall time (timed around the tracing code itself).\n\n",
		res.metrics["trace.overhead_pct"].Value)

	fmt.Fprintln(w, "## Host ns per simulated event")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Untraced median repetition CPU time divided by the event's count per repetition.")
	fmt.Fprintln(w, "Where a probe times the layer alone, its ns per event times the count gives")
	fmt.Fprintln(w, "the layer's estimated share of the repetition.")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| layer | event | per repetition | host ns per event | probe | probe ns | est. share |")
	fmt.Fprintln(w, "|---|---|---:|---:|---|---:|---:|")
	rows := []struct{ layer, counter, probe string }{
		{"runner", "runner.jobs", ""},
		{"cpu", "cpu.instret", "cpu.step_ns"},
		{"mmu", "mmu.translates", "mmu.translate_ns"},
		{"mmu", "mmu.walks", ""},
		{"flick", "flick.crossings", "core.null_call_ns"},
		{"kernel", "kernel.context_switches", ""},
		{"kernel", "kernel.irqs", ""},
		{"pcie", "dma.transfers", ""},
	}
	for _, r := range rows {
		n := lr.counters[r.counter]
		per, probe, probeNS, share := "-", "-", "-", "-"
		if n > 0 {
			per = fmt.Sprintf("%.1f", lr.plainCPU*1e9/float64(n))
		}
		if r.probe != "" {
			p := res.metrics[r.probe].Value
			probe, probeNS = r.probe, fmt.Sprintf("%.1f", p)
			share = fmt.Sprintf("%.1f%%", 100*ratio(p*float64(n), lr.plainCPU*1e9))
		}
		fmt.Fprintf(w, "| %s | %s | %d | %s | %s | %s | %s |\n", r.layer, r.counter, n, per, probe, probeNS, share)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "## Per-layer metrics")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| metric | value | unit |")
	fmt.Fprintln(w, "|---|---:|---|")
	names := make([]string, 0, len(res.metrics))
	for n := range res.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.metrics[n]
		fmt.Fprintf(w, "| %s | %.6g | %s |\n", n, m.Value, m.Unit)
	}
}
