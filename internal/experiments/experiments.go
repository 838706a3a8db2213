// Package experiments regenerates every table and figure of the paper's
// evaluation section. Each experiment *emits* a list of independent,
// self-contained simulation jobs (one private machine per job, one
// derived seed per job) and hands them to the internal/runner scheduler;
// thread-safe order-preserving collectors in internal/stats then assemble
// the same artifact the paper reports regardless of completion order.
// Results are therefore bit-identical for any Options.Jobs value. The
// bench harness (bench_test.go) and the flicksim CLI both call in here.
package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"flick/internal/baseline"
	"flick/internal/kernel"
	"flick/internal/platform"
	"flick/internal/runner"
	"flick/internal/sim"
	"flick/internal/stats"
	"flick/internal/workloads"
)

// SeedZero requests a literal zero RNG seed. The Seed field's zero value
// selects the default (Quick) seed — the usual Go zero-value collision —
// so seed 0 itself needs an explicit sentinel.
const SeedZero int64 = math.MinInt64

// Options tunes fidelity versus runtime. Zero values pick CI-friendly
// defaults; Full selects paper-scale parameters. All counts are
// meaningful only at >= 1: zero means "use the default" and negative
// values are rejected, so every explicitly-requestable value (including
// paper scale, which is always 1 or larger) stays expressible.
type Options struct {
	// NullCallIters is the Table II/III averaging count (paper: 10000).
	NullCallIters int
	// ChasePoints are the Figure 5 x-axis samples (paper: 4..1024 step 4).
	ChasePoints []int
	// ChaseCalls is the per-point averaging count.
	ChaseCalls int
	// BFSScale divides the Table IV dataset sizes (1 = paper scale; zero
	// selects the Quick default of 64, so request paper scale explicitly
	// with BFSScale: 1).
	BFSScale int
	// BFSIters is the Table IV averaging count (paper: 10).
	BFSIters int
	// Seed is the base RNG seed; every job derives its own independent
	// seed from it (runner.DeriveSeed). Zero selects the default seed;
	// use SeedZero to request a literal zero.
	Seed int64
	// Faults is a fault-injection spec (internal/faultinj grammar, e.g.
	// "dma.fail=0.05,msi.drop=0.1") applied to every simulated machine the
	// experiment builds. Empty disables injection entirely, leaving the
	// machines — and their metrics output — byte-identical to a build that
	// never heard of fault injection.
	Faults string
	// FaultSeed seeds the fault-injection streams; every job derives its
	// own stream seed from it, independent of the workload Seed. Zero
	// inherits Seed; use SeedZero to request a literal zero.
	FaultSeed int64
	// Boards sets the number of NxP boards every simulated machine is
	// built with (0 or 1 = the single-board default, leaving machines
	// byte-identical to a build that never heard of multiple boards). The
	// scale-out experiment sweeps its own board counts and ignores this.
	Boards int
	// BoardPolicy selects the kernel's board-placement policy
	// ("round-robin", "least-loaded", "affinity"; empty = round-robin).
	BoardPolicy string
	// BoardISAs sets each board's core family by registered backend name
	// (entry i → board i; empty entries and missing tails default to
	// "nxp"). Nil leaves machines byte-identical to a build that never
	// heard of board ISA selection.
	BoardISAs []string

	// Jobs is the scheduler's worker count: how many independent simulated
	// machines run concurrently. 0 or 1 runs serially. Virtual-time
	// results are identical for every value (see EXPERIMENTS.md).
	Jobs int
	// Timeout bounds one experiment's wall-clock runtime (0 = none).
	Timeout time.Duration
	// Progress observes job scheduling (nil = silent).
	Progress runner.ProgressFunc
	// Obs, when non-nil, collects every job's metrics and event trace.
	// Job slots are reserved here at graph-construction time (serially),
	// so the aggregate is byte-identical for any Jobs value.
	Obs *stats.Obs
}

// Quick returns options sized for seconds-scale runs.
func Quick() Options {
	points := make([]int, 0, 32)
	for n := 4; n <= 1024; n *= 2 {
		points = append(points, n, n+n/2)
	}
	return Options{
		NullCallIters: 1000,
		ChasePoints:   points,
		ChaseCalls:    4,
		BFSScale:      64,
		BFSIters:      1,
		Seed:          42,
	}
}

// Full returns paper-scale options (minutes of runtime).
func Full() Options {
	points := make([]int, 0, 256)
	for n := 4; n <= 1024; n += 4 {
		points = append(points, n)
	}
	return Options{
		NullCallIters: 10000,
		ChasePoints:   points,
		ChaseCalls:    6,
		BFSScale:      1,
		BFSIters:      10,
		Seed:          42,
	}
}

// withDefaults validates the options and fills zero values from Quick.
func (o Options) withDefaults() (Options, error) {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"NullCallIters", o.NullCallIters},
		{"ChaseCalls", o.ChaseCalls},
		{"BFSScale", o.BFSScale},
		{"BFSIters", o.BFSIters},
		{"Jobs", o.Jobs},
	} {
		if f.v < 0 {
			return o, fmt.Errorf("experiments: %s = %d; counts must be >= 1 (or 0 for the default)", f.name, f.v)
		}
	}
	if o.Timeout < 0 {
		return o, fmt.Errorf("experiments: negative Timeout %v", o.Timeout)
	}
	if o.Boards < 0 {
		return o, fmt.Errorf("experiments: Boards = %d; must be >= 1 (or 0 for the single-board default)", o.Boards)
	}
	if _, err := kernel.ParseBoardPolicy(o.BoardPolicy); err != nil {
		return o, fmt.Errorf("experiments: %w", err)
	}
	if o.BoardISAs != nil {
		boards := o.Boards
		if boards < 1 {
			boards = 1
		}
		if _, err := platform.ParseBoardISAs(strings.Join(o.BoardISAs, ","), boards); err != nil {
			return o, fmt.Errorf("experiments: %w", err)
		}
	}
	q := Quick()
	if o.NullCallIters == 0 {
		o.NullCallIters = q.NullCallIters
	}
	if len(o.ChasePoints) == 0 {
		o.ChasePoints = q.ChasePoints
	}
	if o.ChaseCalls == 0 {
		o.ChaseCalls = q.ChaseCalls
	}
	if o.BFSScale == 0 {
		o.BFSScale = q.BFSScale
	}
	if o.BFSIters == 0 {
		o.BFSIters = q.BFSIters
	}
	switch o.Seed {
	case 0:
		o.Seed = q.Seed
	case SeedZero:
		o.Seed = 0
	}
	switch o.FaultSeed {
	case 0:
		o.FaultSeed = o.Seed
	case SeedZero:
		o.FaultSeed = 0
	}
	if o.Jobs == 0 {
		o.Jobs = 1
	}
	return o, nil
}

// machineParams builds the machine override for the job at the given
// graph position. It returns nil when no fault spec, board count, or
// placement policy is configured, so the default path hands workloads the
// same nil Params it always has. Each job's injection streams are seeded
// from (FaultSeed, position), assigned at graph-construction time, so
// results are reproducible for any Jobs value.
func (o Options) machineParams(job uint64) *platform.Params {
	if o.Faults == "" && o.Boards <= 1 && o.BoardPolicy == "" && o.BoardISAs == nil {
		return nil
	}
	p := platform.DefaultParams()
	if o.Faults != "" {
		p.Faults = o.Faults
		p.FaultSeed = runner.DeriveSeed(o.FaultSeed, job)
	}
	if o.Boards > 1 {
		p.Boards = o.Boards
	}
	p.BoardPolicy = o.BoardPolicy
	p.BoardISAs = o.BoardISAs
	return &p
}

// pool builds the scheduler configuration for one experiment run.
func (o Options) pool() runner.Pool {
	return runner.Pool{Workers: o.Jobs, Timeout: o.Timeout, OnEvent: o.Progress}
}

func us(d sim.Duration) string { return fmt.Sprintf("%.1fµs", d.Microseconds()) }

// observer reserves an observability slot for the named job; nil-safe, so
// experiments call it unconditionally while building their job graphs.
func (o Options) observer(job string) *sim.Observer { return o.Obs.Job(job) }

// measureNullCall runs the two Table III phases as independent jobs and
// combines them exactly as the paper does (the reverse direction is
// isolated by subtraction).
func measureNullCall(o Options) (workloads.NullCallResult, error) {
	cfg := workloads.NullCallConfig{Iterations: o.NullCallIters}
	plain, nested := cfg, cfg
	plain.Obs = o.observer("nullcall/host-nxp-host")
	plain.Params = o.machineParams(0)
	nested.Obs = o.observer("nullcall/nested-return-trip")
	nested.Params = o.machineParams(1)
	jobs := []runner.Job[sim.Duration]{
		{ID: 0, Name: "nullcall/host-nxp-host", Run: func(context.Context) (sim.Duration, error) {
			return workloads.NullCallPhase(plain, false)
		}},
		{ID: 1, Name: "nullcall/nested-return-trip", Run: func(context.Context) (sim.Duration, error) {
			return workloads.NullCallPhase(nested, true)
		}},
	}
	rs, err := runner.Run(context.Background(), o.pool(), jobs)
	if err != nil {
		return workloads.NullCallResult{}, err
	}
	return workloads.NullCallResult{
		Iterations:  o.NullCallIters,
		HostNxPHost: rs[0],
		NxPHostNxP:  rs[1] - rs[0],
	}, nil
}

// Table2 reproduces "Thread migration overhead from prior work and Flick".
func Table2(o Options) (*stats.Table, error) {
	o, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	r, err := measureNullCall(o)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:   "Table II: thread migration overhead from prior work and Flick",
		Headers: []string{"Work", "Fast Cores", "Slow Cores", "Interconnect", "Overhead", "vs Flick"},
	}
	for _, w := range baseline.Table2Rows {
		t.AddRow(w.Name, w.FastCores, w.SlowCores, w.Interconnect, us(w.Overhead),
			fmt.Sprintf("%.1fx", baseline.SpeedupOver(w, r.HostNxPHost)))
	}
	f := baseline.FlickRow
	t.AddRow(f.Name, f.FastCores, f.SlowCores, f.Interconnect, us(r.HostNxPHost), "1.0x")
	t.Notes = append(t.Notes,
		"prior-work overheads are the published values quoted in the paper; the Flick row is measured on this simulator")
	return t, nil
}

// Table3 reproduces "Flick thread migration round trip overhead".
func Table3(o Options) (*stats.Table, *workloads.NullCallResult, error) {
	o, err := o.withDefaults()
	if err != nil {
		return nil, nil, err
	}
	r, err := measureNullCall(o)
	if err != nil {
		return nil, nil, err
	}
	t := &stats.Table{
		Title:   "Table III: Flick thread migration round trip overhead",
		Headers: []string{"Host-NxP-Host", "NxP-Host-NxP"},
	}
	t.AddRow(us(r.HostNxPHost), us(r.NxPHostNxP))
	t.Notes = append(t.Notes,
		fmt.Sprintf("paper: 18.3µs / 16.9µs; averaged over %d calls", r.Iterations))
	return t, &r, nil
}

// fig5 runs one Figure 5 panel: every (line, sweep point) pair is one
// scheduler job writing into a shared order-preserving collector. The
// three lines share per-point seeds so they sample identical chains at
// each x position.
func fig5(o Options, interval bool, tag, title string) (*stats.Chart, error) {
	lines := []struct {
		name  string
		extra sim.Duration
	}{
		{"Flick", 0},
		{"500µs migration", 500 * sim.Microsecond},
		{"1ms migration", sim.Millisecond},
	}
	names := make([]string, len(lines))
	for i, ln := range lines {
		names[i] = ln.name
	}
	sc := stats.NewSeriesCollector(names, len(o.ChasePoints))
	jobs := make([]runner.Job[struct{}], 0, len(lines)*len(o.ChasePoints))
	for li, ln := range lines {
		for pi, n := range o.ChasePoints {
			seed := runner.DeriveSeed(o.Seed, uint64(pi))
			extra := ln.extra
			li, pi, n := li, pi, n
			name := fmt.Sprintf("%s/%s/n=%d", tag, ln.name, n)
			obs := o.observer(name)
			params := o.machineParams(uint64(len(jobs)))
			jobs = append(jobs, runner.Job[struct{}]{
				ID:   len(jobs),
				Name: name,
				Seed: seed,
				Run: func(context.Context) (struct{}, error) {
					p, err := workloads.MeasureChasePoint(n, o.ChaseCalls, extra, interval, seed, params, obs)
					if err != nil {
						return struct{}{}, err
					}
					sc.Set(li, pi, float64(p.Nodes), p.Normalized)
					return struct{}{}, nil
				},
			})
		}
	}
	if _, err := runner.Run(context.Background(), o.pool(), jobs); err != nil {
		return nil, err
	}
	return &stats.Chart{
		Title:  title,
		XLabel: "memory accesses per migration",
		YLabel: "normalized performance (baseline = 1)",
		HLines: []float64{1},
		Series: sc.Series(),
	}, nil
}

// Fig5a reproduces the frequent-migration pointer-chasing panel.
func Fig5a(o Options) (*stats.Chart, error) {
	o, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	return fig5(o, false, "fig5a", "Figure 5a: pointer chasing, migration on every call")
}

// Fig5b reproduces the 100 µs-interval panel.
func Fig5b(o Options) (*stats.Chart, error) {
	o, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	return fig5(o, true, "fig5b", "Figure 5b: pointer chasing, one migration per 100µs")
}

// Table4 reproduces "BFS datasets and execution time". Each (dataset,
// mode) cell is one job; the two modes of a dataset share a derived seed
// and traverse the same synthetic graph, generated once for the row.
func Table4(o Options) (*stats.Table, []workloads.Table4Row, error) {
	o, err := o.withDefaults()
	if err != nil {
		return nil, nil, err
	}
	datasets := workloads.Table4Datasets
	scaled := make([]workloads.Dataset, len(datasets))
	jobs := make([]runner.Job[sim.Duration], 0, 2*len(datasets))
	for di, d := range datasets {
		ds := d.Scale(o.BFSScale)
		scaled[di] = ds
		seed := runner.DeriveSeed(o.Seed, uint64(di))
		graph := workloads.ShareBFSGraph(ds, seed, 2)
		for _, baselineMode := range []bool{true, false} {
			mode, bm := "flick", baselineMode
			if bm {
				mode = "baseline"
			}
			name := fmt.Sprintf("table4/%s/%s", ds.Name, mode)
			obs := o.observer(name)
			params := o.machineParams(uint64(len(jobs)))
			jobs = append(jobs, runner.Job[sim.Duration]{
				ID:   len(jobs),
				Name: name,
				Seed: seed,
				Run: func(context.Context) (sim.Duration, error) {
					r, err := workloads.RunBFS(workloads.BFSConfig{
						Dataset: ds, Iterations: o.BFSIters, Baseline: bm, Seed: seed, Params: params, Obs: obs,
						Graph: graph,
					})
					if err != nil {
						return 0, err
					}
					return r.PerIter, nil
				},
			})
		}
	}
	rs, err := runner.Run(context.Background(), o.pool(), jobs)
	if err != nil {
		return nil, nil, err
	}

	t := &stats.Table{
		Title:   "Table IV: BFS datasets and execution time",
		Headers: []string{"Dataset", "Vertices", "Edges", "Baseline", "Flick", "Speedup"},
	}
	rows := make([]workloads.Table4Row, 0, len(datasets))
	for di, ds := range scaled {
		base, fl := rs[2*di], rs[2*di+1]
		row := workloads.Table4Row{
			Dataset:  ds,
			Baseline: base,
			Flick:    fl,
			Speedup:  float64(base) / float64(fl),
		}
		rows = append(rows, row)
		t.AddRow(ds.Name, ds.Vertices, ds.Edges,
			fmt.Sprintf("%.3fs", row.Baseline.Seconds()),
			fmt.Sprintf("%.3fs", row.Flick.Seconds()),
			fmt.Sprintf("%.2fx", row.Speedup))
	}
	if o.BFSScale > 1 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"datasets scaled by 1/%d for runtime; speedup ratios are scale-invariant (see EXPERIMENTS.md)", o.BFSScale))
	}
	t.Notes = append(t.Notes, "paper speedups: 0.75x (Epinions1), 1.19x (Pokec), 1.09x (LiveJournal1)")
	return t, rows, nil
}

// Latency reproduces the §V access-latency measurements: the four timing
// loops and the page-fault constant are five independent jobs.
func Latency(o Options) (*stats.Table, error) {
	o, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	iters := o.NullCallIters
	modeJob := func(id int, name string, mode workloads.LatencyMode) runner.Job[sim.Duration] {
		obs := o.observer(name)
		params := o.machineParams(uint64(id))
		return runner.Job[sim.Duration]{ID: id, Name: name, Run: func(context.Context) (sim.Duration, error) {
			return workloads.RunLatencyMode(mode, iters, params, obs)
		}}
	}
	pfParams := o.machineParams(4)
	jobs := []runner.Job[sim.Duration]{
		modeJob(0, "latency/host-loads", workloads.LatencyHostLoads),
		modeJob(1, "latency/host-nop", workloads.LatencyHostNop),
		modeJob(2, "latency/nxp-loads", workloads.LatencyNxPLoads),
		modeJob(3, "latency/nxp-nop", workloads.LatencyNxPNop),
		{ID: 4, Name: "latency/pagefault", Run: func(context.Context) (sim.Duration, error) {
			return workloads.PageFaultCost(pfParams)
		}},
	}
	rs, err := runner.Run(context.Background(), o.pool(), jobs)
	if err != nil {
		return nil, err
	}
	r := workloads.LatencyResult{
		HostToNxPStorage:  (rs[0] - rs[1]) / sim.Duration(iters),
		NxPToLocalStorage: (rs[2] - rs[3]) / sim.Duration(iters),
		HostPageFault:     rs[4],
	}
	t := &stats.Table{
		Title:   "§V access latencies",
		Headers: []string{"Path", "Measured", "Paper"},
	}
	t.AddRow("host → NxP storage (PCIe round trip)", fmt.Sprintf("%.0fns", r.HostToNxPStorage.Nanoseconds()), "825ns")
	t.AddRow("NxP → NxP storage (local DDR)", fmt.Sprintf("%.0fns", r.NxPToLocalStorage.Nanoseconds()), "267ns")
	t.AddRow("host NX page fault handling", fmt.Sprintf("%.1fµs", r.HostPageFault.Microseconds()), "0.7µs")
	return t, nil
}

// StubAblation renders the §III-B analysis: NX-fault triggering vs
// compiler-inserted stubs. Pure cost-model arithmetic — no simulation
// jobs to schedule.
func StubAblation() *stats.Table {
	m := baseline.DefaultStubModel()
	t := &stats.Table{
		Title:   "Ablation: NX-fault trigger vs compiler-inserted stubs (§III-B)",
		Headers: []string{"Local calls per migration", "NX-fault total", "Stub total", "Winner"},
	}
	for _, ratio := range []int{0, 10, 100, 168, 1000, 10000} {
		nx, stub := m.ProgramOverhead(ratio, 1)
		winner := "stubs"
		if nx < stub {
			winner = "NX fault"
		} else if nx == stub {
			winner = "tie"
		}
		t.AddRow(ratio, nx.String(), stub.String(), winner)
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"break-even at ≈%.0f local calls per migration; real programs sit far above it, and stubs also break shared libraries and function pointers",
		m.BreakEvenCallRatio()))
	return t
}

// Breakdown renders the component decomposition of the Host-NxP-Host
// round trip from the live cost model — the provenance of Table III's
// 18.3 µs. The sum is asserted against the measured round trip.
func Breakdown(o Options) (*stats.Table, error) {
	o, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	r, err := measureNullCall(o)
	if err != nil {
		return nil, err
	}
	comp, total := workloads.RoundTripBreakdown()
	t := &stats.Table{
		Title:   "Host→NxP→host round trip decomposition",
		Headers: []string{"Component", "Cost"},
	}
	for _, c := range comp {
		t.AddRow(c.Name, c.Cost)
	}
	t.AddRow("── modeled total", total)
	t.AddRow("── measured round trip", r.HostNxPHost)
	t.Notes = append(t.Notes, "paper: 18.3µs total with 0.7µs attributed to the page fault (§V-A)")
	return t, nil
}

// Tenants renders the multi-tenant NxP contention experiment (an extension
// beyond the paper): several host threads, one per host core, share the
// single board core through Flick migrations. One job per tenant count;
// the per-tenant slowdown column is computed from the ordered results
// after the pool drains.
func Tenants(o Options) (*stats.Table, error) {
	o, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	type contention struct {
		total sim.Duration
		calls int
	}
	tenantCounts := []int{1, 2, 4, 8}
	jobs := make([]runner.Job[contention], len(tenantCounts))
	for i, tenants := range tenantCounts {
		tenants := tenants
		name := fmt.Sprintf("tenants/%d", tenants)
		obs := o.observer(name)
		params := o.machineParams(uint64(i))
		jobs[i] = runner.Job[contention]{
			ID:   i,
			Name: name,
			Run: func(context.Context) (contention, error) {
				total, calls, err := workloads.RunMultiTenant(tenants, 12, params, obs)
				if err != nil {
					return contention{}, err
				}
				return contention{total, calls}, nil
			},
		}
	}
	rs, err := runner.Run(context.Background(), o.pool(), jobs)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:   "Extension: multi-tenant NxP contention",
		Headers: []string{"Tenants", "Total time", "Aggregate calls/s", "Per-tenant slowdown"},
	}
	base := rs[0].total.Seconds()
	for i, tenants := range tenantCounts {
		perSec := float64(rs[i].calls) / rs[i].total.Seconds()
		t.AddRow(tenants,
			fmt.Sprintf("%.0fµs", rs[i].total.Seconds()*1e6),
			fmt.Sprintf("%.0f", perSec),
			fmt.Sprintf("%.2fx", rs[i].total.Seconds()/base))
	}
	t.Notes = append(t.Notes,
		"each tenant performs 12 migrated ~5µs board jobs; the single NxP serializes job bodies while migration phases overlap")
	return t, nil
}

// KVStore renders the near-data key-value extension experiment: per-lookup
// latency versus migration batch size. One job per batch size, each
// filling its reserved row slot in a shared collector.
func KVStore(o Options) (*stats.Table, error) {
	o, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	batches := []int{1, 4, 16, 64}
	rc := stats.NewRowCollector(len(batches))
	jobs := make([]runner.Job[struct{}], len(batches))
	for i, b := range batches {
		i, b := i, b
		seed := runner.DeriveSeed(o.Seed, uint64(i))
		name := fmt.Sprintf("kv/batch=%d", b)
		obs := o.observer(name)
		params := o.machineParams(uint64(i))
		jobs[i] = runner.Job[struct{}]{
			ID:   i,
			Name: name,
			Seed: seed,
			Run: func(context.Context) (struct{}, error) {
				p, err := workloads.MeasureKVPoint(b, 128, seed, params, obs)
				if err != nil {
					return struct{}{}, err
				}
				rc.Set(i, p.Batch, p.Flick, p.Baseline, fmt.Sprintf("%.2fx", p.Normalized))
				return struct{}{}, nil
			},
		}
	}
	if _, err := runner.Run(context.Background(), o.pool(), jobs); err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:   "Extension: near-data KV lookups vs batch size",
		Headers: []string{"Batch", "Flick/lookup", "Host-direct/lookup", "Normalized"},
	}
	rc.FillTable(t)
	t.Notes = append(t.Notes, "the application-shaped form of Figure 5's work-per-migration axis")
	return t, nil
}
