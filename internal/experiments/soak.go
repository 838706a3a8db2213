package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"

	"flick"
	"flick/internal/platform"
	"flick/internal/runner"
	"flick/internal/sim"
	"flick/internal/stats"
	"flick/internal/traffic"
	"flick/internal/workloads"
)

// soakProgram is the soak workload: cross-ISA mutual-recursion fib, the
// §IV-B nested-bidirectional-call shape. Every recursion level is a
// migration, both directions nest reentrantly, and the console print plus
// the exit value give two independent correctness witnesses that must be
// identical under any fault schedule.
const soakProgram = `
.func main isa=host
    call host_fib
    mov  t4, a0
    sys  3          ; print fib(n)
    mov  a0, t4
    halt
.endfunc

.func host_fib isa=host
    movi t0, 2
    bltu a0, t0, small
    push ra
    push a0
    addi a0, a0, -1
    call nxp_fib          ; host → NxP migration
    pop  t0
    push a0
    addi a0, t0, -2
    call nxp_fib          ; host → NxP migration
    pop  t0
    add  a0, a0, t0
    pop  ra
    ret
small:
    ret
.endfunc

.func nxp_fib isa=nxp
    movi t0, 2
    bltu a0, t0, small
    push ra
    push a0
    addi a0, a0, -1
    call host_fib         ; NxP → host migration
    pop  t0
    push a0
    addi a0, t0, -2
    call host_fib         ; NxP → host migration
    pop  t0
    add  a0, a0, t0
    pop  ra
    ret
small:
    ret
.endfunc
`

// soakArg is fib's input: fib(10) = 55 through ~170 migrations per run.
const soakArg = 10

// SoakSpec is one named fault mix in the soak matrix.
type SoakSpec struct {
	Name string
	Spec string // faultinj grammar; empty = fault-free control row
}

// DefaultSoakSpecs is the sweep the soak mode runs when no -faults spec
// is given: a fault-free control, then each fault family alone, then all
// of them at once. Rates are chosen to exercise every recovery path many
// times per run while staying far inside the retry budgets.
func DefaultSoakSpecs() []SoakSpec {
	return []SoakSpec{
		{"none", ""},
		{"dma", "dma.fail=0.1,dma.dup=0.1,dma.delay=0.25:2us"},
		{"msi", "msi.drop=0.15,msi.delay=0.25:5us"},
		{"spurious", "cpu.spurious=0.002,ipi.drop=0.25,ipi.delay=0.5:1us"},
		{"storm", "dma.fail=0.05,dma.dup=0.05,dma.delay=0.2:2us,msi.drop=0.1,msi.delay=0.2:5us,cpu.spurious=0.001,ipi.drop=0.2,ipi.delay=0.3:1us"},
	}
}

// soakSeedsPerSpec is how many independent fault schedules each spec runs.
const soakSeedsPerSpec = 3

// soakRun executes the soak workload once and reports its correctness
// witnesses plus the recovery counters.
type soakOutcome struct {
	End      sim.Time
	Ret      uint64
	Console  string
	Injected uint64 // total fault.injected.* hits
	Retries  uint64 // migration.retries + migration.dma_retries + shootdown.ipi_retries
	Timeouts uint64 // migration.timeouts
}

func soakRun(params *platform.Params) (soakOutcome, error) {
	sys, err := flick.Build(flick.Config{
		Params:  params,
		Sources: map[string]string{"soak.fasm": soakProgram},
	})
	if err != nil {
		return soakOutcome{}, err
	}
	defer sys.Close()
	ret, err := sys.RunProgram("main", soakArg)
	if err != nil {
		return soakOutcome{}, err
	}
	snap := sys.Machine.Env.Metrics().Snapshot()
	out := soakOutcome{
		End:     sys.Now(),
		Ret:     ret,
		Console: sys.Console(),
		Retries: snap.Counter("migration.retries") +
			snap.Counter("migration.dma_retries") +
			snap.Counter("shootdown.ipi_retries"),
		Timeouts: snap.Counter("migration.timeouts"),
	}
	for _, c := range snap.Counters {
		if strings.HasPrefix(c.Name, "fault.injected.") {
			out.Injected += c.Value
		}
	}
	return out, nil
}

// Soak sweeps fault specs × fault seeds over the nested-migration soak
// workload and asserts that every run computes the exact fault-free
// result: same console bytes, same return value — only the virtual end
// time may differ. Custom specs (Options.Faults non-empty) replace the
// default matrix. The rendered table is byte-identical for any Jobs
// value; a correctness violation is returned as an error after the whole
// sweep finishes, so one bad cell never hides the others.
func Soak(o Options, w io.Writer) error {
	o, err := o.withDefaults()
	if err != nil {
		return err
	}
	ref, err := soakRun(nil)
	if err != nil {
		return fmt.Errorf("soak: fault-free reference run: %w", err)
	}

	specs := DefaultSoakSpecs()
	if o.Faults != "" {
		specs = []SoakSpec{{"none", ""}, {"custom", o.Faults}}
	}

	type cell struct {
		spec SoakSpec
		seed int64
		out  soakOutcome
		err  error
	}
	var jobs []runner.Job[cell]
	for _, spec := range specs {
		seeds := soakSeedsPerSpec
		if spec.Spec == "" {
			seeds = 1 // the control row has no fault streams to vary
		}
		for j := 0; j < seeds; j++ {
			spec := spec
			seed := runner.DeriveSeed(o.FaultSeed, uint64(len(jobs)))
			var params *platform.Params
			if spec.Spec != "" {
				p := platform.DefaultParams()
				p.Faults = spec.Spec
				p.FaultSeed = seed
				params = &p
			}
			jobs = append(jobs, runner.Job[cell]{
				ID:   len(jobs),
				Name: fmt.Sprintf("soak/%s/seed=%d", spec.Name, seed),
				Seed: seed,
				Run: func(context.Context) (cell, error) {
					out, err := soakRun(params)
					if err != nil {
						return cell{spec: spec, seed: seed, err: err}, nil
					}
					c := cell{spec: spec, seed: seed, out: out}
					if out.Ret != ref.Ret {
						c.err = fmt.Errorf("return value %d, want %d", out.Ret, ref.Ret)
					} else if out.Console != ref.Console {
						c.err = fmt.Errorf("console %q, want %q", out.Console, ref.Console)
					}
					return c, nil
				},
			})
		}
	}
	rs, err := runner.Run(context.Background(), o.pool(), jobs)
	if err != nil {
		return err
	}

	t := &stats.Table{
		Title:   fmt.Sprintf("Fault-injection soak: fib(%d) across the ISA boundary", soakArg),
		Headers: []string{"Spec", "Fault seed", "Injected", "Recoveries", "Timeouts", "End time", "Result"},
	}
	var failures []error
	for _, c := range rs {
		result := "ok"
		if c.err != nil {
			result = "FAIL: " + c.err.Error()
			failures = append(failures, fmt.Errorf("soak: %s seed %d: %w", c.spec.Name, c.seed, c.err))
		}
		t.AddRow(c.spec.Name, c.seed, c.out.Injected, c.out.Retries, c.out.Timeouts,
			fmt.Sprintf("%.1fµs", c.out.End.Sub(sim.Time(0)).Microseconds()), result)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("every run must print %q and return %d; only virtual time may vary with the fault schedule", strings.TrimSpace(ref.Console), ref.Ret),
		"spec grammar and recovery parameters: docs/ROBUSTNESS.md")
	t.Render(w)

	trafficErr := soakTraffic(o, specs, w)
	return errors.Join(append(failures, trafficErr)...)
}

// soakTrafficRate is the offered load of the soak traffic phase: roughly
// half the default machine's capacity, so fault-induced delays queue the
// machine without drowning it.
const soakTrafficRate = 6000

// soakOverloadRate is the soak's past-capacity load: about 3x what the
// default machine serves (~11k tasks/s). Queued tasks then sit out lost
// MSIs while the board keeps returning other calls, so the return ring
// fills with descriptors the host has yet to consume — the case the
// under-capacity rows never reach.
const soakOverloadRate = 33000

// soakTrafficWindow keeps each traffic scenario short; with the recovery
// paths firing the tail of the run stretches well past it.
const soakTrafficWindow = 3 * sim.Millisecond

// soakTraffic runs one open-loop traffic scenario per fault spec, plus one
// past capacity for every spec that drops MSIs, and asserts zero lost
// calls: under every fault family the open loop may run late, but every
// admitted task must finish with its oracle exit code.
func soakTraffic(o Options, specs []SoakSpec, w io.Writer) error {
	type row struct {
		spec SoakSpec
		rate float64
	}
	type cell struct {
		row
		seed int64
		res  traffic.Result
		err  error
	}
	var rows []row
	for _, spec := range specs {
		rows = append(rows, row{spec, soakTrafficRate})
	}
	for _, spec := range specs {
		if strings.Contains(spec.Spec, "msi.drop") {
			rows = append(rows, row{spec, soakOverloadRate})
		}
	}
	jobs := make([]runner.Job[cell], len(rows))
	for i, r := range rows {
		spec := r.spec
		seed := runner.DeriveSeed(o.FaultSeed, uint64(1000+i))
		var params *platform.Params
		if spec.Spec != "" {
			p := platform.DefaultParams()
			p.Faults = spec.Spec
			p.FaultSeed = seed
			params = &p
		}
		jobs[i] = runner.Job[cell]{
			ID:   i,
			Name: fmt.Sprintf("soak/traffic/%s@%g", spec.Name, r.rate),
			Seed: seed,
			Run: func(context.Context) (cell, error) {
				res, err := workloads.RunTraffic(workloads.TrafficConfig{
					Arrival: traffic.Spec{Shape: traffic.ShapePoisson, Rate: r.rate, Seed: uint64(seed)},
					Window:  soakTrafficWindow,
					Params:  params,
				})
				return cell{row: r, seed: seed, res: res, err: err}, nil
			},
		}
	}
	rs, err := runner.Run(context.Background(), o.pool(), jobs)
	if err != nil {
		return err
	}

	t := &stats.Table{
		Title: fmt.Sprintf("Fault-injection soak: open-loop traffic over %.0fms per spec",
			soakTrafficWindow.Microseconds()/1e3),
		Headers: []string{"Spec", "Rate/s", "Fault seed", "Tasks", "Lost", "Mig p99≤", "Soj p99", "Makespan", "Result"},
	}
	var failures []error
	for _, c := range rs {
		result := "ok"
		switch {
		case c.err != nil:
			result = "FAIL: " + c.err.Error()
			failures = append(failures, fmt.Errorf("soak traffic: %s: %w", c.spec.Name, c.err))
		case c.res.Failed > 0:
			result = fmt.Sprintf("FAIL: %d lost calls", c.res.Failed)
			failures = append(failures, fmt.Errorf("soak traffic: %s lost %d of %d tasks", c.spec.Name, c.res.Failed, c.res.Tasks))
		}
		t.AddRow(c.spec.Name, c.rate, c.seed, c.res.Tasks, c.res.Failed,
			fmt.Sprintf("%.1fµs", float64(c.res.MigP99NS)/1e3),
			fmt.Sprintf("%.1fµs", c.res.SojP99.Microseconds()),
			fmt.Sprintf("%.1fµs", c.res.Makespan.Microseconds()), result)
	}
	t.Notes = append(t.Notes,
		"open loop means late, never lost: every admitted task must exit with its oracle value under every fault mix",
		fmt.Sprintf("specs that drop MSIs run again at %d tasks/s, about 3x capacity, where tasks wait out lost interrupts while the board keeps returning calls", soakOverloadRate),
		"traffic plane details: docs/TRAFFIC.md")
	t.Render(w)
	return errors.Join(failures...)
}
