package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"flick"
	"flick/internal/cpu"
	"flick/internal/experiments"
	"flick/internal/isa"
	"flick/internal/mem"
	"flick/internal/platform"
	"flick/internal/runner"
	"flick/internal/sim"
	"flick/internal/stats"
	"flick/internal/workloads"
)

// probeTrials is how many times each timed probe repeats; it reports the
// median trial.
const probeTrials = 5

// probeSource is the program every probe machine loads: an empty main and
// a counted loop in each ISA the workloads run.
const probeSource = `
.func main isa=host
    ret
.endfunc
.func spin_host isa=host
spin_host_loop:
    addi a0, a0, 1
    bne  a0, a1, spin_host_loop
    ret
.endfunc
.func spin_nxp isa=nxp
spin_nxp_loop:
    addi a0, a0, 1
    bne  a0, a1, spin_nxp_loop
    ret
.endfunc
`

// probeResult holds every probe's figure.
type probeResult struct {
	graphgenMS, refbfsMS  float64
	buildMS               float64
	stepNS                float64
	readVirtNS, readVirtA float64
	translateNS           float64
	memReadNS             float64
	memWriteNS, memWriteA float64
	handoffNS, inplaceNS  float64
	queueOpNS             float64
	nullCallNS            float64
}

// runProbes times each inner layer from outside, on the workload's
// machine shape and inputs.
func runProbes(cfg config) (probeResult, error) {
	var pr probeResult
	o := cfg.workload.options(cfg.seed, cfg.tiny)
	pr.graphgenMS, pr.refbfsMS = probeGraphs(cfg.workload, o)
	steps := []struct {
		name string
		fn   func() error
	}{
		{"build", func() (err error) { pr.buildMS, err = probeBuild(cfg.workload.boards); return }},
		{"step", func() (err error) { pr.stepNS, err = probeStep(cfg.workload.boards); return }},
		{"read-virt", func() (err error) { pr.readVirtNS, pr.readVirtA, pr.translateNS, err = probeVirt(); return }},
		{"mem", func() (err error) { pr.memReadNS, pr.memWriteNS, pr.memWriteA, err = probeMem(cfg.seed); return }},
		{"sim", func() (err error) { pr.handoffNS, pr.inplaceNS, pr.queueOpNS, err = probeSim(cfg.seed); return }},
		{"null-call", func() (err error) { pr.nullCallNS, err = probeNullCall(); return }},
	}
	for _, s := range steps {
		if err := s.fn(); err != nil {
			return pr, fmt.Errorf("%s probe: %w", s.name, err)
		}
	}
	return pr, nil
}

// probeGraphs times GenerateRMAT and ReferenceBFS with each bfs job's
// dataset, scale and seed, as RunBFS calls them: the two jobs of a
// dataset share a seed and each generates the graph. It returns ms per
// repetition; zero for workloads without graphs.
func probeGraphs(w *workload, o experiments.Options) (genMS, refMS float64) {
	if !w.bfs {
		return 0, 0
	}
	for di, d := range workloads.Table4Datasets {
		ds := d.Scale(o.BFSScale)
		seed := runner.DeriveSeed(o.Seed, uint64(di))
		for range 2 { // baseline and Flick job
			start := time.Now()
			g := workloads.GenerateRMAT(ds, seed+1)
			mid := time.Now()
			workloads.ReferenceBFS(g, 0)
			genMS += ms(mid.Sub(start))
			refMS += ms(time.Since(mid))
		}
	}
	return genMS, refMS
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func buildProbe(boards int) (*flick.System, error) {
	return flick.Build(flick.Config{Sources: map[string]string{"probe.fasm": probeSource}, Boards: boards})
}

// probeBuild times flick.Build (assembler, linker, kernel load and
// runtime activation) of the workload's machine shape, in ms.
func probeBuild(boards int) (float64, error) {
	var t []float64
	for range probeTrials {
		start := time.Now()
		if _, err := buildProbe(boards); err != nil {
			return 0, err
		}
		t = append(t, ms(time.Since(start)))
	}
	return median(t), nil
}

// inProc runs body as the only process of the machine's environment.
func inProc(env *sim.Env, body func(p *sim.Proc) error) error {
	var err error
	env.Spawn("probe", func(p *sim.Proc) { err = body(p) })
	env.Run()
	return err
}

// probeStep times Core.Step per retired instruction on the host core and
// board 0's core, spinning a counted loop in each one's own ISA, and
// returns the mean of the two in ns.
func probeStep(boards int) (float64, error) {
	sys, err := buildProbe(boards)
	if err != nil {
		return 0, err
	}
	const n = 1 << 20
	var perISA []float64
	for _, c := range []*cpu.Core{sys.Machine.Host, sys.Machine.NxP} {
		pc, err := sys.Symbol("spin_" + c.ISA().String())
		if err != nil {
			return 0, err
		}
		ctx := &cpu.Context{PC: pc}
		ctx.SetReg(isa.A1, ^uint64(0))
		c.SetContext(ctx)
		var t []float64
		err = inProc(sys.Machine.Env, func(p *sim.Proc) error {
			for range 64 { // fill the TLB, I-cache and superblock cache
				if err := c.Step(p); err != nil {
					return err
				}
			}
			for range probeTrials {
				first, _ := c.Stats()
				start := time.Now()
				for in := first; in-first < n; in, _ = c.Stats() {
					if err := c.Step(p); err != nil {
						return err
					}
				}
				t = append(t, float64(time.Since(start).Nanoseconds())/n)
			}
			return nil
		})
		if err != nil {
			return 0, fmt.Errorf("%s: %w", c.Name(), err)
		}
		perISA = append(perISA, median(t))
	}
	return (perISA[0] + perISA[1]) / 2, nil
}

// probeVirt times board 0's core reading board DRAM through its data MMU
// (Core.ReadU64Virt, the bfs kernel's access) and the MMU translation
// alone, over a 64 KiB buffer in the program's board heap. It returns ns
// per read, heap allocations per read, and ns per translation.
func probeVirt() (readNS, allocs, translateNS float64, err error) {
	sys, err := buildProbe(1)
	if err != nil {
		return 0, 0, 0, err
	}
	const size, n = 64 << 10, 1 << 20
	va, err := sys.Program.NxPHeap.Alloc(size, 4096)
	if err != nil {
		return 0, 0, 0, err
	}
	buf := make([]byte, size)
	for i := 0; i < size; i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], uint64(i))
	}
	w, err := sys.Kernel.Tables().Walk(va)
	if err != nil {
		return 0, 0, 0, err
	}
	if err := sys.Kernel.Phys().Write(w.PhysAddr, buf); err != nil {
		return 0, 0, 0, err
	}
	c := sys.Machine.NxP
	var reads, trans []float64
	err = inProc(sys.Machine.Env, func(p *sim.Proc) error {
		for range probeTrials {
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			start := time.Now()
			for i := range uint64(n) {
				off := i * 8 % size
				v, err := c.ReadU64Virt(p, va+off)
				if err != nil {
					return err
				}
				if v != off {
					return fmt.Errorf("read %#x at %#x, want %#x", v, va+off, off)
				}
			}
			reads = append(reads, float64(time.Since(start).Nanoseconds())/n)
			runtime.ReadMemStats(&ms1)
			allocs = max(allocs, float64(ms1.Mallocs-ms0.Mallocs)/n)
			start = time.Now()
			for i := range uint64(n) {
				if _, err := c.DMMU().Translate(p, va+i*8%size); err != nil {
					return err
				}
			}
			trans = append(trans, float64(time.Since(start).Nanoseconds())/n)
		}
		return nil
	})
	return median(reads), allocs, median(trans), err
}

// probeMem times the memory layer directly. Reads are AddressSpace.ReadU64
// over 64 KiB of written board DRAM. Writes are 8-byte Sparse.WriteAt
// calls at scattered offsets of a fresh 4 GiB store, each materializing a
// granule, as chain building does. It returns ns per read, ns per write
// and heap allocations per write.
func probeMem(seed int64) (readNS, writeNS, writeAllocs float64, err error) {
	const size, n = 64 << 10, 1 << 20
	as := mem.NewAddressSpace("probe")
	ram := mem.NewRAM("ddr", 1<<30)
	if err := as.Map(platform.LocalDDRBase, ram); err != nil {
		return 0, 0, 0, err
	}
	ram.Store().WriteAt(0, make([]byte, size))
	var reads, writes []float64
	for range probeTrials {
		start := time.Now()
		for i := range uint64(n) {
			if _, err := as.ReadU64(platform.LocalDDRBase + i*8%size); err != nil {
				return 0, 0, 0, err
			}
		}
		reads = append(reads, float64(time.Since(start).Nanoseconds())/n)
	}
	const span, writesPerTrial = 4 << 30, 256
	rng := rand.New(rand.NewSource(seed))
	var word [8]byte
	for range probeTrials {
		s := mem.NewSparse(span)
		offs := make([]uint64, writesPerTrial)
		for i := range offs {
			offs[i] = rng.Uint64() % (span - 8) &^ 7
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		for _, off := range offs {
			s.WriteAt(off, word[:])
		}
		writes = append(writes, float64(time.Since(start).Nanoseconds())/writesPerTrial)
		runtime.ReadMemStats(&ms1)
		writeAllocs = max(writeAllocs, float64(ms1.Mallocs-ms0.Mallocs)/writesPerTrial)
	}
	return median(reads), median(writes), writeAllocs, nil
}

// probeSim times the discrete-event kernel. handoff is a Sleep that must
// switch to another process (two processes ping-ponging); inplace is a
// Sleep with nothing else queued, which advances the clock without a
// switch; queueOp is one AfterFunc push plus its pop, with 64 timers
// pending that each re-arm at a pseudo-random delay when they fire. All
// in ns.
func probeSim(seed int64) (handoffNS, inplaceNS, queueOpNS float64, err error) {
	const n, pending = 1 << 16, 64
	var hand, inpl, queue []float64
	rng := rand.New(rand.NewSource(seed))
	for range probeTrials {
		env := sim.NewEnv()
		for i := range 2 {
			env.Spawn(fmt.Sprintf("ping%d", i), func(p *sim.Proc) {
				p.Sleep(sim.Duration(i) * sim.Nanosecond)
				for range n {
					p.Sleep(2 * sim.Nanosecond)
				}
			})
		}
		start := time.Now()
		env.Run()
		hand = append(hand, float64(time.Since(start).Nanoseconds())/(2*n))

		env = sim.NewEnv()
		env.Spawn("solo", func(p *sim.Proc) {
			for range n {
				p.Sleep(sim.Nanosecond)
			}
		})
		start = time.Now()
		env.Run()
		inpl = append(inpl, float64(time.Since(start).Nanoseconds())/n)

		env = sim.NewEnv()
		delays := make([]sim.Duration, n)
		for i := range delays {
			delays[i] = sim.Duration(1+rng.Intn(10_000)) * sim.Nanosecond
		}
		fired := 0
		var fire func()
		fire = func() {
			if fired++; fired+pending <= n {
				env.AfterFunc(delays[fired-1], fire)
			}
		}
		start = time.Now()
		for i := range pending {
			env.AfterFunc(delays[n-1-i], fire)
		}
		env.Run()
		queue = append(queue, float64(time.Since(start).Nanoseconds())/n)
		if fired != n {
			return 0, 0, 0, fmt.Errorf("%d of %d timers fired", fired, n)
		}
	}
	return median(hand), median(inpl), median(queue), nil
}

// probeNullCall times workloads.RunNullCall on a one-board machine and
// returns host ns per ISA crossing (each a full round trip).
func probeNullCall() (float64, error) {
	const iters = 2000
	var t []float64
	for range probeTrials {
		obs := stats.NewObs(0)
		start := time.Now()
		if _, err := workloads.RunNullCall(workloads.NullCallConfig{Iterations: iters, Obs: obs.Job("nullcall")}); err != nil {
			return 0, err
		}
		el := time.Since(start)
		m := obs.Merged()
		x := m.Counter("flick.h2n_calls") + m.Counter("flick.n2h_calls")
		if x == 0 {
			return 0, fmt.Errorf("null call made no crossings")
		}
		t = append(t, float64(el.Nanoseconds())/float64(x))
	}
	return median(t), nil
}
