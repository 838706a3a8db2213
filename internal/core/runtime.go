package core

import (
	"fmt"

	"flick/internal/cpu"
	"flick/internal/isa"
	"flick/internal/kernel"
	"flick/internal/multibin"
	"flick/internal/platform"
	"flick/internal/sim"
)

// Native stub ids used by the runtime library's assembly stubs. Every
// board family's handler and allocator stubs share the NxP ids.
const (
	NativeHostHandler = 1
	NativeNxPHandler  = 2
	NativeMallocHost  = 3
	NativeMallocNxP   = 4
	// NativeMallocNxPFromHost backs `nxp_malloc`, the paper's annotated
	// allocation (§III-D): host code allocating in the device's memory
	// region — e.g. to initialize data for near-storage processors —
	// without migrating.
	NativeMallocNxPFromHost = 5
)

// Costs models the Flick runtime's software overheads, calibrated together
// with kernel.Costs so the null-call round trips land on the paper's
// Table III (18.3 µs / 16.9 µs).
type Costs struct {
	// HostHandlerWork is the user-space handler's argument gathering and
	// bookkeeping per pass (Listing 1 glue).
	HostHandlerWork sim.Duration
	// StackInit is the one-time cost of allocating and preparing a
	// thread's NxP stack on its first migration.
	StackInit sim.Duration
	// NxPFaultEntry is exception entry + redirect on the 200 MHz core.
	NxPFaultEntry sim.Duration
	// NxPHandlerWork is the NxP-side handler glue per pass (Listing 2).
	NxPHandlerWork sim.Duration
	// NxPDispatch is the scheduler's average poll-discovery latency plus
	// status-register decode.
	NxPDispatch sim.Duration
	// NxPContextSwitch is the NxP scheduler's switch into a thread.
	NxPContextSwitch sim.Duration
}

// DefaultCosts returns the calibrated runtime cost set.
func DefaultCosts() Costs {
	return Costs{
		HostHandlerWork:  500 * sim.Nanosecond,
		StackInit:        2 * sim.Microsecond,
		NxPFaultEntry:    1500 * sim.Nanosecond, // 300 cycles @ 200 MHz
		NxPHandlerWork:   800 * sim.Nanosecond,  // 160 cycles
		NxPDispatch:      2800 * sim.Nanosecond,
		NxPContextSwitch: 2300 * sim.Nanosecond, // 460 cycles
	}
}

// Stats counts migration activity.
type Stats struct {
	// H2NCalls counts host→NxP call migrations; N2HCalls the reverse.
	H2NCalls int
	N2HCalls int
	// NXFaults counts host-side NX faults that became migrations.
	NXFaults int
}

// Runtime is the installed Flick machinery on one machine: mailboxes,
// handlers, schedulers, and hooks.
type Runtime struct {
	M     *platform.Machine
	K     *kernel.Kernel
	Prog  *kernel.Program
	Costs Costs

	// Mboxes holds one descriptor mailbox per board, in board order.
	Mboxes []*Mailbox

	// ExtraMigrationLatency is injected once per call migration, in each
	// direction, to emulate slower prior-work mechanisms (Fig. 5's 500 µs
	// and 1 ms curves).
	ExtraMigrationLatency sim.Duration

	hostHandlerVA uint64

	// Per-board-core runtime state: the handler stub each core's faults
	// redirect to, the pid currently executing there, and the last
	// faulting address (consumed immediately by the handler stub). The
	// map serves fault-handler lookup; states holds the same entries in
	// deterministic build order (board 0's NxP, board 0's DSP, then the
	// later boards' NxP cores) for probe scans and scheduler spawning.
	board  map[*cpu.Core]*boardState
	states []*boardState

	stats Stats

	// descBuf is the scratch buffer for the timed descriptor accesses
	// below. Each helper charges its Sleep — the only yield point — before
	// filling the buffer, so one buffer per runtime
	// keeps the migration hot path allocation-free.
	descBuf [DescSize]byte
}

// boardState is the runtime's per-board-core bookkeeping.
type boardState struct {
	idx       int       // board index the core lives on
	core      *cpu.Core // the board core itself
	mbox      *Mailbox  // the board's mailbox
	handlerVA uint64
	curPID    uint32
	faultAddr uint64
	// busy marks the window in which the scheduler is executing curPID's
	// call (including everything nested under it) — the signal that tells
	// the kernel's migration probe the callee is alive, not lost.
	busy bool
	// schedCtx is the scheduler loop's reusable top-level call context,
	// reset before each migrated-in call.
	schedCtx *cpu.Context
}

// Activate installs the Flick runtime onto a machine with a loaded
// program. The program must have been linked with the RuntimeLibraries of
// the machine's parameters and PerISASymbols.
func Activate(m *platform.Machine, prog *kernel.Program) (*Runtime, error) {
	rt := &Runtime{M: m, K: m.Kernel, Prog: prog, Costs: DefaultCosts()}

	var err error
	if rt.hostHandlerVA, err = prog.SymbolVA("__flick_host_handler"); err != nil {
		return nil, fmt.Errorf("core: program not linked with the Flick runtime: %w", err)
	}
	rt.board = make(map[*cpu.Core]*boardState)
	// Each board ISA's migration handler stub is the registered-name
	// convention "__flick_<isa>_handler", linked from that ISA's runtime
	// library.
	handlerVAs := make(map[isa.ISA]uint64)
	handlerVA := func(is isa.ISA) (uint64, error) {
		if va, ok := handlerVAs[is]; ok {
			return va, nil
		}
		va, err := prog.SymbolVA("__flick_" + is.String() + "_handler")
		if err != nil {
			return 0, fmt.Errorf("core: program not linked with the %s runtime: %w", is, err)
		}
		handlerVAs[is] = va
		return va, nil
	}
	addState := func(idx int, core *cpu.Core) error {
		va, err := handlerVA(core.ISA())
		if err != nil {
			return err
		}
		st := &boardState{idx: idx, core: core, handlerVA: va}
		rt.board[core] = st
		rt.states = append(rt.states, st)
		return nil
	}
	if err := addState(0, m.NxP); err != nil {
		return nil, err
	}
	if m.DSP != nil && hasTextISA(prog, m.DSP.ISA()) {
		if err := addState(0, m.DSP); err != nil {
			return nil, err
		}
	}
	for _, b := range m.Boards[1:] {
		if err := addState(b.Index, b.NxP); err != nil {
			return nil, err
		}
	}
	// Every board ISA the image carries text for needs a core of that
	// family somewhere, or its calls could never execute.
	for _, be := range isa.All() {
		if be.Host() || !hasTextISA(prog, be.ISA()) {
			continue
		}
		found := false
		for _, st := range rt.states {
			if st.core.ISA() == be.ISA() {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("core: image contains .text.%s but no board carries a %s core (set Params.BoardISAs)", be.Name(), be.Name())
		}
	}

	route := func(target uint64) (isa.ISA, bool) { return prog.Image.TextISA(target) }
	// A descriptor abandoned by the DMA retry machinery fails its task and
	// wakes it so the host handler surfaces the error instead of waiting
	// out the full migration timeout.
	fail := func(pid uint32, err error) {
		rt.failTask(pid, err)
		if t, ok := m.Kernel.TaskByPID(int(pid)); ok {
			t.Wake()
		}
	}
	// One mailbox per board, each with its own host-DRAM staging and
	// arrival pages and its own MSI site ("msi", "msi1", ...).
	for _, b := range m.Boards {
		staging, err := m.Alloc.Alloc()
		if err != nil {
			return nil, err
		}
		arrival, err := m.Alloc.Alloc()
		if err != nil {
			return nil, err
		}
		site := "msi"
		if b.Index > 0 {
			site = fmt.Sprintf("msi%d", b.Index)
		}
		mb, err := newMailbox(m, b, staging, arrival, func(pid int) { m.Kernel.DeliverMSIVia(site, pid) }, route, fail)
		if err != nil {
			return nil, err
		}
		rt.Mboxes = append(rt.Mboxes, mb)
	}
	for _, st := range rt.states {
		st.mbox = rt.Mboxes[st.idx]
	}
	// The kernel validates migration wakes (and recovers lost MSIs) by
	// probing the mailboxes' pending-arrival tables; the busy signals let
	// it tell a long-running callee apart from a lost wake.
	m.Kernel.SetMigrationProbe(func(pid int) kernel.ProbeState {
		id := uint32(pid)
		for _, mb := range rt.Mboxes {
			if mb.HasN2H(id) {
				return kernel.ProbeReady
			}
		}
		for _, st := range rt.states {
			if st.busy && st.curPID == id {
				return kernel.ProbeBusy
			}
		}
		for _, mb := range rt.Mboxes {
			if mb.PendingFor(id) {
				return kernel.ProbeBusy
			}
		}
		return kernel.ProbeIdle
	})

	m.Natives.Register(NativeHostHandler, rt.hostHandler)
	m.Natives.Register(NativeNxPHandler, rt.nxpHandler)
	m.Natives.Register(NativeMallocHost, rt.mallocNative(func() *kernel.Bump { return prog.HostHeap }))
	m.Natives.Register(NativeMallocNxP, rt.mallocNative(func() *kernel.Bump { return prog.NxPHeap }))
	m.Natives.Register(NativeMallocNxPFromHost, rt.mallocNative(func() *kernel.Bump { return prog.NxPHeap }))

	// Host side: NX instruction faults targeting any board ISA's text
	// redirect into the host migration handler.
	registered := make(map[isa.ISA]bool)
	for _, st := range rt.states {
		registered[st.core.ISA()] = true
	}
	m.Kernel.SetMigrationRedirect(func(t *kernel.Task, f *cpu.Fault) (uint64, bool) {
		if target, ok := prog.Image.TextISA(f.VA); ok && registered[target] {
			rt.stats.NXFaults++
			return rt.hostHandlerVA, true
		}
		return 0, false
	})
	// Board side: wrong-ISA and misaligned fetch faults redirect into the
	// faulting core's migration handler; each board core gets a scheduler.
	for _, st := range rt.states {
		st := st
		st.core.SetFaultHandler(rt.boardFault)
		m.Env.SpawnDaemon(st.core.Name()+"-scheduler", func(p *sim.Proc) {
			rt.schedulerLoop(p, st)
		})
	}

	// Publish the runtime's migration counters. Gauge-based over the stats
	// the runtime already maintains, so the call paths stay untouched;
	// the gauges merge the per-board shards only at snapshot time.
	reg := m.Env.Metrics()
	reg.Gauge("flick.h2n_calls", func() uint64 { return uint64(rt.Stats().H2NCalls) })
	reg.Gauge("flick.n2h_calls", func() uint64 { return uint64(rt.Stats().N2HCalls) })
	reg.Gauge("flick.nx_faults", func() uint64 { return uint64(rt.Stats().NXFaults) })
	return rt, nil
}

// hasTextISA reports whether the image carries text for the given ISA.
func hasTextISA(prog *kernel.Program, is isa.ISA) bool {
	for _, seg := range prog.Image.Segments {
		if seg.Kind == multibin.SecText && seg.ISA == is {
			return true
		}
	}
	return false
}

// Stats returns the migration counters.
func (rt *Runtime) Stats() Stats { return rt.stats }

// SetPIODescriptors switches descriptor transport from the single-burst
// DMA to programmed I/O, the ablation of §IV-B1's design choice.
func (rt *Runtime) SetPIODescriptors(v bool) { rt.Mboxes[0].SetPIO(v) }

// boardFault is the board cores' exception handler: wrong-ISA and
// misaligned fetches whose target is some *other* ISA's text become
// migrations (§IV-B2); anything else is fatal. Calls to a sibling board
// ISA route through the host, which re-faults and migrates onward — the
// recursive handler structure needs no special casing for it.
func (rt *Runtime) boardFault(p *sim.Proc, c *cpu.Core, f *cpu.Fault) error {
	st := rt.board[c]
	if st == nil {
		return f
	}
	if f.Spurious {
		// Injected ghost fault from a stale translation: pay the fault
		// entry, flush the page everywhere, and resume at the same PC.
		p.Sleep(rt.Costs.NxPFaultEntry)
		rt.K.ShootdownPage(p, f.VA)
		return nil
	}
	if f.Kind == cpu.FaultFetchNX || f.Kind == cpu.FaultFetchMisaligned {
		if target, ok := rt.Prog.Image.TextISA(f.VA); ok && target != c.ISA() {
			p.Sleep(rt.Costs.NxPFaultEntry)
			st.faultAddr = f.VA
			c.Context().PC = st.handlerVA
			rt.M.Env.Emit(sim.Event{Comp: c.Name(), Kind: sim.KindFault, Addr: f.VA, Aux: st.handlerVA, Note: f.Kind.String() + " → board handler"})
			return nil
		}
	}
	return f
}

// schedulerLoop is a board core's scheduler (§IV-B1): it discovers
// migrated-in threads via the DMA status register, context-switches them
// in, runs the target function, and ships the return descriptor back.
func (rt *Runtime) schedulerLoop(p *sim.Proc, st *boardState) {
	core := st.core
	for {
		slot := st.mbox.WaitH2NUnclaimed(p, core.ISA())
		p.Sleep(rt.Costs.NxPDispatch)
		rt.readStatusReg(p, st.mbox)
		d := rt.readDescNxP(p, st.mbox.H2NRingLocal(slot))
		if d.Kind != DescCall {
			rt.M.Env.Emit(sim.Event{Comp: core.Name(), Kind: sim.KindSched, Aux: uint64(d.PID), Note: "unexpected descriptor at top level"})
			continue
		}
		rt.stats.H2NCalls++
		rt.M.Env.Emit(sim.Event{Comp: core.Name(), Kind: sim.KindMigrate, Addr: d.Target, Aux: uint64(d.PID), Note: "h2n"})
		p.Sleep(rt.Costs.NxPContextSwitch)
		// One context per board scheduler, reset per call. Nothing retains
		// it past the Call: the return value travels by descriptor, and the
		// next iteration's context switch would clobber real hardware state
		// just the same.
		if st.schedCtx == nil {
			st.schedCtx = &cpu.Context{}
		}
		ctx := st.schedCtx
		*ctx = cpu.Context{}
		ctx.SetReg(isa.SP, d.NxPStack)
		core.SetContext(ctx)
		st.curPID = d.PID
		st.busy = true
		ret, err := core.Call(p, d.Target, d.Args[0], d.Args[1], d.Args[2], d.Args[3], d.Args[4], d.Args[5])
		if err != nil {
			rt.failTask(d.PID, err)
			ret = 0
		}
		rt.sendReturnToHost(p, st.mbox, d.PID, ret)
		st.busy = false
	}
}

// failTask records a fatal NxP-side error on the owning task so the host
// handler aborts when it wakes.
func (rt *Runtime) failTask(pid uint32, err error) {
	if t, ok := rt.K.TaskByPID(int(pid)); ok {
		t.Err = fmt.Errorf("core: error during NxP execution: %w", err)
	}
	rt.M.Env.Emit(sim.Event{Comp: "runtime", Kind: sim.KindSched, Aux: uint64(pid), Note: "task failed on board"})
}

// sendReturnToHost stages and ships an NxP→host return descriptor via the
// given board's mailbox.
func (rt *Runtime) sendReturnToHost(p *sim.Proc, mb *Mailbox, pid uint32, ret uint64) {
	p.Sleep(rt.Costs.NxPHandlerWork)
	d := Descriptor{Kind: DescReturn, PID: pid, RetVal: ret}
	local, slot, seq := mb.StageN2HSlot(p)
	d.Seq = seq
	rt.writeDescNxP(p, local, d)
	rt.ringDoorbell(p, mb, regN2HDoorbell, slot)
}

// --- timed descriptor and register accesses ------------------------------

// writeDescHost writes a descriptor into host DRAM, charging the host
// core's local-memory cost per word.
func (rt *Runtime) writeDescHost(p *sim.Proc, pa uint64, d Descriptor) {
	p.Sleep(sim.Duration(DescSize/8) * rt.M.Params.HostDRAMAccess)
	rt.descBuf = d.Encode()
	if err := rt.M.HostView.Write(pa, rt.descBuf[:]); err != nil {
		panic(fmt.Sprintf("core: staging write: %v", err))
	}
}

// readDescHost reads a descriptor from host DRAM with host-side timing.
func (rt *Runtime) readDescHost(p *sim.Proc, pa uint64) Descriptor {
	p.Sleep(sim.Duration(DescSize/8) * rt.M.Params.HostDRAMAccess)
	if err := rt.M.HostView.Read(pa, rt.descBuf[:]); err != nil {
		panic(fmt.Sprintf("core: arrival read: %v", err))
	}
	d, err := DecodeDescriptor(rt.descBuf[:])
	if err != nil {
		panic(fmt.Sprintf("core: arrival decode: %v", err))
	}
	return d
}

// nxpDescWordCost prices one 8-byte descriptor access from the NxP side:
// local BRAM is 2 cycles; host DRAM (the PIO ablation's path) crosses the
// link per word — exactly the cost the paper's single-burst DMA avoids.
func (rt *Runtime) nxpDescWordCost(pa uint64, write bool) sim.Duration {
	if pa >= platform.LocalBRAMBase {
		return rt.M.Params.NxPBRAMAccess
	}
	if write {
		return rt.M.Params.Link.WriteLatency(8)
	}
	return rt.M.Params.Link.ReadLatency(8) + rt.M.Params.HostDRAMDevice
}

// writeDescNxP writes a descriptor word-by-word from the NxP side.
func (rt *Runtime) writeDescNxP(p *sim.Proc, localPA uint64, d Descriptor) {
	p.Sleep(sim.Duration(DescSize/8) * rt.nxpDescWordCost(localPA, true))
	rt.descBuf = d.Encode()
	if err := rt.M.NxPView.Write(localPA, rt.descBuf[:]); err != nil {
		panic(fmt.Sprintf("core: descriptor write: %v", err))
	}
}

// readDescNxP reads a descriptor word-by-word with NxP timing.
func (rt *Runtime) readDescNxP(p *sim.Proc, localPA uint64) Descriptor {
	p.Sleep(sim.Duration(DescSize/8) * rt.nxpDescWordCost(localPA, false))
	if err := rt.M.NxPView.Read(localPA, rt.descBuf[:]); err != nil {
		panic(fmt.Sprintf("core: descriptor read: %v", err))
	}
	d, err := DecodeDescriptor(rt.descBuf[:])
	if err != nil {
		panic(fmt.Sprintf("core: descriptor decode: %v", err))
	}
	return d
}

// ringDoorbell performs a timed register write to one board's mailbox
// register file.
func (rt *Runtime) ringDoorbell(p *sim.Proc, mb *Mailbox, reg uint64, slot int) {
	p.Sleep(rt.M.Params.RegsAccess)
	if err := rt.M.NxPView.WriteU64(mb.regsLocal+reg, uint64(slot)); err != nil {
		panic(fmt.Sprintf("core: doorbell: %v", err))
	}
}

// readStatusReg performs a timed read of one board's DMA status register,
// the scheduler's poll.
func (rt *Runtime) readStatusReg(p *sim.Proc, mb *Mailbox) uint64 {
	p.Sleep(rt.M.Params.RegsAccess)
	v, err := rt.M.NxPView.ReadU64(mb.regsLocal + regH2NCount)
	if err != nil {
		panic(fmt.Sprintf("core: status read: %v", err))
	}
	return v
}

// mallocNative builds the allocator native for one heap.
func (rt *Runtime) mallocNative(heap func() *kernel.Bump) cpu.NativeFunc {
	return func(p *sim.Proc, c *cpu.Core) error {
		h := heap()
		if h == nil {
			return fmt.Errorf("core: malloc: no heap on this platform")
		}
		c.ChargeCycles(p, 40) // allocator bookkeeping
		size := c.Context().Reg(isa.A0)
		va, err := h.Alloc(size, 16)
		if err != nil {
			return err
		}
		c.Context().SetReg(isa.A0, va)
		return nil
	}
}
