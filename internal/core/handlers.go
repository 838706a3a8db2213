package core

import (
	"errors"
	"fmt"

	"flick/internal/cpu"
	"flick/internal/isa"
	"flick/internal/kernel"
	"flick/internal/sim"
)

// hostHandler is Listing 1: the user-space host migration handler. The
// kernel redirected a hijacked cross-ISA call here, so the original call's
// arguments are in the argument registers and RA points at the original
// call site — returning from this native returns the migrated call's value
// to the caller transparently.
func (rt *Runtime) hostHandler(p *sim.Proc, c *cpu.Core) error {
	t := rt.K.CurrentTaskOn(c)
	if t == nil {
		return errors.New("core: host handler with no current task")
	}
	return rt.executeOnBoard(p, c, t, t.FaultAddr)
}

// boardStackFor returns the thread's stack top on the given board's core
// of the target's ISA, allocating it on the first migration toward that
// core (Listing 1, lines 3-4). Stacks live in board-local BRAM, so each
// (board, ISA) pair a thread touches gets its own.
func (rt *Runtime) boardStackFor(p *sim.Proc, t *kernel.Task, board int, target uint64) (uint64, error) {
	is, ok := rt.Prog.Image.TextISA(target)
	if !ok || isa.IsHost(is) {
		return 0, fmt.Errorf("core: migration target %#x is not board text", target)
	}
	if t.BoardStacks == nil {
		t.BoardStacks = make(map[kernel.BoardStackKey]uint64)
	}
	key := kernel.BoardStackKey{Board: board, ISA: is}
	if stack, ok := t.BoardStacks[key]; ok {
		return stack, nil
	}
	stack, err := rt.Prog.AllocNxPStackOn(board)
	if err != nil {
		return 0, err
	}
	p.Sleep(rt.Costs.StackInit)
	t.BoardStacks[key] = stack
	return stack, nil
}

// pickBoard chooses the board for one migration of t toward target.
// pinned placements (a blocked board frame of the thread that must be the
// one to continue, or the DSP's fixed home on board 0) bypass the policy
// scheduler and are exempt from failover.
func (rt *Runtime) pickBoard(t *kernel.Task, target uint64) (board int, pinned bool) {
	is, ok := rt.Prog.Image.TextISA(target)
	if !ok {
		return 0, true // surfaces as an error in boardStackFor
	}
	// A blocked migration-handler frame of this thread awaiting a
	// descriptor pins follow-up calls to its board: the waiter is the
	// frame that continues, and a fresh dispatch elsewhere would strand it.
	pid := uint32(t.PID)
	for _, st := range rt.states {
		if st.core.ISA() == is && st.mbox.HasWaiter(pid, is) {
			return st.idx, true
		}
	}
	// An ISA carried by exactly one board (the DSP's fixed home on board 0,
	// or any -board-isa family present once) dispatches straight there.
	if home, ok := rt.K.BoardSched().Home(is); ok {
		return home, true
	}
	return rt.K.BoardSched().Pick(t.PID, is, nil), false
}

// canFailOver reports whether a failed dispatch may be retried on another
// board: only failures that prove the call never dispatched qualify — a
// migration timeout, or an h2n transport loss (the board never saw the
// descriptor). An n2h loss means the call executed and its return is gone;
// re-dispatching would run it twice.
func canFailOver(err error) bool {
	var te *TransportError
	if errors.As(err, &te) {
		return te.Dir == "h2n"
	}
	var mt *kernel.MigrationTimeoutError
	return errors.As(err, &mt)
}

// executeOnBoard ships a call to a board core of the target's ISA —
// chosen by the kernel's board scheduler — and serves the descriptor
// protocol until the matching return arrives, leaving the result in a0.
// It is the body shared by the transparent fault-triggered path
// (hostHandler) and the explicit offload-style path (OffloadCall). When a
// dispatch dies without ever reaching its board (migration timeout, h2n
// transport loss), the call fails over to another board until every board
// has been tried.
func (rt *Runtime) executeOnBoard(p *sim.Proc, c *cpu.Core, t *kernel.Task, target uint64) error {
	is, _ := rt.Prog.Image.TextISA(target)
	board, pinned := rt.pickBoard(t, target)
	var exclude map[int]bool
	for {
		err := rt.dispatchToBoard(p, c, t, target, board)
		if err == nil {
			return nil
		}
		if pinned || !canFailOver(err) {
			return err
		}
		if exclude == nil {
			exclude = make(map[int]bool)
		}
		exclude[board] = true
		if len(exclude) >= rt.K.BoardSched().CapableBoards(is) {
			return err
		}
		next := rt.K.BoardSched().Pick(t.PID, is, exclude)
		rt.K.RecordFailover(t.PID, board, next)
		t.Err = nil
		board = next
	}
}

// dispatchToBoard runs one placement attempt of the migrated call on the
// given board.
func (rt *Runtime) dispatchToBoard(p *sim.Proc, c *cpu.Core, t *kernel.Task, target uint64, board int) error {
	stack, err := rt.boardStackFor(p, t, board, target)
	if err != nil {
		return err
	}
	sched := rt.K.BoardSched()
	sched.Started(t.PID, board)
	defer sched.Finished(board)
	rt.M.Env.Emit(sim.Event{Comp: "runtime", Kind: sim.KindSched, Addr: target, Aux: uint64(t.PID), Note: "host → board call"})
	// prepare_host_to_nxp_call + ioctl_migrate_and_suspend (lines 5-6).
	call := Descriptor{
		Kind:     DescCall,
		PID:      uint32(t.PID),
		Target:   target,
		Args:     c.Args(),
		NxPStack: stack,
		PTBR:     rt.K.Tables().Root(),
	}
	rt.sendToNxPAndSuspend(p, rt.Mboxes[board], t, call)

	// The while loop (lines 7-12): every wake is either an NxP→host call
	// to serve or the final return.
	for {
		if t.Err != nil {
			// A call that failed on the board still ships its return;
			// discard it, so its slot is freed and a failover of this
			// thread cannot take it for the retried call's result.
			rt.takeN2H(uint32(t.PID))
			return t.Err
		}
		pa, src, ok := rt.takeN2H(uint32(t.PID))
		if !ok {
			return fmt.Errorf("core: pid %d woke without a pending descriptor", t.PID)
		}
		d := rt.readDescHost(p, pa)
		switch d.Kind {
		case DescReturn:
			// Lines 13-14: hand the value back as the hijacked call's own
			// return value.
			c.Context().SetReg(isa.A0, d.RetVal)
			return nil
		case DescCall:
			// Lines 8-11: a board core called a host function; run it
			// here — it may itself fault and recurse into this handler.
			// The return is addressed to the board frame that asked, via
			// the mailbox the call came in on.
			rt.stats.N2HCalls++
			rt.M.Env.Emit(sim.Event{Comp: "runtime", Kind: sim.KindMigrate, Addr: d.Target, Aux: uint64(t.PID), Note: "n2h"})
			ret, err := c.Call(p, d.Target, d.Args[0], d.Args[1], d.Args[2], d.Args[3], d.Args[4], d.Args[5])
			if err != nil {
				return err
			}
			back := Descriptor{Kind: DescReturn, PID: uint32(t.PID), RetVal: ret, ReplyISA: d.ReplyISA}
			rt.sendToNxPAndSuspend(p, src, t, back)
		default:
			return fmt.Errorf("core: pid %d received descriptor kind %v", t.PID, d.Kind)
		}
	}
}

// takeN2H consumes the pending arrival descriptor for pid from whichever
// board's mailbox holds it, returning the mailbox so replies can be routed
// back the same way.
func (rt *Runtime) takeN2H(pid uint32) (pa uint64, src *Mailbox, ok bool) {
	for _, mb := range rt.Mboxes {
		if pa, ok := mb.TakeN2H(pid); ok {
			return pa, mb, true
		}
	}
	return 0, nil, false
}

// OffloadCall is the offload-engine programming style the paper contrasts
// Flick against (§II-B): the host code *explicitly* ships target and
// arguments to the device and waits, instead of letting a hijacked call
// migrate transparently. It reuses the same descriptor transport, so the
// measured difference against a Flick call is exactly the transparency
// overhead: the NX fault and handler redirect. The programmability
// difference is visible in the call shape — the caller must know the
// function's placement and invoke this API instead of a plain `call`.
func (rt *Runtime) OffloadCall(p *sim.Proc, c *cpu.Core, target uint64, args [6]uint64) (uint64, error) {
	t := rt.K.CurrentTaskOn(c)
	if t == nil {
		return 0, errors.New("core: offload call with no current task")
	}
	c.SetArgs(args)
	if err := rt.executeOnBoard(p, c, t, target); err != nil {
		return 0, err
	}
	return c.Context().Reg(isa.A0), nil
}

// sendToNxPAndSuspend stages a descriptor on the given board's mailbox,
// then performs the migration ioctl: the kernel suspends the thread and
// fires the doorbell only after the suspended state is published (§IV-D).
func (rt *Runtime) sendToNxPAndSuspend(p *sim.Proc, mb *Mailbox, t *kernel.Task, d Descriptor) {
	p.Sleep(rt.Costs.HostHandlerWork + rt.ExtraMigrationLatency)
	pa, slot, seq := mb.StageH2NSlot()
	d.Seq = seq
	rt.writeDescHost(p, pa, d)
	rt.K.MigrateAndSuspend(p, t, func() { mb.kickH2N(slot) })
}

// nxpHandler is Listing 2: the NxP migration handler. The NxP fault
// handler redirected a hijacked call to a host function here; RA points at
// the NxP call site.
func (rt *Runtime) nxpHandler(p *sim.Proc, c *cpu.Core) error {
	st := rt.board[c]
	if st == nil {
		return fmt.Errorf("core: board handler on unregistered core %s", c)
	}
	pid := st.curPID
	target := st.faultAddr

	// prepare_nxp_to_host_call + migrate_and_suspend (lines 3-4). The
	// waiter must be registered before the doorbell rings so the response
	// cannot race past us. The call is stamped with this core's ISA so
	// the host addresses its return descriptor back to this frame.
	mb := st.mbox
	rt.M.Env.Emit(sim.Event{Comp: c.Name(), Kind: sim.KindSched, Addr: target, Aux: uint64(pid), Note: "board → host call"})
	call := Descriptor{Kind: DescCall, PID: pid, Target: target, Args: c.Args(), ReplyISA: uint32(c.ISA())}
	p.Sleep(rt.Costs.NxPHandlerWork + rt.ExtraMigrationLatency)
	local, slot, seq := mb.StageN2HSlot(p)
	call.Seq = seq
	rt.writeDescNxP(p, local, call)
	mb.RegisterWaiter(pid, c.ISA())
	rt.ringDoorbell(p, mb, regN2HDoorbell, slot)

	// The while loop (lines 5-12).
	for {
		hslot := mb.WaitH2N(p, pid, c.ISA())
		p.Sleep(rt.Costs.NxPDispatch)
		rt.readStatusReg(p, mb)
		d := rt.readDescNxP(p, mb.H2NRingLocal(hslot))
		switch d.Kind {
		case DescReturn:
			// Lines 11-12: resume the NxP caller with the host's value.
			c.Context().SetReg(isa.A0, d.RetVal)
			return nil
		case DescCall:
			// Lines 6-9: a nested host→NxP call while we wait.
			rt.stats.H2NCalls++
			rt.M.Env.Emit(sim.Event{Comp: c.Name(), Kind: sim.KindMigrate, Addr: d.Target, Aux: uint64(pid), Note: "h2n"})
			p.Sleep(rt.Costs.NxPContextSwitch)
			ret, err := c.Call(p, d.Target, d.Args[0], d.Args[1], d.Args[2], d.Args[3], d.Args[4], d.Args[5])
			if err != nil {
				rt.failTask(pid, err)
				ret = 0
			}
			p.Sleep(rt.Costs.NxPHandlerWork)
			back := Descriptor{Kind: DescReturn, PID: pid, RetVal: ret, ReplyISA: d.ReplyISA}
			local, slot, seq := mb.StageN2HSlot(p)
			back.Seq = seq
			rt.writeDescNxP(p, local, back)
			mb.RegisterWaiter(pid, c.ISA())
			rt.ringDoorbell(p, mb, regN2HDoorbell, slot)
		default:
			return fmt.Errorf("core: nxp handler received kind %v", d.Kind)
		}
	}
}
