package cpu

import (
	"errors"
	"fmt"

	"flick/internal/isa"
	"flick/internal/mem"
	"flick/internal/paging"
	"flick/internal/sim"
)

// opFn executes one decoded instruction whose following instruction
// starts at next. Each handler owns the PC update: straight-line ops set
// ctx.PC = next, control transfers set their target, halt leaves PC
// untouched, and handled faults return through deliver/dataFault without
// moving PC so the faulting instruction re-executes after the handler.
// Handlers take ins by value — passing a pointer through the indirect
// call would escape it to the heap and break the 0 allocs/step invariant.
//
// Both the per-instruction slow path (execute) and the superblock
// executor dispatch through opTable, so their architectural semantics are
// identical by construction.
type opFn func(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error

var opTable = [isa.NumOps]opFn{
	isa.OpNop:  execNop,
	isa.OpHalt: execHalt,

	isa.OpMov:  execMov,
	isa.OpMovi: execMovi,
	isa.OpOrhi: execOrhi,

	isa.OpAdd:  execAdd,
	isa.OpSub:  execSub,
	isa.OpMul:  execMul,
	isa.OpUdiv: execDivRem,
	isa.OpUrem: execDivRem,
	isa.OpAnd:  execAnd,
	isa.OpOr:   execOr,
	isa.OpXor:  execXor,
	isa.OpShl:  execShl,
	isa.OpShr:  execShr,
	isa.OpSar:  execSar,
	isa.OpSlt:  execSlt,
	isa.OpSltu: execSltu,

	isa.OpAddi:  execAddi,
	isa.OpMuli:  execMuli,
	isa.OpAndi:  execAndi,
	isa.OpOri:   execOri,
	isa.OpXori:  execXori,
	isa.OpShli:  execShli,
	isa.OpShri:  execShri,
	isa.OpSlti:  execSlti,
	isa.OpSltui: execSltui,

	isa.OpLd1: execLoad,
	isa.OpLd2: execLoad,
	isa.OpLd4: execLoad,
	isa.OpLd8: execLoad,
	isa.OpSt1: execStore,
	isa.OpSt2: execStore,
	isa.OpSt4: execStore,
	isa.OpSt8: execStore,

	isa.OpPush: execPush,
	isa.OpPop:  execPop,

	isa.OpJmp:  execJmp,
	isa.OpJmpr: execJmpr,
	isa.OpBeq:  execBranch,
	isa.OpBne:  execBranch,
	isa.OpBlt:  execBranch,
	isa.OpBge:  execBranch,
	isa.OpBltu: execBranch,
	isa.OpBgeu: execBranch,

	isa.OpCall:  execCall,
	isa.OpCallr: execCallr,
	isa.OpRet:   execRet,

	isa.OpNative: execNative,
	isa.OpSys:    execSys,
}

// execute runs one decoded instruction. n is its encoded length. Cycle
// pricing is the backend's: isa.BaseStepCycles plus any per-form penalty
// the encoding charges (e.g. decode expansion of wide compressed forms).
func (c *Core) execute(p *sim.Proc, ins isa.Instr, n int) error {
	c.charge(p, c.codec.StepCycles(ins, n))
	c.instret++
	if int(ins.Op) >= isa.NumOps || opTable[ins.Op] == nil {
		return fmt.Errorf("cpu: %s: unimplemented op %v", c, ins.Op)
	}
	return opTable[ins.Op](c, p, ins, c.ctx.PC+uint64(n))
}

func execNop(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	c.ctx.PC = next
	return nil
}

func execHalt(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	c.halted = true
	return nil
}

func execMov(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	ctx.SetReg(ins.Rd, ctx.Reg(ins.Rs))
	ctx.PC = next
	return nil
}

func execMovi(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	c.ctx.SetReg(ins.Rd, uint64(ins.Imm))
	c.ctx.PC = next
	return nil
}

func execOrhi(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	ctx.SetReg(ins.Rd, uint64(ins.Imm)<<32|ctx.Reg(ins.Rd)&0xFFFFFFFF)
	ctx.PC = next
	return nil
}

func execAdd(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	ctx.SetReg(ins.Rd, ctx.Reg(ins.Rs)+ctx.Reg(ins.Rt))
	ctx.PC = next
	return nil
}

func execSub(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	ctx.SetReg(ins.Rd, ctx.Reg(ins.Rs)-ctx.Reg(ins.Rt))
	ctx.PC = next
	return nil
}

func execMul(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	ctx.SetReg(ins.Rd, ctx.Reg(ins.Rs)*ctx.Reg(ins.Rt))
	ctx.PC = next
	return nil
}

func execDivRem(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	d := ctx.Reg(ins.Rt)
	if d == 0 {
		return c.deliver(p, &Fault{Kind: FaultArith, ISA: c.cfg.ISA, VA: ctx.PC, PC: ctx.PC})
	}
	if ins.Op == isa.OpUdiv {
		ctx.SetReg(ins.Rd, ctx.Reg(ins.Rs)/d)
	} else {
		ctx.SetReg(ins.Rd, ctx.Reg(ins.Rs)%d)
	}
	ctx.PC = next
	return nil
}

func execAnd(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	ctx.SetReg(ins.Rd, ctx.Reg(ins.Rs)&ctx.Reg(ins.Rt))
	ctx.PC = next
	return nil
}

func execOr(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	ctx.SetReg(ins.Rd, ctx.Reg(ins.Rs)|ctx.Reg(ins.Rt))
	ctx.PC = next
	return nil
}

func execXor(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	ctx.SetReg(ins.Rd, ctx.Reg(ins.Rs)^ctx.Reg(ins.Rt))
	ctx.PC = next
	return nil
}

func execShl(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	ctx.SetReg(ins.Rd, ctx.Reg(ins.Rs)<<(ctx.Reg(ins.Rt)&63))
	ctx.PC = next
	return nil
}

func execShr(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	ctx.SetReg(ins.Rd, ctx.Reg(ins.Rs)>>(ctx.Reg(ins.Rt)&63))
	ctx.PC = next
	return nil
}

func execSar(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	ctx.SetReg(ins.Rd, uint64(int64(ctx.Reg(ins.Rs))>>(ctx.Reg(ins.Rt)&63)))
	ctx.PC = next
	return nil
}

func execSlt(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	ctx.SetReg(ins.Rd, b2u(int64(ctx.Reg(ins.Rs)) < int64(ctx.Reg(ins.Rt))))
	ctx.PC = next
	return nil
}

func execSltu(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	ctx.SetReg(ins.Rd, b2u(ctx.Reg(ins.Rs) < ctx.Reg(ins.Rt)))
	ctx.PC = next
	return nil
}

func execAddi(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	ctx.SetReg(ins.Rd, ctx.Reg(ins.Rs)+uint64(ins.Imm))
	ctx.PC = next
	return nil
}

func execMuli(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	ctx.SetReg(ins.Rd, ctx.Reg(ins.Rs)*uint64(ins.Imm))
	ctx.PC = next
	return nil
}

func execAndi(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	ctx.SetReg(ins.Rd, ctx.Reg(ins.Rs)&uint64(ins.Imm))
	ctx.PC = next
	return nil
}

func execOri(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	ctx.SetReg(ins.Rd, ctx.Reg(ins.Rs)|uint64(ins.Imm))
	ctx.PC = next
	return nil
}

func execXori(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	ctx.SetReg(ins.Rd, ctx.Reg(ins.Rs)^uint64(ins.Imm))
	ctx.PC = next
	return nil
}

func execShli(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	ctx.SetReg(ins.Rd, ctx.Reg(ins.Rs)<<(uint64(ins.Imm)&63))
	ctx.PC = next
	return nil
}

func execShri(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	ctx.SetReg(ins.Rd, ctx.Reg(ins.Rs)>>(uint64(ins.Imm)&63))
	ctx.PC = next
	return nil
}

func execSlti(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	ctx.SetReg(ins.Rd, b2u(int64(ctx.Reg(ins.Rs)) < ins.Imm))
	ctx.PC = next
	return nil
}

func execSltui(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	ctx.SetReg(ins.Rd, b2u(ctx.Reg(ins.Rs) < uint64(ins.Imm)))
	ctx.PC = next
	return nil
}

func execLoad(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	size := 1 << (ins.Op - isa.OpLd1)
	va := ctx.Reg(ins.Rs) + uint64(ins.Imm)
	v, err := c.wordVirt(p, va, size, false, 0)
	if err != nil {
		return c.dataFault(p, err, va)
	}
	ctx.SetReg(ins.Rd, v)
	ctx.PC = next
	return nil
}

func execStore(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	size := 1 << (ins.Op - isa.OpSt1)
	va := ctx.Reg(ins.Rd) + uint64(ins.Imm)
	if _, err := c.wordVirt(p, va, size, true, ctx.Reg(ins.Rs)); err != nil {
		return c.dataFault(p, err, va)
	}
	ctx.PC = next
	return nil
}

func execPush(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	sp := ctx.Reg(isa.SP) - 8
	if _, err := c.wordVirt(p, sp, 8, true, ctx.Reg(ins.Rs)); err != nil {
		return c.dataFault(p, err, sp)
	}
	ctx.SetReg(isa.SP, sp)
	ctx.PC = next
	return nil
}

func execPop(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	sp := ctx.Reg(isa.SP)
	v, err := c.wordVirt(p, sp, 8, false, 0)
	if err != nil {
		return c.dataFault(p, err, sp)
	}
	ctx.SetReg(ins.Rd, v)
	ctx.SetReg(isa.SP, sp+8)
	ctx.PC = next
	return nil
}

func execJmp(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	c.ctx.PC += uint64(ins.Imm)
	return nil
}

func execJmpr(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	c.ctx.PC = c.ctx.Reg(ins.Rs)
	return nil
}

func execBranch(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	if branchTaken(ins.Op, ctx.Reg(ins.Rs), ctx.Reg(ins.Rt)) {
		ctx.PC += uint64(ins.Imm)
		return nil
	}
	ctx.PC = next
	return nil
}

func execCall(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	ctx.SetReg(isa.RA, next)
	ctx.PC += uint64(ins.Imm)
	return nil
}

func execCallr(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	ctx.SetReg(isa.RA, next)
	ctx.PC = ctx.Reg(ins.Rs)
	return nil
}

func execRet(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	c.ctx.PC = c.ctx.Reg(isa.RA)
	return nil
}

func execNative(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	ctx := c.ctx
	fn, ok := c.cfg.Natives.lookup(ins.Imm)
	if !ok {
		return fmt.Errorf("cpu: %s: native #%d not registered (pc=%#x)", c, ins.Imm, ctx.PC)
	}
	// A native stub behaves as the whole function body: run it, then
	// return to the caller.
	if err := fn(p, c); err != nil {
		return err
	}
	if c.halted {
		return nil
	}
	ctx.PC = ctx.Reg(isa.RA)
	return nil
}

func execSys(c *Core, p *sim.Proc, ins isa.Instr, next uint64) error {
	if c.cfg.Sys == nil {
		return fmt.Errorf("cpu: %s: sys %d with no handler", c, ins.Imm)
	}
	c.ctx.PC = next // syscalls resume after the instruction by default
	return c.cfg.Sys(p, c, ins.Imm)
}

func branchTaken(op isa.Op, a, b uint64) bool {
	switch op {
	case isa.OpBeq:
		return a == b
	case isa.OpBne:
		return a != b
	case isa.OpBlt:
		return int64(a) < int64(b)
	case isa.OpBge:
		return int64(a) >= int64(b)
	case isa.OpBltu:
		return a < b
	case isa.OpBgeu:
		return a >= b
	}
	return false
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// deliver routes a synchronous fault through the handler.
func (c *Core) deliver(p *sim.Proc, f *Fault) error {
	c.faults++
	if c.cfg.Fault != nil {
		return c.cfg.Fault(p, c, f)
	}
	return f
}

// dataFault classifies a data-access error and delivers it.
func (c *Core) dataFault(p *sim.Proc, err error, va uint64) error {
	var f *Fault
	var nm *paging.NotMappedError
	switch {
	case errors.As(err, &f):
		// already classified (protection)
	case errors.As(err, &nm):
		f = &Fault{Kind: FaultDataNotMapped, ISA: c.cfg.ISA, VA: va, PC: c.ctx.PC, Err: err}
	default:
		f = &Fault{Kind: FaultMachineCheck, ISA: c.cfg.ISA, VA: va, PC: c.ctx.PC, Err: err}
	}
	return c.deliver(p, f)
}

// dataPiece starts a data access of want bytes at virtual address va:
// it translates va through the DMMU, checks write permission, and charges
// the access cost of the piece that fits on va's page. It returns that
// piece's physical address and length. Both access paths below take
// each page piece through it, so their virtual time and MMU/TLB counters
// are the same by construction.
func (c *Core) dataPiece(p *sim.Proc, va uint64, want int, write bool) (uint64, int, error) {
	r, err := c.cfg.DMMU.Translate(p, va)
	if err != nil {
		return 0, 0, err
	}
	if write && !r.Flags.Writable {
		return 0, 0, &Fault{Kind: FaultDataProtection, ISA: c.cfg.ISA, VA: va, PC: c.ctx.PC}
	}
	n := want
	if pageRemain := r.PageSize - (va & (r.PageSize - 1)); uint64(n) > pageRemain {
		n = int(pageRemain)
	}
	if c.cfg.AccessCost != nil {
		p.Sleep(c.cfg.AccessCost(r.Phys, n, write))
	}
	return r.Phys, n, nil
}

// accessVirt reads (or writes) len(buf) bytes at virtual address va,
// charging translation and access costs; accesses may straddle page
// boundaries. It is the byte-slice path behind ReadVirt/WriteVirt.
func (c *Core) accessVirt(p *sim.Proc, va uint64, buf []byte, write bool) error {
	for len(buf) > 0 {
		pa, n, err := c.dataPiece(p, va, len(buf), write)
		if err != nil {
			return err
		}
		if write {
			err = c.cfg.Phys.Write(pa, buf[:n])
		} else {
			err = c.cfg.Phys.Read(pa, buf[:n])
		}
		if err != nil {
			return err
		}
		buf = buf[n:]
		va += uint64(n)
	}
	return nil
}

// wordVirt is accessVirt for one size-byte (1..8) little-endian word held
// in a register instead of a buffer: it returns the loaded value, or
// stores v. Every interpreter load/store and native word accessor runs
// through it. With no buffer to hand the Device interface it allocates
// nothing. A page-straddling word carries on from the translation it
// already has into the next page, exactly as accessVirt does.
func (c *Core) wordVirt(p *sim.Proc, va uint64, size int, write bool, v uint64) (uint64, error) {
	if out, ok := c.frameWord(p, va, size, write, v); ok {
		return out, nil
	}
	var out uint64
	for shift := 0; size > 0; {
		pa, n, err := c.dataPiece(p, va, size, write)
		if err != nil {
			return 0, err
		}
		if write {
			err = c.cfg.Phys.Store(pa, n, v>>shift)
		} else {
			var w uint64
			w, err = c.cfg.Phys.Load(pa, n)
			out |= w << shift
		}
		if err != nil {
			return 0, err
		}
		size -= n
		va += uint64(n)
		shift += 8 * n
	}
	return out, nil
}

// frameSlots sizes the data-frame memo (Core.frames), a direct-mapped
// table indexed by physical frame number modulo frameSlots.
const frameSlots = 512

// frameSlot is one data-frame memo entry: physical frame key-1 resolved
// to the granule that backs it. Key 0 marks an empty slot.
type frameSlot struct {
	key uint64
	mem.Frame
}

// frameWord is wordVirt's one-lookup path: it performs the access and
// returns true when the word lies inside one 4 KiB frame on both sides of
// the translation, the DMMU's last-translation window answers va (so a
// real Translate would take its fast path), the access needs no
// protection fault, and the frame memo resolves the physical frame to a
// materialized RAM granule (or ROM, for a load). It then does what
// dataPiece and Phys.Load/Store would: the same repeat-hit counters, the
// same AccessCost sleep, then the load or store in place. Otherwise it
// returns false having changed nothing, and wordVirt takes the general
// path. A memo entry never goes stale: mappings never move and a granule
// never moves once materialized. FLICKSIM_NOSUPERBLOCK disables the
// last-translation window, and with it this path.
func (c *Core) frameWord(p *sim.Proc, va uint64, size int, write bool, v uint64) (uint64, bool) {
	if va%mem.FrameSize+uint64(size) > mem.FrameSize {
		return 0, false
	}
	pa, flags, ok := c.cfg.DMMU.RepeatPeek(va)
	if !ok || write && !flags.Writable {
		return 0, false
	}
	in := pa % mem.FrameSize
	if in+uint64(size) > mem.FrameSize {
		return 0, false
	}
	key := pa/mem.FrameSize + 1
	if c.frames == nil {
		c.frames = new([frameSlots]frameSlot)
	}
	e := &c.frames[key%frameSlots]
	if e.key != key {
		f, ok := c.cfg.Phys.Frame(pa)
		if !ok {
			return 0, false
		}
		*e = frameSlot{key: key, Frame: f}
	}
	if write && e.ROM {
		return 0, false
	}
	// Copy the entry: the sleep below may run code that refills the slot.
	f := e.Frame
	c.cfg.DMMU.CountRepeatHit()
	if c.cfg.AccessCost != nil {
		p.Sleep(c.cfg.AccessCost(pa, size, write))
	}
	if write {
		f.Store(in, size, v)
		return 0, true
	}
	return f.Load(in, size), true
}

// ReadVirt exposes timed virtual-memory reads to native functions.
func (c *Core) ReadVirt(p *sim.Proc, va uint64, buf []byte) error {
	return c.accessVirt(p, va, buf, false)
}

// WriteVirt exposes timed virtual-memory writes to native functions.
func (c *Core) WriteVirt(p *sim.Proc, va uint64, buf []byte) error {
	return c.accessVirt(p, va, buf, true)
}

// ReadU64Virt reads a 64-bit little-endian word at va with timing.
func (c *Core) ReadU64Virt(p *sim.Proc, va uint64) (uint64, error) {
	return c.wordVirt(p, va, 8, false, 0)
}

// WriteU64Virt writes a 64-bit little-endian word at va with timing.
func (c *Core) WriteU64Virt(p *sim.Proc, va, v uint64) error {
	_, err := c.wordVirt(p, va, 8, true, v)
	return err
}

// ReadU8Virt reads one byte at va with timing.
func (c *Core) ReadU8Virt(p *sim.Proc, va uint64) (uint8, error) {
	v, err := c.wordVirt(p, va, 1, false, 0)
	return uint8(v), err
}

// WriteU8Virt writes one byte at va with timing.
func (c *Core) WriteU8Virt(p *sim.Proc, va uint64, v uint8) error {
	_, err := c.wordVirt(p, va, 1, true, uint64(v))
	return err
}

// ChargeCycles lets native functions account for their simulated work.
func (c *Core) ChargeCycles(p *sim.Proc, n int) { c.charge(p, n) }

// CycleTime returns the core's clock period.
func (c *Core) CycleTime() sim.Duration { return c.cfg.CycleTime }
