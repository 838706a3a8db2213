package core_test

import (
	"testing"

	"flick"
	"flick/internal/kernel"
	"flick/internal/platform"
	"flick/internal/sim"
)

// ringSrc keeps one board busy with short calls from many host threads:
// main(calls, id) calls board_val(id, j) for j < calls and exits with the
// sum of the returns, id*1000+j each, so a return delivered to the wrong
// thread shows in its exit code.
const ringSrc = `
.func main isa=host
    mov  t4, a0          ; remaining calls
    mov  t3, a1          ; thread id
    movi t2, 0           ; j
    movi t5, 0           ; sum
l:
    mov  a0, t3
    mov  a1, t2
    call board_val
    add  t5, t5, a0
    addi t2, t2, 1
    addi t4, t4, -1
    bne  t4, zr, l
    mov  a0, t5
    sys  1
.endfunc

.func board_val isa=nxp
    movi t0, 1000
    mul  a0, a0, t0
    add  a0, a0, a1
    ret
.endfunc
`

func ringExit(id, calls int) uint64 {
	return uint64(calls*id*1000) + uint64(calls*(calls-1)/2)
}

// TestLostMSIKeepsReturnValues drops return interrupts while several
// threads have calls in flight on one board. A thread whose interrupt is
// lost waits out the migration timeout while the board keeps returning
// the other threads' calls, so its unconsumed descriptor must survive
// until the probe recovers it: every thread must exit with exactly its
// own sum.
//
//   - one drop: the board returns far more than the ring's 16 slots
//     while the dropped descriptor waits, so a staging ring that laps
//     unconsumed slots hands the dropped thread another's value;
//   - every thread's first return dropped, 15 threads (the board's stack
//     limit): nearly every slot holds an unconsumed descriptor at once,
//     so staging must skip them all and reuse only consumed ones.
func TestLostMSIKeepsReturnValues(t *testing.T) {
	for _, tc := range []struct {
		name    string
		threads int
		drop    func(seen map[int]bool, pid int) bool
	}{
		{"one", 6, func(seen map[int]bool, pid int) bool { return len(seen) == 0 }},
		{"every-first", 15, func(seen map[int]bool, pid int) bool { return !seen[pid] }},
	} {
		t.Run(tc.name, func(t *testing.T) { runLostMSI(t, tc.threads, tc.drop) })
	}
}

func runLostMSI(t *testing.T, threads int, drop func(seen map[int]bool, pid int) bool) {
	const calls = 12
	params := platform.DefaultParams()
	params.HostCores = threads
	// Injection on, nothing injected: the kernel arms its migration
	// timeout and probe, and the test drops interrupts itself.
	params.Faults = "msi.drop=0"
	sys, err := flick.Build(flick.Config{
		Params:  &params,
		Sources: map[string]string{"ring.fasm": ringSrc},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	seen := make(map[int]bool) // threads that had an interrupt dropped
	delivered := 0
	sys.Runtime.Mboxes[0].InterceptMSI(func(pid int, deliver func(int)) {
		if drop(seen, pid) {
			seen[pid] = true
			return
		}
		if len(seen) > 0 {
			delivered++
		}
		deliver(pid)
	})
	var started []*kernel.Task
	for id := range threads {
		task, err := sys.Start("main", calls, uint64(id))
		if err != nil {
			t.Fatal(err)
		}
		started = append(started, task)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered <= 16 {
		t.Fatalf("only %d returns arrived after the first drop; the test needs more than the ring's 16 slots", delivered)
	}
	if counter(sys, "migration.retries") == 0 {
		t.Error("migration.retries = 0: the lost interrupt was not recovered by the probe")
	}
	for id, task := range started {
		if task.Err != nil {
			t.Errorf("thread %d (pid %d): %v", id, task.PID, task.Err)
			continue
		}
		if want := ringExit(id, calls); task.ExitCode != want {
			t.Errorf("thread %d (pid %d, interrupt dropped: %v): exit %d, want %d",
				id, task.PID, seen[task.PID], task.ExitCode, want)
		}
	}
}

// TestFullReturnRingStallsBoard holds every return-ring slot with a
// descriptor nobody has consumed: the board must stall its return until
// the host frees a slot, then deliver the right value — never overwrite
// a held slot and never give up.
func TestFullReturnRingStallsBoard(t *testing.T) {
	params := platform.DefaultParams()
	sys, err := flick.Build(flick.Config{
		Params:  &params,
		Sources: map[string]string{"ring.fasm": ringSrc},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	const phantom, stall = 999, 300 * sim.Microsecond
	mb := sys.Runtime.Mboxes[0]
	mb.HoldAllN2H(phantom)
	sys.Machine.Env.AfterFunc(stall, mb.ReleaseAllN2H)
	task, err := sys.Start("main", 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	end, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if task.Err != nil {
		t.Fatal(task.Err)
	}
	if want := ringExit(7, 3); task.ExitCode != want {
		t.Errorf("exit %d, want %d", task.ExitCode, want)
	}
	if end.Duration() < stall {
		t.Errorf("finished at %v, before the ring was freed at %v", end.Duration(), stall)
	}
}

// TestFailedBoardCallsFreeReturnSlots fails more board calls than the
// return ring has slots. A failed call still ships its return descriptor;
// the host handler that gives up on the call must consume it, or every
// failure would hold a slot forever and the board would stall once the
// ring filled.
func TestFailedBoardCallsFreeReturnSlots(t *testing.T) {
	const src = `
.func main isa=host
    call board_fail
    sys  1
.endfunc

.func board_fail isa=nxp
    ld8  a0, [zr+0]      ; unmapped: a fatal board fault
    ret
.endfunc
`
	const threads = 24 // more than the 16 return slots
	params := platform.DefaultParams()
	params.HostCores = 4
	sys, err := flick.Build(flick.Config{
		Params:  &params,
		Sources: map[string]string{"fail.fasm": src},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	var started []*kernel.Task
	for range threads {
		task, err := sys.Start("main")
		if err != nil {
			t.Fatal(err)
		}
		started = append(started, task)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	for i, task := range started {
		if task.State != kernel.TaskDone || task.Err == nil {
			t.Errorf("thread %d: state %v err %v, want done with the board fault", i, task.State, task.Err)
		}
	}
}
