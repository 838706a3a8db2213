package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// sleepThenRef is SleepThen's documented meaning, written with plain
// Sleeps: the reference the continuation must reproduce event for event.
func sleepThenRef(p *Proc, d Duration, step func() (Duration, bool)) {
	for more := true; more; d, more = step() {
		p.Sleep(d)
	}
}

// stRecord is one observation of a randomized schedule: who did what, at
// which virtual time, with which scheduler sequence number. Matching
// sequence numbers prove every event was enqueued in the same order with
// the same (at, seq) key, not merely at the same times.
type stRecord struct {
	at   Time
	seq  uint64
	who  string
	what string
}

// stScenario runs one seeded random schedule: "stepper" processes that
// alternate between SleepThen runs and body-side work (sleeps, waits,
// signals), against competing processes and timers that sleep, signal
// and wait with timeouts. Durations are drawn from a coarse grid so
// wakeups tie often and the seq tie-break is exercised. The run is cut
// into random RunUntil slices before a final Run. sleepThen selects the
// primitive under test.
func stScenario(seed int64, sleepThen func(*Proc, Duration, func() (Duration, bool))) ([]stRecord, uint64) {
	env := NewEnv()
	var log []stRecord
	rec := func(who, what string) {
		log = append(log, stRecord{at: env.Now(), seq: env.seq, who: who, what: what})
	}
	setup := rand.New(rand.NewSource(seed))
	grid := func(r *rand.Rand) Duration {
		if r.Intn(5) == 0 {
			return 0
		}
		return Duration(r.Intn(8)) * 10 * Nanosecond
	}
	conds := []*Cond{env.NewCond("c0"), env.NewCond("c1")}

	nSteppers := 1 + setup.Intn(3)
	for i := range nSteppers {
		name := fmt.Sprintf("stepper%d", i)
		r := rand.New(rand.NewSource(setup.Int63()))
		rounds := 3 + r.Intn(6)
		env.Spawn(name, func(p *Proc) {
			defer rec(name, "exit")
			for round := range rounds {
				steps := 0
				sleepThen(p, grid(r), func() (Duration, bool) {
					steps++
					rec(name, fmt.Sprintf("step %d.%d", round, steps))
					if r.Intn(8) == 0 {
						return 0, false
					}
					return grid(r), true
				})
				rec(name, fmt.Sprintf("body %d", round))
				switch r.Intn(4) {
				case 0:
					p.Sleep(grid(r))
				case 1:
					conds[r.Intn(len(conds))].Signal()
				case 2:
					c := conds[r.Intn(len(conds))]
					woke := p.WaitForTimeout(c, grid(r)+Nanosecond, func() bool { return false })
					rec(name, fmt.Sprintf("wait %v", woke))
				default:
					p.Yield()
				}
			}
		})
	}
	nOthers := 1 + setup.Intn(3)
	for i := range nOthers {
		name := fmt.Sprintf("other%d", i)
		r := rand.New(rand.NewSource(setup.Int63()))
		iters := 5 + r.Intn(20)
		env.Spawn(name, func(p *Proc) {
			for k := range iters {
				p.Sleep(grid(r))
				switch r.Intn(5) {
				case 0:
					conds[r.Intn(len(conds))].Broadcast()
					rec(name, "broadcast")
				case 1:
					env.AfterFunc(grid(r), func() { rec(name, fmt.Sprintf("timer %d", k)) })
				case 2:
					c := conds[r.Intn(len(conds))]
					woke := p.WaitForTimeout(c, grid(r)+Nanosecond, func() bool { return false })
					rec(name, fmt.Sprintf("wait %v", woke))
				default:
					rec(name, "tick")
				}
			}
		})
	}
	for deadline := Time(0); env.queue.Len() > 0 && setup.Intn(6) != 0; {
		deadline = deadline.Add(Duration(setup.Intn(40)) * 5 * Nanosecond)
		env.RunUntil(deadline)
		rec("loop", "deadline")
	}
	env.Run()
	rec("loop", "end")
	return log, env.Handoffs()
}

// TestSleepThenMatchesSleepLoop checks the continuation against the
// reference Sleep loop over random schedules: every recorded event —
// process steps, body work, timers, RunUntil stops — must agree on time,
// order and scheduler sequence number, both with the in-place fast path
// and under FLICKSIM_NOSUPERBLOCK. The continuation must also never need
// more coroutine switches than the loop it replaces.
func TestSleepThenMatchesSleepLoop(t *testing.T) {
	for _, noFast := range []bool{false, true} {
		t.Run(fmt.Sprintf("nofast=%v", noFast), func(t *testing.T) {
			if noFast {
				t.Setenv("FLICKSIM_NOSUPERBLOCK", "1")
			}
			var saved uint64
			for seed := int64(1); seed <= 300; seed++ {
				want, refSwitches := stScenario(seed, sleepThenRef)
				got, switches := stScenario(seed, (*Proc).SleepThen)
				if i := firstDiff(want, got); i >= 0 {
					t.Fatalf("seed %d: schedules diverge at record %d:\nref:  %s\ncont: %s",
						seed, i, recAt(want, i), recAt(got, i))
				}
				if switches > refSwitches {
					t.Fatalf("seed %d: %d coroutine switches, the Sleep loop needs only %d", seed, switches, refSwitches)
				}
				saved += refSwitches - switches
			}
			if saved == 0 {
				t.Error("the continuation never saved a coroutine switch")
			}
		})
	}
}

func firstDiff(a, b []stRecord) int {
	for i := range max(len(a), len(b)) {
		if i >= len(a) || i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return -1
}

func recAt(log []stRecord, i int) string {
	if i >= len(log) {
		return "<end>"
	}
	return fmt.Sprintf("%+v", log[i])
}

// TestSleepThenRunsStepsInLoop pins the mechanism: with another process
// always due first, every one of the 100 sleeps parks, yet the steps run
// from the event loop and the body is switched back in only once, when
// the steps end — 99 fewer switches than the Sleep loop.
func TestSleepThenRunsStepsInLoop(t *testing.T) {
	run := func(sleepThen func(*Proc, Duration, func() (Duration, bool))) ([]Time, uint64) {
		env := NewEnv()
		env.Spawn("ticker", func(p *Proc) {
			for range 200 {
				p.Sleep(Nanosecond)
			}
		})
		var times []Time
		env.Spawn("stepper", func(p *Proc) {
			n := 0
			sleepThen(p, Nanosecond, func() (Duration, bool) {
				times = append(times, p.Now())
				n++
				return Nanosecond, n < 100
			})
			times = append(times, p.Now())
		})
		env.Run()
		return times, env.Handoffs()
	}
	times, switches := run((*Proc).SleepThen)
	if len(times) != 101 || times[0] != Time(Nanosecond) || times[99] != Time(100*Nanosecond) || times[100] != times[99] {
		t.Fatalf("step times %v", times)
	}
	refTimes, refSwitches := run(sleepThenRef)
	if !slices.Equal(times, refTimes) {
		t.Fatalf("step times %v, the Sleep loop gives %v", times, refTimes)
	}
	if refSwitches-switches != 99 {
		t.Errorf("%d coroutine switches against the Sleep loop's %d, want 99 fewer", switches, refSwitches)
	}
}

// TestCloseWithPendingContinuation stops a process whose continuation is
// parked in the queue: its body must unwind (deferred calls run), the
// continuation must never be called again, and Close must stay
// idempotent.
func TestCloseWithPendingContinuation(t *testing.T) {
	env := NewEnv()
	steps, unwound, returned := 0, false, false
	env.Spawn("other", func(p *Proc) {
		for {
			p.Sleep(Nanosecond)
		}
	})
	env.Spawn("stepper", func(p *Proc) {
		defer func() { unwound = true }()
		p.SleepThen(Nanosecond, func() (Duration, bool) {
			steps++
			return 10 * Nanosecond, true
		})
		returned = true
	})
	env.RunUntil(Time(25 * Nanosecond))
	if steps != 3 {
		t.Fatalf("%d steps by 25ns, want 3 (at 1, 11 and 21ns)", steps)
	}
	env.Close()
	env.Close()
	if !unwound || returned {
		t.Errorf("unwound=%v returned=%v, want the body unwound without returning", unwound, returned)
	}
	if steps != 3 {
		t.Errorf("%d steps after Close, want 3", steps)
	}
	for _, p := range env.procs {
		if p.cont != nil {
			t.Errorf("%s still holds a continuation after Close", p.name)
		}
	}
	if slices.ContainsFunc(env.procs, func(p *Proc) bool { return p.next != nil }) {
		t.Error("a coroutine survived Close")
	}
}
