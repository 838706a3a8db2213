package sim

import (
	"errors"
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

func TestSleepAdvancesClock(t *testing.T) {
	env := NewEnv()
	var woke Time
	env.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		woke = p.Now()
	})
	end := env.Run()
	if want := Time(5 * Microsecond); woke != want {
		t.Errorf("woke at %v, want %v", woke, want)
	}
	if end != woke {
		t.Errorf("Run returned %v, want %v", end, woke)
	}
}

func TestZeroAndNegativeSleep(t *testing.T) {
	env := NewEnv()
	var order []string
	env.Spawn("a", func(p *Proc) {
		p.Sleep(0)
		order = append(order, "a")
	})
	env.Spawn("b", func(p *Proc) {
		p.Sleep(-3)
		order = append(order, "b")
	})
	env.Run()
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Errorf("order = %v, want [a b]", order)
	}
	if env.Now() != 0 {
		t.Errorf("clock moved to %v on zero sleeps", env.Now())
	}
}

func TestDeterministicInterleaving(t *testing.T) {
	run := func() []string {
		env := NewEnv()
		var log []string
		for _, name := range []string{"p1", "p2", "p3"} {
			name := name
			env.Spawn(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					p.Sleep(1 * Nanosecond)
					log = append(log, name)
				}
			})
		}
		env.Run()
		return log
	}
	first := run()
	for i := 0; i < 10; i++ {
		if got := run(); len(got) != len(first) {
			t.Fatalf("run %d: length %d != %d", i, len(got), len(first))
		} else {
			for j := range got {
				if got[j] != first[j] {
					t.Fatalf("run %d: interleaving diverged at %d: %v vs %v", i, j, got, first)
				}
			}
		}
	}
}

func TestSameTimeFIFO(t *testing.T) {
	env := NewEnv()
	var order []int
	for i := 0; i < 8; i++ {
		i := i
		env.Spawn("p", func(p *Proc) {
			p.Sleep(10 * Nanosecond)
			order = append(order, i)
		})
	}
	env.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestCondSignalWakesFIFO(t *testing.T) {
	env := NewEnv()
	c := env.NewCond("c")
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		env.Spawn("waiter", func(p *Proc) {
			p.Wait(c)
			order = append(order, i)
		})
	}
	env.Spawn("signaler", func(p *Proc) {
		p.Sleep(1 * Microsecond)
		if c.Waiters() != 3 {
			t.Errorf("Waiters = %d, want 3", c.Waiters())
		}
		c.Signal()
		p.Sleep(1 * Microsecond)
		c.Broadcast()
	})
	env.Run()
	if len(order) != 3 {
		t.Fatalf("only %d waiters woke: %v", len(order), order)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("wake order not FIFO: %v", order)
		}
	}
	if stuck := env.Deadlocked(); len(stuck) != 0 {
		t.Errorf("deadlocked: %v", stuck)
	}
}

func TestWaitForPredicateAlreadyTrue(t *testing.T) {
	env := NewEnv()
	c := env.NewCond("c")
	done := false
	env.Spawn("p", func(p *Proc) {
		p.WaitFor(c, func() bool { return true })
		done = true
	})
	env.Run()
	if !done {
		t.Error("WaitFor blocked on an already-true predicate")
	}
}

func TestWaitForRechecks(t *testing.T) {
	env := NewEnv()
	c := env.NewCond("c")
	n := 0
	var sawAt Time
	env.Spawn("consumer", func(p *Proc) {
		p.WaitFor(c, func() bool { return n >= 3 })
		sawAt = p.Now()
	})
	env.Spawn("producer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(1 * Microsecond)
			n++
			c.Broadcast()
		}
	})
	env.Run()
	if want := Time(3 * Microsecond); sawAt != want {
		t.Errorf("consumer proceeded at %v, want %v", sawAt, want)
	}
}

func TestDeadlockDetection(t *testing.T) {
	env := NewEnv()
	c := env.NewCond("never")
	env.Spawn("stuck", func(p *Proc) { p.Wait(c) })
	env.Run()
	stuck := env.Deadlocked()
	if len(stuck) != 1 || stuck[0] != "stuck" {
		t.Errorf("Deadlocked = %v, want [stuck]", stuck)
	}
}

func TestRunUntil(t *testing.T) {
	env := NewEnv()
	ticks := 0
	env.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(1 * Microsecond)
			ticks++
		}
	})
	env.RunUntil(Time(10 * Microsecond))
	if ticks != 10 {
		t.Errorf("ticks = %d at deadline, want 10", ticks)
	}
	env.Run()
	if ticks != 100 {
		t.Errorf("ticks = %d after full run, want 100", ticks)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	env := NewEnv()
	env.RunUntil(Time(42 * Microsecond))
	if env.Now() != Time(42*Microsecond) {
		t.Errorf("Now = %v, want 42µs", env.Now())
	}
}

func TestSpawnFromRunningProcess(t *testing.T) {
	env := NewEnv()
	var childRan Time
	env.Spawn("parent", func(p *Proc) {
		p.Sleep(2 * Microsecond)
		env.Spawn("child", func(c *Proc) {
			c.Sleep(1 * Microsecond)
			childRan = c.Now()
		})
		p.Sleep(10 * Microsecond)
	})
	env.Run()
	if want := Time(3 * Microsecond); childRan != want {
		t.Errorf("child ran at %v, want %v", childRan, want)
	}
}

func TestProcessPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Error("panic in process did not propagate to Run")
		} else if r != "boom" {
			t.Errorf("panic value = %v, want boom", r)
		}
	}()
	env := NewEnv()
	env.Spawn("bomb", func(p *Proc) {
		p.Sleep(1 * Nanosecond)
		panic("boom")
	})
	env.Run()
}

// TestProcessPanicKeepsValue checks that a panic raised after the body
// has already handed control back and forth surfaces from Run with its
// original value (not a copy or a wrapper), and that the panicking process
// is retired rather than reported as deadlocked.
func TestProcessPanicKeepsValue(t *testing.T) {
	boom := errors.New("boom")
	env := NewEnv()
	c := env.NewCond("c")
	var bomb *Proc
	bomb = env.Spawn("bomb", func(p *Proc) {
		p.Wait(c)
		p.Sleep(1 * Nanosecond)
		panic(boom)
	})
	env.Spawn("signaler", func(p *Proc) {
		p.Sleep(5 * Nanosecond)
		c.Signal()
	})
	func() {
		defer func() {
			if r := recover(); r != boom {
				t.Errorf("Run panicked with %v, want the original error value", r)
			}
		}()
		env.Run()
	}()
	if bomb.state != stateDone {
		t.Errorf("panicked process left in state %v, want done", bomb.state)
	}
	if d := env.Deadlocked(); len(d) != 0 {
		t.Errorf("Deadlocked = %v after a panic, want none", d)
	}
}

// TestRunFromAnotherGoroutine drives an environment from goroutines other
// than the one that spawned its processes, as runner jobs do: processes
// are spawned on the test goroutine, the first stretch runs on one worker
// goroutine, and the coroutines it started are resumed to completion from
// a second one.
func TestRunFromAnotherGoroutine(t *testing.T) {
	env := NewEnv()
	c := env.NewCond("c")
	var log []Time
	env.Spawn("waiter", func(p *Proc) {
		p.Wait(c)
		log = append(log, p.Now())
	})
	env.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.Sleep(10 * Nanosecond)
			log = append(log, p.Now())
		}
		c.Signal()
	})
	run := func(fn func()) {
		done := make(chan struct{})
		go func() {
			defer close(done)
			fn()
		}()
		<-done
	}
	run(func() { env.RunUntil(Time(15 * Nanosecond)) })
	var end Time
	run(func() { end = env.Run() })
	want := []Time{10, 20, 30, 40, 40}
	for i := range want {
		want[i] *= Time(Nanosecond)
	}
	if len(log) != len(want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
	if end != Time(40*Nanosecond) {
		t.Errorf("Run returned %v, want 40ns", end)
	}
}

// TestCloseReleasesProcesses checks that Close unwinds every unfinished
// process — blocked daemons, sleepers parked past a RunUntil deadline, and
// processes never dispatched — running their deferred calls, and that the
// goroutines backing their coroutines are gone afterwards.
func TestCloseReleasesProcesses(t *testing.T) {
	before := runtime.NumGoroutine()
	unwound := 0
	for round := 0; round < 20; round++ {
		env := NewEnv()
		c := env.NewCond("work")
		for i := 0; i < 8; i++ {
			env.SpawnDaemon("engine", func(p *Proc) {
				defer func() { unwound++ }()
				for {
					p.Wait(c)
				}
			})
		}
		env.Spawn("sleeper", func(p *Proc) {
			defer func() { unwound++ }()
			p.Sleep(Second)
			t.Error("sleeper resumed past the RunUntil deadline")
		})
		env.RunUntil(Time(Microsecond))
		env.Spawn("never", func(p *Proc) { t.Error("undispatched process ran") })
		env.Close()
		env.Close() // idempotent
	}
	if want := 20 * 9; unwound != want {
		t.Errorf("%d deferred calls ran, want %d", unwound, want)
	}
	for i := 0; i < 100 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after Close", before, after)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	env := NewEnv()
	c := env.NewCond("c")
	_ = c
	defer func() {
		if recover() == nil {
			t.Error("expected panic when scheduling in the past")
		}
	}()
	env.Spawn("p", func(p *Proc) { p.Sleep(time1) })
	env.Run()
	// Force the clock forward, then manually schedule in the past.
	env.schedule(&Proc{env: env, name: "ghost", state: stateRunnable}, 0)
}

const time1 = 5 * Microsecond

func TestManyProcessesStress(t *testing.T) {
	env := NewEnv()
	const n = 500
	total := 0
	for i := 0; i < n; i++ {
		i := i
		env.Spawn("w", func(p *Proc) {
			p.Sleep(Duration(i) * Nanosecond)
			total++
		})
	}
	env.Run()
	if total != n {
		t.Errorf("total = %d, want %d", total, n)
	}
	if env.Now() != Time((n-1)*int(Nanosecond)) {
		t.Errorf("final time = %v", env.Now())
	}
}

func TestSleepMonotonicProperty(t *testing.T) {
	// Property: for any sequence of sleep durations, the observed wake
	// times are the prefix sums, and the clock never goes backward.
	f := func(raw []uint16) bool {
		env := NewEnv()
		var wakes []Time
		env.Spawn("p", func(p *Proc) {
			for _, d := range raw {
				p.Sleep(Duration(d) * Nanosecond)
				wakes = append(wakes, p.Now())
			}
		})
		env.Run()
		var sum Time
		for i, d := range raw {
			sum = sum.Add(Duration(d) * Nanosecond)
			if wakes[i] != sum {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestParallelEnvsAreIndependent(t *testing.T) {
	// Multiple Envs must be usable from different goroutines concurrently
	// (each Env is single-threaded internally, but Envs don't share state).
	t.Parallel()
	done := make(chan Time, 4)
	for i := 0; i < 4; i++ {
		go func() {
			env := NewEnv()
			env.Spawn("p", func(p *Proc) {
				for j := 0; j < 1000; j++ {
					p.Sleep(1 * Nanosecond)
				}
			})
			done <- env.Run()
		}()
	}
	for i := 0; i < 4; i++ {
		if got := <-done; got != Time(1000*Nanosecond) {
			t.Errorf("env finished at %v, want 1µs", got)
		}
	}
}
