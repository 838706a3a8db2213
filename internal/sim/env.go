package sim

import (
	"errors"
	"fmt"
	"iter"
	"math"
	"os"
	"sort"
)

// FastPathsDisabled reports whether the FLICKSIM_NOSUPERBLOCK escape hatch
// is set. It disables every wall-clock fast path in the simulator (the
// in-place Sleep advance here, the superblock cache in internal/cpu, the
// last-translation cache in internal/mmu) so CI can prove the optimized
// and unoptimized paths produce byte-identical artifacts. Read at
// construction time (NewEnv, cpu.New, mmu.New), never per step, so tests
// can flip it with t.Setenv.
func FastPathsDisabled() bool { return os.Getenv("FLICKSIM_NOSUPERBLOCK") != "" }

// Env is a discrete-event simulation environment. Processes are spawned
// with Spawn and advance virtual time with Proc.Sleep, Proc.Wait, and
// related primitives. Run drives the simulation until no runnable work
// remains or a stop condition fires.
//
// Every process body runs as an iter.Pull coroutine: the event loop
// resumes it with next() and Sleep/Wait hand control back by yielding, so
// exactly one body executes at a time and the simulation is fully
// deterministic. A coroutine switch is a direct handoff between the event
// loop and the body, with no scheduler wakeup and no channel.
type Env struct {
	now     Time
	seq     uint64
	queue   eventQueue
	procs   []*Proc
	running int // processes spawned and not yet finished

	// horizon bounds the in-place Sleep fast path: RunUntil sets it to its
	// deadline so a fast-forwarding process cannot advance the clock past
	// the point where the event loop must stop. Run resets it to maxTime.
	horizon Time
	noFast  bool // FLICKSIM_NOSUPERBLOCK: force every Sleep through the queue

	// handoffs counts coroutine resumptions (event-loop → body switches).
	// Test-only visibility, like cpu.Core.SuperblockStats: deliberately
	// not a registered metric, so the metrics JSON does not depend on how
	// many switches the engine needed.
	handoffs uint64

	trace   *Trace
	metrics *Metrics
}

// maxTime is the largest representable virtual time, used as the "no
// deadline" horizon for the Sleep fast path.
const maxTime = Time(math.MaxInt64)

// EnvOption configures a new environment.
type EnvOption func(*Env)

// WithTraceCapacity bounds the environment's event trace at capacity
// events (0 disables recording; events past the bound are counted as
// drops, never silently lost).
func WithTraceCapacity(capacity int) EnvOption {
	return func(e *Env) { e.trace = NewTrace(capacity) }
}

// NewEnv creates an empty simulation environment at time zero. Without
// options the trace has capacity zero (recording off); the metrics
// registry always exists so components can register unconditionally.
func NewEnv(opts ...EnvOption) *Env {
	e := &Env{
		trace:   NewTrace(0),
		metrics: NewMetrics(),
		horizon: maxTime,
		noFast:  FastPathsDisabled(),
	}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Trace returns the environment's event trace.
func (e *Env) Trace() *Trace { return e.trace }

// Metrics returns the environment's metrics registry.
func (e *Env) Metrics() *Metrics { return e.metrics }

// SetTrace replaces the environment's trace (e.g. to bound its capacity or
// enable recording). A nil trace disables recording entirely.
func (e *Env) SetTrace(t *Trace) {
	if t == nil {
		t = NewTrace(0)
	}
	e.trace = t
}

// SetTraceCap replaces the trace with a fresh one bounded at capacity
// events. Previously recorded events are discarded.
func (e *Env) SetTraceCap(capacity int) { e.trace = NewTrace(capacity) }

// Emit records ev in the trace, stamping it with the current virtual time.
// When tracing is disabled this is a single branch; callers on hot paths
// may still want to guard expensive payload construction with
// Trace().Enabled().
func (e *Env) Emit(ev Event) {
	if !e.trace.Enabled() {
		return
	}
	ev.At = e.now
	e.trace.Add(ev)
}

// Report assembles the environment's observability data: the final metrics
// snapshot plus the recorded event trace.
func (e *Env) Report() Report {
	return Report{
		Metrics:  e.metrics.Snapshot(),
		Events:   e.trace.Events(),
		Dropped:  e.trace.Dropped(),
		Handoffs: e.handoffs,
	}
}

// event is a scheduled resumption of a process, or a timer expiry when
// timer is non-nil.
type event struct {
	at    Time
	seq   uint64
	proc  *Proc
	timer *Timer
}

// procState tracks where a process is in its lifecycle.
type procState int

const (
	stateNew procState = iota
	stateRunnable
	stateRunning
	stateBlocked
	stateDone
)

// Proc is a simulated process: a coroutine whose execution is interleaved
// deterministically with all other processes in the same Env. All methods
// must be called from within the process's own body function.
type Proc struct {
	env    *Env
	name   string
	state  procState
	body   func(*Proc) // set until the first dispatch starts the coroutine
	daemon bool

	// The coroutine, live from the first dispatch until the body returns
	// or Env.Close stops it: the event loop resumes the body with next,
	// and the body hands control back through yield.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool

	// cont is the continuation SleepThen handed the event loop: while set,
	// the loop calls it at each of the process's wakeups instead of
	// resuming the body.
	cont func() (Duration, bool)

	// waitOn is the condition this process is blocked on, if any.
	waitOn *Cond
}

// Name returns the process name given at Spawn time.
func (p *Proc) Name() string { return p.name }

// SetDaemon flips the process's daemon flag at runtime. Service loops that
// alternate between idling for work (daemon: an idle engine is not a
// deadlock) and executing a task on behalf of a client (non-daemon: a task
// stuck mid-protocol must surface in Deadlocked) toggle this around the
// task-execution window.
func (p *Proc) SetDaemon(v bool) { p.daemon = v }

// Env returns the environment the process belongs to.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Spawn registers a new process that starts at the current virtual time.
// The body runs as a coroutine, created at its first dispatch, and only
// while the event loop has handed it control. Spawn may be called before
// Run or from inside a running process.
func (e *Env) Spawn(name string, body func(*Proc)) *Proc {
	p := &Proc{
		env:   e,
		name:  name,
		state: stateNew,
		body:  body,
	}
	e.procs = append(e.procs, p)
	e.running++
	e.schedule(p, e.now)
	return p
}

// SpawnDaemon registers a service process (device engine, scheduler loop)
// that is expected to idle forever waiting for work. Daemons are excluded
// from Deadlocked reports.
func (e *Env) SpawnDaemon(name string, body func(*Proc)) *Proc {
	p := e.Spawn(name, body)
	p.daemon = true
	return p
}

// schedule enqueues a resumption of p at time t.
func (e *Env) schedule(p *Proc, t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling %q in the past (%v < %v)", p.name, t, e.now))
	}
	e.seq++
	e.queue.Push(event{at: t, seq: e.seq, proc: p})
	if p.state != stateNew {
		p.state = stateRunnable
	}
}

// errClosed unwinds a process body whose coroutine Env.Close stopped. The
// coroutine wrapper recovers it; it never escapes the package.
var errClosed = errors.New("sim: environment closed")

// start creates the process's coroutine. The wrapper's deferred bookkeeping
// runs whether the body returns or panics; a panic other than errClosed
// is re-raised, and iter.Pull re-raises it from next() on the event
// loop's goroutine with its original value.
func (p *Proc) start() {
	body := p.body
	p.body = nil
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			p.state = stateDone
			p.env.running--
			if r := recover(); r != nil && r != errClosed {
				panic(r)
			}
		}()
		body(p)
	})
}

// step starts or resumes a process and returns when it yields or finishes.
func (e *Env) step(ev event) {
	p := ev.proc
	// A process can have stale queue entries (e.g. it was woken by Signal
	// before its Sleep timer fired): a finished process, or one that has
	// re-blocked on a condition, ignores them.
	if p.state == stateDone || p.state == stateBlocked {
		return
	}
	e.now = ev.at
	p.state = stateRunning
	if p.cont != nil && p.drive() {
		return
	}
	if p.next == nil {
		p.start()
	}
	e.handoffs++
	if _, ok := p.next(); !ok {
		// The body returned; drop the coroutine so it can be collected.
		p.next, p.stop, p.yield = nil, nil, nil
	}
}

// handoff cedes control from the running body back to the event loop and
// returns when the loop resumes it. A false yield means Env.Close stopped
// the coroutine: the body unwinds through errClosed, running its deferred
// calls on the way out.
func (p *Proc) handoff() {
	if !p.yield(struct{}{}) {
		panic(errClosed)
	}
}

// drive runs p's continuation in the scheduler's context, as a timer
// callback runs, at one of p's wakeups. Each sleep the continuation asks
// for goes through the same in-place check and schedule call as Sleep, so
// it advances the clock or parks with exactly the (at, seq) the body's
// own Sleep would have used. drive reports whether p re-parked; false
// means the continuation finished and the body must be resumed.
func (p *Proc) drive() bool {
	for {
		d, more := p.cont()
		if !more {
			p.cont = nil
			return false
		}
		if !p.TrySleepInPlace(d) {
			p.env.schedule(p, p.env.now.Add(max(d, 0)))
			return true
		}
	}
}

// Handoffs returns how many times the event loop has switched into a
// process body (each start or resumption of a coroutine). Test-only
// visibility, never registered as a metric.
func (e *Env) Handoffs() uint64 { return e.handoffs }

// Close releases every process that has not finished: each suspended
// coroutine is stopped and its body unwound, and processes never
// dispatched are dropped. Call it when the simulation is done with the
// environment (a finished machine's daemons idle forever otherwise, each
// holding a goroutine and everything its body references). The
// environment must not be run again afterwards. Close is idempotent.
func (e *Env) Close() {
	for _, p := range e.procs {
		p.body = nil
		p.cont = nil
		if stop := p.stop; stop != nil {
			p.next, p.stop, p.yield = nil, nil, nil
			stop()
		}
	}
}

// dispatch routes one popped event: timer expiries run their callback in
// the scheduler's context; process resumptions go through step. A stopped
// timer is skipped without advancing the clock, so canceled timeouts never
// stretch the simulated end time.
func (e *Env) dispatch(ev event) {
	if ev.timer != nil {
		t := ev.timer
		if t.stopped {
			return
		}
		e.now = ev.at
		t.fired = true
		t.fn()
		return
	}
	e.step(ev)
}

// Run processes events until the queue is empty. It returns the final
// virtual time. If processes remain blocked on conditions that nothing can
// signal, Run returns anyway (the processes are abandoned); use Deadlocked
// to inspect that state.
func (e *Env) Run() Time {
	e.horizon = maxTime
	for e.queue.Len() > 0 {
		e.dispatch(e.queue.Pop())
	}
	return e.now
}

// RunUntil processes events with timestamps <= deadline and then stops,
// setting the clock to the deadline if it ran dry earlier.
func (e *Env) RunUntil(deadline Time) Time {
	e.horizon = deadline
	for e.queue.Len() > 0 && e.queue.Head().at <= deadline {
		e.dispatch(e.queue.Pop())
	}
	if e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// Timer is a pending AfterFunc callback. Stop cancels it; a stopped timer
// is skipped by the event loop without advancing the virtual clock.
type Timer struct {
	fn      func()
	stopped bool
	fired   bool
}

// Stop cancels the timer, reporting whether it was still pending. Stopping
// an already-fired or already-stopped timer is a no-op returning false.
func (t *Timer) Stop() bool {
	if t.fired || t.stopped {
		return false
	}
	t.stopped = true
	return true
}

// AfterFunc schedules fn to run once, d from now, in the scheduler's
// context (fn may Signal conditions, schedule processes, or Spawn, but has
// no process of its own and must not sleep). The returned Timer cancels
// the callback via Stop.
func (e *Env) AfterFunc(d Duration, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	t := &Timer{fn: fn}
	e.seq++
	e.queue.Push(event{at: e.now.Add(d), seq: e.seq, timer: t})
	return t
}

// Deadlocked reports the names of processes that are still blocked after
// Run returned. An empty result means every process ran to completion.
func (e *Env) Deadlocked() []string {
	var stuck []string
	for _, p := range e.procs {
		if p.state == stateBlocked && !p.daemon {
			stuck = append(stuck, p.name)
		}
	}
	sort.Strings(stuck)
	return stuck
}

// Sleep suspends the process for d of virtual time. Negative durations are
// treated as zero (a pure yield to same-time events scheduled earlier).
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	e := p.env
	t := e.now.Add(d)
	// Fast path: if no other event can possibly run before t (the queue is
	// empty, or its earliest event is strictly later — a tie would win on
	// seq), handing control to the scheduler would immediately hand it
	// back to this process with the clock at t. Skip the coroutine round
	// trip and advance the clock in place. Observable behavior —
	// event order, virtual timestamps, metrics, traces — is identical; a
	// running process is never in the queue, so nothing else can observe
	// the intermediate state. The horizon check keeps RunUntil exact: a
	// sleep crossing the deadline must park in the queue so the loop stops.
	if !e.noFast && t <= e.horizon {
		if h := e.queue.Head(); h == nil || t < h.at {
			e.now = t
			return
		}
	}
	e.schedule(p, t)
	p.handoff()
}

// SleepThen sleeps for d and then calls step; while step asks for another
// sleep (more true) it sleeps for the returned duration and calls step
// again, and it returns once step reports more false. Observably it is
// exactly
//
//	for { p.Sleep(d); if d, more = step(); !more { return } }
//
// but a sleep that must park hands step to the event loop instead of
// switching out of the body: the loop calls step in its own context at
// each of the process's wakeups (as it runs AfterFunc callbacks) and
// re-parks it through the same in-place check and schedule call Sleep
// uses, so every wakeup keeps its exact (at, seq). The body resumes only
// once step is done — a run of parked sleeps costs queue operations, not
// coroutine switches. step must not sleep, wait, or otherwise block: it
// runs with no coroutine of its own.
func (p *Proc) SleepThen(d Duration, step func() (Duration, bool)) {
	for p.TrySleepInPlace(d) {
		var more bool
		if d, more = step(); !more {
			return
		}
	}
	p.cont = step
	p.env.schedule(p, p.env.now.Add(max(d, 0)))
	p.handoff()
}

// Yield cedes control so that other processes scheduled at the current
// time can run before this one continues.
func (p *Proc) Yield() { p.Sleep(0) }

// TrySleepInPlace advances the clock by d if and only if the Sleep fast
// path would apply — no queued event could run before the target time and
// the RunUntil horizon is not crossed. It reports whether the advance
// happened; on false the clock is untouched and the caller must fall back
// to per-step Sleep calls. This lets a batch executor charge one merged
// duration exactly when each constituent Sleep would also have taken the
// in-place path, i.e. when merging is observationally invisible. It never
// blocks, so a SleepThen step may call it.
func (p *Proc) TrySleepInPlace(d Duration) bool {
	if d < 0 {
		d = 0
	}
	e := p.env
	t := e.now.Add(d)
	if !e.noFast && t <= e.horizon {
		if h := e.queue.Head(); h == nil || t < h.at {
			e.now = t
			return true
		}
	}
	return false
}

// Cond is a waitable condition. Processes block on it with Proc.Wait and
// are released in FIFO order by Signal or Broadcast. Unlike sync.Cond there
// is no associated lock: the simulation's single-runner guarantee makes
// explicit locking unnecessary.
type Cond struct {
	env     *Env
	name    string
	waiters []*Proc
}

// NewCond creates a condition bound to the environment.
func (e *Env) NewCond(name string) *Cond {
	return &Cond{env: e, name: name}
}

// Wait blocks the process until the condition is signaled.
func (p *Proc) Wait(c *Cond) {
	if c.env != p.env {
		panic("sim: Wait on a Cond from a different Env")
	}
	c.waiters = append(c.waiters, p)
	p.state = stateBlocked
	p.waitOn = c
	p.handoff()
	p.waitOn = nil
}

// WaitFor blocks until pred() is true, re-checking each time the condition
// is signaled. The predicate is evaluated before the first wait, so a
// condition that is already true never blocks.
func (p *Proc) WaitFor(c *Cond, pred func() bool) {
	for !pred() {
		p.Wait(c)
	}
}

// WaitForTimeout is WaitFor with a deadline: it blocks until pred() is
// true (returning true) or until d of virtual time has passed without the
// predicate becoming true (returning false). On the success path the
// internal timer is stopped, so a satisfied wait never stretches the
// simulation's end time.
func (p *Proc) WaitForTimeout(c *Cond, d Duration, pred func() bool) bool {
	if pred() {
		return true
	}
	timedOut := false
	t := p.env.AfterFunc(d, func() {
		// Only interrupt the wait if the process is still parked on the
		// condition; if a Signal got there first this expiry is moot.
		if c.remove(p) {
			timedOut = true
			p.env.schedule(p, p.env.now)
		}
	})
	for {
		p.Wait(c)
		if pred() {
			t.Stop()
			return true
		}
		if timedOut {
			return false
		}
	}
}

// Signal wakes the longest-waiting process, if any. The woken process is
// scheduled at the current time, after events already queued for now.
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	p := c.waiters[0]
	c.waiters = c.waiters[1:]
	c.env.schedule(p, c.env.now)
}

// Broadcast wakes every waiting process in FIFO order.
func (c *Cond) Broadcast() {
	ws := c.waiters
	c.waiters = nil
	for _, p := range ws {
		c.env.schedule(p, c.env.now)
	}
}

// Waiters returns the number of processes currently blocked on c.
func (c *Cond) Waiters() int { return len(c.waiters) }

// remove takes p off the wait list without scheduling it, reporting
// whether it was present (the timeout path of WaitForTimeout).
func (c *Cond) remove(p *Proc) bool {
	for i, w := range c.waiters {
		if w == p {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			return true
		}
	}
	return false
}
