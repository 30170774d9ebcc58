//go:build go1.23

package sim

//fcclint:hotpath process switching is the hottest non-event path

import "iter"

// Proc is a cooperatively scheduled simulation process. Each Proc runs as
// a coroutine (iter.Pull): the engine resumes exactly one process at a
// time and blocks until that process either pauses (Sleep/Await/Suspend)
// or returns, so execution remains deterministic — processes are simply
// a more convenient notation for sequential model code (workload
// drivers, CPU threads, controller firmware) than chained callbacks.
//
// # Coroutine structure
//
// Resuming a process is next() on its coroutine and pausing is yield():
// the runtime switches directly between the two goroutines, with no
// scheduler pass and no OS wakeup, whatever GOMAXPROCS is. Every resume
// is a blocking call that returns when the process pauses or finishes,
// and every resumer takes the same path: the dispatch loop, event
// context (a Future completion, a Suspend wake, Step) and another
// process resuming a peer nested inside its own body. Nesting is plain
// call-stack discipline, so event and model execution order are exactly
// those of a single-threaded callback simulator.
//
// One case needs no switch at all: a process that the dispatch loop
// resumed, and whose own wake-up is the next pending event, consumes
// that event in place and keeps running (the BenchmarkProcSwitch
// steady state).
//
// A model panic inside a process body unwinds the coroutine and
// propagates out of next() to whoever resumed it, with its original
// value, up to the Run/Step caller.
type Proc struct {
	eng    *Engine
	name   string
	fn     func(p *Proc)
	r      *runner
	done   bool
	killed bool
}

// runner is the pooled coroutine a process executes on. Its sequence
// function runs one process body after another, parking at a yield
// between bodies, so a short-lived workload thread costs no coroutine
// construction when a finished runner is free. The pool is drained when
// Run returns, so idle engines hold no coroutines beyond genuinely
// suspended processes.
type runner struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	p     *Proc
	link  *runner // engine free list
}

func newRunner() *runner {
	r := &runner{}
	r.next, r.stop = iter.Pull(r.loop)
	return r
}

// loop is the runner's sequence function: run the bound body, return to
// the pool (finish), pause, and start the next body bound to it. A stop
// from drainRunners makes the pool yield report false.
func (r *runner) loop(yield func(struct{}) bool) {
	r.yield = yield
	for {
		runBody(r.p)
		if !yield(struct{}{}) {
			return
		}
	}
}

// runBody executes one process body, unless the process was killed
// before it started, and retires the process when the body returns or
// unwinds from a Kill. Any other panic passes through untouched: the
// coroutine dies and the panic surfaces from the resumer's next().
func runBody(p *Proc) {
	if !p.killed {
		p.body()
	}
	p.finish()
}

func (p *Proc) body() {
	defer p.catchKill()
	p.fn(p)
}

// catchKill absorbs the procKilled unwind of a killed process.
func (p *Proc) catchKill() {
	if !p.killed {
		return
	}
	if rec := recover(); rec != nil {
		if _, ok := rec.(procKilled); !ok {
			panic(rec)
		}
	}
}

// Go starts fn as a new process at the current simulation time. The
// process body may call the blocking operations on Proc; it must never
// block on anything else (real channels, locks held across yields), or
// the simulation will deadlock.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name, fn: fn}
	e.procs++
	// The start is an ordinary proc-resume event, so start order at equal
	// timestamps follows Go-call order. The runner is bound lazily, when
	// the start event is dispatched.
	e.atProc(e.now, p)
	return p
}

// resume runs p until it pauses or finishes, binding a pooled (or new)
// runner on first resume. Resuming a finished process is a no-op: a
// Kill and a pending wake-up can race benignly.
func (p *Proc) resume() {
	if p.done {
		return
	}
	if p.r == nil {
		e := p.eng
		r := e.freeRunner
		if r != nil {
			e.freeRunner = r.link
			r.link = nil
		} else {
			r = newRunner()
			e.runnersMinted++
		}
		r.p = p
		p.r = r
	}
	p.r.next()
}

// finish retires a completed process: its runner returns to the engine
// pool, and the runner's loop then pauses back to the resumer.
func (p *Proc) finish() {
	e := p.eng
	p.done = true
	e.procs--
	r := p.r
	p.r = nil
	r.p = nil
	r.link = e.freeRunner
	e.freeRunner = r
}

type procKilled struct{}

// pause returns control to the resumer and returns when resumed — or
// consumes the process's own wake-up in place when the dispatch loop
// resumed it and that wake-up is the next pending event. Called from the
// process body only.
func (p *Proc) pause() {
	e := p.eng
	if e.driving != p || !e.takeOwnEvent(p) {
		p.r.yield(struct{}{})
	}
	if p.killed {
		panic(procKilled{})
	}
}

// drainRunners stops every pooled coroutine; called when Run returns so
// idle engines pin no goroutines beyond suspended processes.
func (e *Engine) drainRunners() {
	for r := e.freeRunner; r != nil; r = r.link {
		r.stop()
	}
	e.freeRunner = nil
}

// Name reports the name the process was started with.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process runs under.
func (p *Proc) Engine() *Engine { return p.eng }

// Now reports the current simulation time.
func (p *Proc) Now() Time { return p.eng.Now() }

// Done reports whether the process body has returned.
func (p *Proc) Done() bool { return p.done }

// Sleep suspends the process for d of virtual time, saturating at
// MaxTime (see SaturatingAdd). Negative d panics (via the past check in
// atProc).
func (p *Proc) Sleep(d Time) {
	p.eng.atProc(SaturatingAdd(p.eng.now, d), p)
	p.pause()
}

// Suspend parks the process until the wake function handed to arm is
// called from event context. arm runs in the process body before the
// park, so it can register wake as a completion callback without racing.
// If wake fires synchronously inside arm (the awaited condition already
// held), Suspend returns without parking. Waking twice panics.
func (p *Proc) Suspend(arm func(wake func())) {
	fired := false
	parked := false
	arm(func() {
		if fired {
			panic("sim: proc woken twice")
		}
		fired = true
		if parked {
			p.resume()
		}
	})
	if fired {
		if p.killed {
			panic(procKilled{})
		}
		return
	}
	parked = true
	p.pause()
}

// Kill aborts the process: the next time it would be resumed it unwinds
// instead, and a process killed before its start event never runs its
// body. A parked process is resumed immediately so it cannot linger
// forever. Kill must be called from event context (or another process),
// never from the victim itself.
func (p *Proc) Kill() {
	if p.done || p.killed {
		return
	}
	p.killed = true
	p.eng.atProc(p.eng.now, p)
}

// Yield lets other events scheduled at the current instant run before the
// process continues.
func (p *Proc) Yield() { p.Sleep(0) }
