package sim

import "testing"

func TestProcSleepAdvancesTime(t *testing.T) {
	e := NewEngine()
	var woke Time
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(100 * Nanosecond)
		woke = p.Now()
	})
	e.Run()
	if woke != 100*Nanosecond {
		t.Fatalf("woke at %v, want 100ns", woke)
	}
}

func TestProcSequentialSleeps(t *testing.T) {
	e := NewEngine()
	var marks []Time
	e.Go("p", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(10 * Nanosecond)
			marks = append(marks, p.Now())
		}
	})
	e.Run()
	if len(marks) != 5 || marks[4] != 50*Nanosecond {
		t.Fatalf("marks = %v", marks)
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var trace []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			e.Go(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					p.Sleep(7 * Nanosecond)
					trace = append(trace, name)
				}
			})
		}
		e.Run()
		return trace
	}
	first := run()
	for i := 0; i < 5; i++ {
		again := run()
		for j := range first {
			if first[j] != again[j] {
				t.Fatalf("run %d diverged: %v vs %v", i, first, again)
			}
		}
	}
	// At equal timestamps, start order must be preserved.
	want := []string{"a", "b", "c", "a", "b", "c", "a", "b", "c"}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("trace = %v, want %v", first, want)
		}
	}
}

func TestProcSuspendWake(t *testing.T) {
	e := NewEngine()
	var wake func()
	var resumed Time
	e.Go("waiter", func(p *Proc) {
		p.Suspend(func(w func()) { wake = w })
		resumed = p.Now()
	})
	e.At(33*Nanosecond, func() { wake() })
	e.Run()
	if resumed != 33*Nanosecond {
		t.Fatalf("resumed at %v, want 33ns", resumed)
	}
}

func TestProcSuspendSynchronousWake(t *testing.T) {
	// If the condition already holds, arm fires wake inline and Suspend
	// must return without parking.
	e := NewEngine()
	ran := false
	e.Go("p", func(p *Proc) {
		p.Suspend(func(wake func()) { wake() })
		ran = true
	})
	e.Run()
	if !ran {
		t.Fatal("proc did not run past synchronous wake")
	}
}

func TestProcKillUnwinds(t *testing.T) {
	e := NewEngine()
	reached := false
	p := e.Go("victim", func(p *Proc) {
		p.Sleep(1000 * Nanosecond)
		reached = true
	})
	e.At(10*Nanosecond, func() { p.Kill() })
	e.Run()
	if reached {
		t.Fatal("killed proc ran past its sleep")
	}
	if !p.Done() {
		t.Fatal("killed proc not marked done")
	}
	if e.procs != 0 {
		t.Fatalf("live proc count = %d, want 0", e.procs)
	}
}

func TestProcKillParkedProc(t *testing.T) {
	e := NewEngine()
	p := e.Go("parked", func(p *Proc) {
		p.Suspend(func(wake func()) { /* never wake */ })
		t.Error("parked proc resumed unexpectedly")
	})
	e.At(5*Nanosecond, func() { p.Kill() })
	e.Run()
	if !p.Done() {
		t.Fatal("killed parked proc not done")
	}
}

func TestProcKillIdempotent(t *testing.T) {
	e := NewEngine()
	p := e.Go("victim", func(p *Proc) { p.Sleep(Second) })
	e.At(Nanosecond, func() { p.Kill(); p.Kill() })
	e.Run()
	if !p.Done() {
		t.Fatal("proc not done after double kill")
	}
}

func TestProcYieldRunsSameInstantEvents(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Go("p", func(p *Proc) {
		order = append(order, "before")
		e.After(0, func() { order = append(order, "event") })
		p.Yield()
		order = append(order, "after")
	})
	e.Run()
	want := []string{"before", "event", "after"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestFutureAwait(t *testing.T) {
	e := NewEngine()
	f := NewFuture[int]()
	var got int
	var at Time
	e.Go("awaiter", func(p *Proc) {
		v, err := f.Await(p)
		if err != nil {
			t.Errorf("Await error: %v", err)
		}
		got, at = v, p.Now()
	})
	e.At(77*Nanosecond, func() { f.Complete(42) })
	e.Run()
	if got != 42 || at != 77*Nanosecond {
		t.Fatalf("got %d at %v, want 42 at 77ns", got, at)
	}
}

func TestFutureAwaitAlreadyDone(t *testing.T) {
	e := NewEngine()
	f := CompletedFuture("ready")
	var got string
	e.Go("p", func(p *Proc) { got, _ = f.Await(p) })
	e.Run()
	if got != "ready" {
		t.Fatalf("got %q", got)
	}
}

func TestFutureCallbackOrder(t *testing.T) {
	f := NewFuture[int]()
	var order []int
	f.OnComplete(func(int, error) { order = append(order, 1) })
	f.OnComplete(func(int, error) { order = append(order, 2) })
	f.Complete(0)
	f.OnComplete(func(int, error) { order = append(order, 3) })
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestFutureDoubleCompletePanics(t *testing.T) {
	f := NewFuture[int]()
	f.Complete(1)
	defer func() {
		if recover() == nil {
			t.Error("double complete did not panic")
		}
	}()
	f.Complete(2)
}

func TestFutureFailPropagates(t *testing.T) {
	e := NewEngine()
	f := NewFuture[int]()
	var gotErr error
	e.Go("p", func(p *Proc) { _, gotErr = f.Await(p) })
	e.At(Nanosecond, func() { f.Fail(errSentinel) })
	e.Run()
	if gotErr != errSentinel {
		t.Fatalf("err = %v, want sentinel", gotErr)
	}
}

var errSentinel = errTest("sentinel")

type errTest string

func (e errTest) Error() string { return string(e) }

func TestAwaitAll(t *testing.T) {
	e := NewEngine()
	fs := []*Future[int]{NewFuture[int](), NewFuture[int](), NewFuture[int]()}
	var done Time
	e.Go("p", func(p *Proc) {
		if err := AwaitAll(p, fs); err != nil {
			t.Errorf("AwaitAll: %v", err)
		}
		done = p.Now()
	})
	e.At(10*Nanosecond, func() { fs[1].Complete(1) })
	e.At(20*Nanosecond, func() { fs[0].Complete(0) })
	e.At(30*Nanosecond, func() { fs[2].Complete(2) })
	e.Run()
	if done != 30*Nanosecond {
		t.Fatalf("AwaitAll finished at %v, want 30ns", done)
	}
}

// TestProcKillBeforeStart: a process killed before its start event fires
// must never run its body — Kill's contract is that the next resume
// unwinds instead.
func TestProcKillBeforeStart(t *testing.T) {
	e := NewEngine()
	ran := false
	p := e.Go("victim", func(p *Proc) {
		ran = true
		p.Sleep(Nanosecond)
	})
	p.Kill()
	e.Run()
	if ran {
		t.Fatal("proc killed before its start ran its body")
	}
	if !p.Done() || e.procs != 0 {
		t.Fatalf("done=%v live=%d after kill-before-start, want done and 0", p.Done(), e.procs)
	}
}

// TestProcPanicReachesRunCaller: a model panic in a process body must be
// loud and catchable — it surfaces from Run (or Step) on the caller's
// goroutine with its original value, whichever context resumed the
// process.
func TestProcPanicReachesRunCaller(t *testing.T) {
	boom := errTest("model bug")
	cases := []struct {
		name  string
		setup func(e *Engine)
		drive func(e *Engine)
	}{
		{"top-level resume", func(e *Engine) {
			e.Go("p", func(p *Proc) {
				p.Sleep(Nanosecond)
				panic(boom)
			})
		}, (*Engine).Run},
		{"future completed in an event callback", func(e *Engine) {
			f := NewFuture[int]()
			e.Go("p", func(p *Proc) {
				f.MustAwait(p)
				panic(boom)
			})
			e.At(10*Nanosecond, func() { f.Complete(1) })
		}, (*Engine).Run},
		{"future completed by another proc", func(e *Engine) {
			f := NewFuture[int]()
			e.Go("victim", func(p *Proc) {
				f.MustAwait(p)
				panic(boom)
			})
			e.Go("waker", func(p *Proc) {
				p.Sleep(Nanosecond)
				f.Complete(1)
				t.Error("waker continued past the peer's panic")
			})
		}, (*Engine).Run},
		{"resume through Step", func(e *Engine) {
			e.Go("p", func(p *Proc) {
				p.Yield()
				panic(boom)
			})
		}, func(e *Engine) {
			for e.Step() {
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			tc.setup(e)
			var got any
			func() {
				defer func() { got = recover() }()
				tc.drive(e)
			}()
			if got != boom {
				t.Fatalf("recovered %v (%T), want the body's panic value %v", got, got, boom)
			}
		})
	}
}
