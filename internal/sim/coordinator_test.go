package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// tickNet is a tiny self-perpetuating multi-shard model for coordinator
// unit tests: each shard runs a periodic local tick that reschedules
// itself and optionally sends a cross-shard message per tick. All args
// are preallocated, so steady-state rounds are allocation-free.
type tickNet struct {
	c      *Coordinator
	period Time
	delay  Time // cross-shard message delay
	fires  []int
	recv   []int
	horiz  Time
	every  int        // send on every N-th tick (0 = never)
	boxes  []*Mailbox // per src shard, nil = no sends
	ticks  []int
}

type tickArg struct {
	n     *tickNet
	shard int
}

func tickFire(a any) {
	ta := a.(*tickArg)
	n, s := ta.n, ta.shard
	n.fires[s]++
	n.ticks[s]++
	e := n.c.Engine(s)
	if b := n.boxes[s]; b != nil && n.every > 0 && n.ticks[s]%n.every == 0 {
		b.Send(e.Now()+n.delay, tickRecv, a)
	}
	if next := e.Now() + n.period; next <= n.horiz {
		e.At2(next, tickFire, a)
	}
}

func tickRecv(a any) {
	ta := a.(*tickArg)
	ta.n.recv[ta.shard]++
}

// newTickNet wires shards in a one-directional ring (shard s sends to
// s+1) and seeds each shard's tick at t = period.
func newTickNet(c *Coordinator, period, delay, horiz Time, every int) *tickNet {
	n := &tickNet{
		c: c, period: period, delay: delay, horiz: horiz, every: every,
		fires: make([]int, c.Shards()),
		recv:  make([]int, c.Shards()),
		ticks: make([]int, c.Shards()),
		boxes: make([]*Mailbox, c.Shards()),
	}
	for s := 0; s < c.Shards(); s++ {
		if every > 0 {
			n.boxes[s] = c.Mailbox(s, (s+1)%c.Shards())
		}
		c.Engine(s).At2(period, tickFire, &tickArg{n: n, shard: s})
	}
	return n
}

// TestCoordinatorLookaheadMatrixWidensWindows pins the point of the
// per-pair matrix: the same model under the same default window runs
// identically but synchronizes in a small fraction of the rounds once
// the pairs' true (much larger) minimum delays are declared.
func TestCoordinatorLookaheadMatrixWidensWindows(t *testing.T) {
	const window = 10 * Nanosecond
	const period = 100 * Nanosecond
	const delay = 10 * Microsecond
	const horiz = Time(Millisecond)

	run := func(wide bool) (*tickNet, uint64) {
		c := NewCoordinator(3, window)
		c.Sequential = true
		if wide {
			for src := 0; src < 3; src++ {
				for dst := 0; dst < 3; dst++ {
					if src != dst {
						c.SetLookahead(src, dst, delay)
					}
				}
			}
		}
		n := newTickNet(c, period, delay, horiz, 4)
		c.RunUntil(horiz)
		return n, c.Windows()
	}

	narrow, nw := run(false)
	wide, ww := run(true)
	for s := range narrow.fires {
		if narrow.fires[s] != wide.fires[s] || narrow.recv[s] != wide.recv[s] {
			t.Fatalf("shard %d: narrow fired/recv %d/%d, wide %d/%d — lookahead changed behavior",
				s, narrow.fires[s], narrow.recv[s], wide.fires[s], wide.recv[s])
		}
		if narrow.recv[s] == 0 {
			t.Fatalf("shard %d received no cross-shard messages — model not exercising the matrix", s)
		}
	}
	if ww*10 > nw {
		t.Fatalf("wide lookahead used %d rounds, narrow %d — expected >=10x fewer barriers", ww, nw)
	}
}

// TestMailboxPerPairLookaheadViolation pins per-destination enforcement:
// with one destination's inbound pairs relaxed to a wide lookahead, a
// short-delay send to it panics while the same send to a default-window
// destination is legal — in the very same round.
func TestMailboxPerPairLookaheadViolation(t *testing.T) {
	c := NewCoordinator(3, 10*Nanosecond)
	c.SetLookahead(0, 1, Microsecond)
	c.SetLookahead(2, 1, Microsecond)
	wide := c.Mailbox(0, 1)
	narrow := c.Mailbox(0, 2)
	fired := false
	c.Engine(0).At2(0, func(any) {
		fired = true
		narrow.Send(500*Nanosecond, nopEvent, nil) // >= 10ns pair bound: fine
		defer func() {
			if recover() == nil {
				t.Error("500ns send into a 1us-lookahead destination did not panic")
			}
		}()
		wide.Send(500*Nanosecond, nopEvent, nil) // destination round ends at 1us
	}, nil)
	c.RunUntil(2 * Microsecond)
	if !fired {
		t.Fatal("probe event never fired")
	}
}

// TestCoordinatorIdleJumpUnevenShards pins the NextAt skip with uneven
// occupancy: one shard busy early, the other holding only a far-future
// event. The gap must be crossed in a handful of rounds, not
// gap/window barriers.
func TestCoordinatorIdleJumpUnevenShards(t *testing.T) {
	const window = 10 * Nanosecond
	c := NewCoordinator(2, window)
	c.Sequential = true
	var lateFired, earlyFires int
	// Shard 0: a short burst of early events, then silence.
	for i := 1; i <= 5; i++ {
		c.Engine(0).At2(Time(i)*100*Nanosecond, func(any) { earlyFires++ }, nil)
	}
	// Shard 1: nothing until 2ms — 200k windows away at 10ns.
	c.Engine(1).At2(2*Millisecond, func(any) { lateFired = 1 }, nil)
	c.RunUntil(3 * Millisecond)
	if earlyFires != 5 || lateFired != 1 {
		t.Fatalf("fired %d early + %d late events, want 5 + 1", earlyFires, lateFired)
	}
	if w := c.Windows(); w > 100 {
		t.Fatalf("%d rounds to cross an idle 2ms gap — idle jump not engaging", w)
	}
}

// TestCoordinatorZeroAllocWindows pins the steady-state allocation
// contract of the round loop: frontier bookkeeping, mailbox buffers,
// the merge scratch (both the single-source fast path and the
// multi-source merge), and bulk injection must all run garbage-free
// once warm — including destinations that alternate empty and busy,
// which is exactly the sequence that used to regrow the scratch.
func TestCoordinatorZeroAllocWindows(t *testing.T) {
	const window = 100 * Nanosecond
	c := NewCoordinator(3, window)
	c.Sequential = true
	n := &tickNet{
		c: c, period: 150 * Nanosecond, delay: window, horiz: MaxTime,
		fires: make([]int, 3), recv: make([]int, 3), ticks: make([]int, 3),
		boxes: make([]*Mailbox, 3),
	}
	// Shards 1 and 2 both feed shard 0 (multi-source merge); shard 0
	// feeds shard 1 (single-source fast path) on every other tick only,
	// so destination 1 alternates empty and busy.
	n.boxes[1] = c.Mailbox(1, 0)
	n.boxes[2] = c.Mailbox(2, 0)
	n.boxes[0] = c.Mailbox(0, 1)
	n.every = 2
	args := make([]*tickArg, 3)
	for s := 0; s < 3; s++ {
		args[s] = &tickArg{n: n, shard: s}
	}
	n.ticks[0] = 1 // desynchronize shard 0's send parity from 1 and 2
	for s := 0; s < 3; s++ {
		c.Engine(s).At2(n.period, tickFire, args[s])
	}
	// Warm pools, buffers, and scratch. Long enough for the 150ns tick
	// pattern to tour all 1024 wheel buckets, so every bucket slice has
	// its capacity — the engine allocates once per never-touched bucket.
	c.RunUntil(Millisecond)
	if allocs := testing.AllocsPerRun(50, func() {
		c.RunFor(10 * window)
	}); allocs != 0 {
		t.Fatalf("steady-state rounds allocate %.1f per RunFor, want 0", allocs)
	}
	for s := 0; s < 3; s++ {
		if n.fires[s] == 0 {
			t.Fatalf("shard %d never ticked", s)
		}
	}
	if n.recv[1] == 0 || n.recv[2] == 0 {
		t.Fatal("cross-shard paths not exercised")
	}
}

// procNet is a Proc-driven ring model: in every domain, procs sleep
// for a pseudo-random (odd-picosecond) time, send a token to their twin
// in the next domain, and Await a Future that the twin in the previous
// domain's token completes on delivery. Deliveries land on even
// picoseconds, so they never tie with a local wake-up — serial and
// sharded execution must then agree event for event.
type procNet struct {
	domains, procs, rounds int
	window                 Time
	send                   []func(at Time, fn func(any), arg any)
	rngs                   []*RNG
	inbox                  []procInbox // domain*procs+k
	trace                  [][]shardRec
}

type procInbox struct {
	queued []int
	wait   *Future[int]
}

type procToken struct {
	n       *procNet
	dst, id int
}

func procDeliver(a any) {
	tk := a.(*procToken)
	in := &tk.n.inbox[tk.dst]
	if f := in.wait; f != nil {
		in.wait = nil
		f.Complete(tk.id) // resumes the awaiting proc nested, right here
		return
	}
	in.queued = append(in.queued, tk.id)
}

func newProcNet(domains, procs, rounds int, window Time, seed uint64) *procNet {
	n := &procNet{
		domains: domains, procs: procs, rounds: rounds, window: window,
		send:  make([]func(Time, func(any), any), domains),
		rngs:  make([]*RNG, domains),
		inbox: make([]procInbox, domains*procs),
		trace: make([][]shardRec, domains),
	}
	for d := range n.rngs {
		n.rngs[d] = NewRNG(seed).Fork(uint64(d))
	}
	return n
}

// start spawns every domain's procs on engs[d], in domain order so the
// serial and sharded runs schedule identically.
func (n *procNet) start(engs []*Engine) {
	for d := 0; d < n.domains; d++ {
		for k := 0; k < n.procs; k++ {
			engs[d].Go("ring", func(p *Proc) {
				self := &n.inbox[d*n.procs+k]
				next := ((d+1)%n.domains)*n.procs + k
				for i := 0; i < n.rounds; i++ {
					wake := (p.Now() + Time(n.rngs[d].Intn(100))*Nanosecond) | 1
					p.Sleep(wake - p.Now())
					now := p.Now()
					at := (now + n.window + Time(n.rngs[d].Intn(2048)) + 1) &^ 1
					n.send[d](at, procDeliver, &procToken{n: n, dst: next, id: (d*n.procs+k)*1000 + i})
					var id int
					if len(self.queued) > 0 {
						id, self.queued = self.queued[0], self.queued[1:]
					} else {
						self.wait = NewFuture[int]()
						id = self.wait.MustAwait(p)
					}
					n.trace[d] = append(n.trace[d], shardRec{at: p.Now(), id: id})
				}
			})
		}
	}
}

// quietGoroutines reports the goroutine count once it has stopped
// changing, so goroutines still exiting from earlier tests do not
// inflate a baseline.
func quietGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		time.Sleep(5 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// settleGoroutines waits for exiting goroutines (finished coordinator
// workers) to disappear, then checks the count.
func settleGoroutines(t *testing.T, label string, want int) {
	t.Helper()
	got := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); got != want && time.Now().Before(deadline); got = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if got != want {
		t.Fatalf("%s: %d goroutines, want %d", label, got, want)
	}
}

// TestCoordinatorProcsAwaitMailboxFutures runs Procs under the
// coordinator: every domain's procs Await futures that Mailbox
// deliveries complete, and the coroutines are resumed from worker
// goroutines that change with every RunUntil call. The per-domain trace
// must equal the serial engine's, and after every call the goroutine
// count must be the baseline plus one per parked proc — no pooled
// runner outlives a Run.
func TestCoordinatorProcsAwaitMailboxFutures(t *testing.T) {
	const domains, procs, rounds = 3, 4, 40
	const window = 50 * Nanosecond
	base := quietGoroutines()
	serial := newProcNet(domains, procs, rounds, window, 5)
	eng := NewEngine()
	engs := make([]*Engine, domains)
	for d := range engs {
		engs[d] = eng
		serial.send[d] = eng.At2
	}
	serial.start(engs)
	eng.Run()
	if eng.procs != 0 {
		t.Fatalf("serial run left %d procs unfinished", eng.procs)
	}
	settleGoroutines(t, "serial after Run", base)

	for _, sequential := range []bool{true, false} {
		n := newProcNet(domains, procs, rounds, window, 5)
		c := NewCoordinator(domains, window)
		c.Sequential = sequential
		if !sequential {
			defer func(old bool) { coordParallel = old }(coordParallel)
			coordParallel = true
		}
		for d := range engs {
			engs[d] = c.Engine(d)
			n.send[d] = c.Mailbox(d, (d+1)%domains).Send
		}
		n.start(engs)
		label := fmt.Sprintf("sequential=%v", sequential)
		for until := 500 * Nanosecond; until <= 3*Microsecond; until += 500 * Nanosecond {
			c.RunUntil(until)
			live := 0
			for d := range engs {
				live += engs[d].procs
			}
			if live == 0 {
				t.Fatalf("%s: every proc finished by %v — steps not exercising parked coroutines", label, until)
			}
			settleGoroutines(t, fmt.Sprintf("%s after RunUntil(%v)", label, until), base+live)
		}
		c.Run()
		for d := range engs {
			if engs[d].procs != 0 {
				t.Fatalf("%s: domain %d left %d procs unfinished", label, d, engs[d].procs)
			}
		}
		settleGoroutines(t, label+" after Run", base)
		diffShardNets(t, label,
			&shardNet{domains: domains, trace: serial.trace},
			&shardNet{domains: domains, trace: n.trace})
	}
}

// TestCoordinatorStop pins Stop under the coordinator: a model that
// stops its engine makes Run return after the stopping event, and the
// next Run resumes exactly there — the same fire and message counts and
// the same final clocks as an uninterrupted run — sequentially and with
// worker goroutines, at one shard and at three.
func TestCoordinatorStop(t *testing.T) {
	const window = 100 * Nanosecond
	const period = Microsecond
	const horiz = 100 * Microsecond
	defer func(old bool) { coordParallel = old }(coordParallel)
	for _, shards := range []int{1, 3} {
		for _, sequential := range []bool{true, false} {
			coordParallel = !sequential
			build := func() (*Coordinator, *tickNet) {
				c := NewCoordinator(shards, window)
				c.Sequential = sequential
				return c, newTickNet(c, period, window, horiz, min(shards-1, 1)) // no self-sends
			}
			label := fmt.Sprintf("shards=%d sequential=%v", shards, sequential)

			ref, refNet := build()
			ref.Run()

			c, n := build()
			e0 := c.Engine(0)
			e0.At(10*period+1, e0.Stop)
			c.Run()
			if n.fires[0] != 10 {
				t.Fatalf("%s: first Run fired %d ticks on shard 0, want 10 (Stop ignored)", label, n.fires[0])
			}
			if got := e0.Now(); got != 10*period+1 {
				t.Fatalf("%s: stopped engine reads %v, want the Stop event's time %v", label, got, 10*period+1)
			}
			c.Run()
			for s := 0; s < shards; s++ {
				if n.fires[s] != refNet.fires[s] || n.recv[s] != refNet.recv[s] {
					t.Fatalf("%s: shard %d fired/recv %d/%d after resuming, uninterrupted run %d/%d",
						label, s, n.fires[s], n.recv[s], refNet.fires[s], refNet.recv[s])
				}
				if got, want := c.Engine(s).Now(), ref.Engine(s).Now(); got != want {
					t.Fatalf("%s: shard %d clock %v after resuming, uninterrupted run %v", label, s, got, want)
				}
			}
			if shards > 1 && n.recv[1] == 0 {
				t.Fatalf("%s: no cross-shard messages — model not exercising the mailboxes", label)
			}
		}
	}
}

// TestCoordinatorClockAfterRun pins the clock rules between runs: after
// Run drains, the coordinator and every engine read the time of the
// last event fired in any shard (what one engine running the whole
// model reads), and a later RunFor fires work scheduled from that clock
// and advances every clock by exactly its argument.
func TestCoordinatorClockAfterRun(t *testing.T) {
	const last = 1234 * Nanosecond
	for _, shards := range []int{1, 3} {
		c := NewCoordinator(shards, 100*Nanosecond)
		c.Engine(0).At(300*Nanosecond, func() {})
		c.Engine(shards-1).At(last, func() {})
		c.Run()
		for s := 0; s < shards; s++ {
			if got := c.Engine(s).Now(); got != last || c.Now() != last {
				t.Fatalf("shards=%d: after Run shard %d reads %v, coordinator %v, want %v",
					shards, s, got, c.Now(), last)
			}
		}
		fired := false
		c.Engine(0).After(50*Nanosecond, func() { fired = true })
		c.RunFor(5 * Microsecond)
		if !fired {
			t.Fatalf("shards=%d: event scheduled after Run did not fire in RunFor", shards)
		}
		for s := 0; s < shards; s++ {
			if got := c.Engine(s).Now(); got != last+5*Microsecond || c.Now() != got {
				t.Fatalf("shards=%d: after RunFor shard %d reads %v, coordinator %v, want %v",
					shards, s, got, c.Now(), last+5*Microsecond)
			}
		}
	}
}

// TestCoordinatorZeroWindowOneShard pins NewCoordinator's window check:
// the window only bounds cross-shard sends, so one domain — a serial
// cluster whose links have zero propagation — accepts a zero window and
// runs, while two domains refuse it.
func TestCoordinatorZeroWindowOneShard(t *testing.T) {
	c := NewCoordinator(1, 0)
	fired := false
	c.Engine(0).At(Nanosecond, func() { fired = true })
	c.Run()
	if !fired || c.Now() != Nanosecond {
		t.Fatalf("one-shard zero-window run: fired=%v, clock %v", fired, c.Now())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewCoordinator(2, 0) did not panic")
		}
	}()
	NewCoordinator(2, 0)
}
