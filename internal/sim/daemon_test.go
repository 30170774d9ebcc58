package sim

import (
	"fmt"
	"slices"
	"testing"
)

// periodic arms a daemon on e that logs its firing time and re-arms
// itself every period, with no stop condition.
func periodic(e *Engine, period Time, log *[]Time) {
	var tick func()
	tick = func() {
		*log = append(*log, e.Now())
		e.AfterDaemon(period, tick)
	}
	e.AfterDaemon(period, tick)
}

func TestDaemonAfterLastEventDoesNotFire(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	periodic(e, 20*Nanosecond, &ticks)
	e.At(10*Nanosecond, func() {})
	e.At(50*Nanosecond, func() {})
	e.EventLimit = 100
	e.Run()
	if want := []Time{20 * Nanosecond, 40 * Nanosecond}; !slices.Equal(ticks, want) {
		t.Fatalf("daemon fired at %v, want %v", ticks, want)
	}
	if e.Now() != 50*Nanosecond {
		t.Fatalf("clock %v after Run, want T* = 50ns", e.Now())
	}
	if at, ok := e.NextAt(); !ok || at != 60*Nanosecond {
		t.Fatalf("NextAt = %v, %v; want the unfired daemon at 60ns", at, ok)
	}
}

func TestDaemonAtLastEventFiresEitherSeq(t *testing.T) {
	for _, daemonFirst := range []bool{true, false} {
		e := NewEngine()
		var order []string
		work := func() { e.At(100*Nanosecond, func() { order = append(order, "real") }) }
		daemon := func() { e.AfterDaemon(100*Nanosecond, func() { order = append(order, "daemon") }) }
		if daemonFirst {
			daemon()
			work()
		} else {
			work()
			daemon()
		}
		e.Run()
		want := []string{"real", "daemon"}
		if daemonFirst {
			want = []string{"daemon", "real"}
		}
		if !slices.Equal(order, want) || e.Now() != 100*Nanosecond {
			t.Fatalf("daemonFirst=%v: fired %v at clock %v, want %v at 100ns", daemonFirst, order, e.Now(), want)
		}
	}
}

func TestDaemonCreatingWorkExtendsRun(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	var tick func()
	tick = func() {
		ticks = append(ticks, e.Now())
		if e.Now() == 90*Nanosecond {
			e.At(200*Nanosecond, func() {})
		}
		e.AfterDaemon(30*Nanosecond, tick)
	}
	e.AfterDaemon(30*Nanosecond, tick)
	e.At(100*Nanosecond, func() {})
	e.EventLimit = 100
	e.Run()
	want := []Time{30, 60, 90, 120, 150, 180}
	for i := range want {
		want[i] *= Nanosecond
	}
	if !slices.Equal(ticks, want) || e.Now() != 200*Nanosecond {
		t.Fatalf("daemon fired at %v, clock %v; want %v, clock 200ns", ticks, e.Now(), want)
	}
}

func TestRunWithOnlyDaemonsReturns(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	e.RunUntil(5 * Nanosecond)
	periodic(e, 10*Nanosecond, &ticks)
	e.EventLimit = 100
	e.Run()
	if len(ticks) != 0 || e.Now() != 5*Nanosecond || e.Events() != 0 {
		t.Fatalf("Run with only daemons fired %v (%d events), clock %v; want nothing at 5ns",
			ticks, e.Events(), e.Now())
	}
}

func TestRunForFiresDaemons(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	periodic(e, 10*Nanosecond, &ticks)
	e.RunFor(100 * Nanosecond)
	if len(ticks) != 10 || e.Now() != 100*Nanosecond {
		t.Fatalf("RunFor fired %d daemons, clock %v; want 10 at 100ns", len(ticks), e.Now())
	}
	e.Run()
	if len(ticks) != 10 {
		t.Fatalf("Run after RunFor fired %d more daemons, want none", len(ticks)-10)
	}
	if !e.Step() || len(ticks) != 11 || e.Now() != 110*Nanosecond {
		t.Fatalf("Step did not fire the queued daemon: %d ticks, clock %v", len(ticks), e.Now())
	}
}

// TestDaemonKeepsSeqOrder pins that a daemon takes exactly the (at, seq)
// position an ordinary event would: the same random schedule, with a
// third of its timers made daemons, fires in the same order under
// RunUntil — including daemons armed mid-run by callbacks and by a
// process between its own wake-ups.
func TestDaemonKeepsSeqOrder(t *testing.T) {
	build := func(daemons bool) []string {
		e := NewEngine()
		rng := NewRNG(17)
		var log []string
		var arm func(depth int)
		arm = func(depth int) {
			id := len(log)
			d := Time(rng.Intn(8)) * Nanosecond
			fn := func() {
				log = append(log, fmt.Sprintf("%d@%v", id, e.Now()))
				if depth < 6 {
					arm(depth + 1)
					arm(depth + 1)
				}
			}
			log = append(log, "arm")
			if rng.Intn(3) == 0 && daemons {
				e.AfterDaemon(d, fn)
			} else {
				e.After(d, fn)
			}
		}
		arm(0)
		e.Go("sleeper", func(p *Proc) {
			for i := 0; i < 40; i++ {
				p.Sleep(Nanosecond)
				log = append(log, fmt.Sprintf("proc@%v", e.Now()))
				if i%7 == 3 {
					arm(5)
				}
			}
		})
		e.RunUntil(Microsecond)
		return log
	}
	plain, mixed := build(false), build(true)
	if !slices.Equal(plain, mixed) {
		t.Fatalf("daemons changed fire order:\nplain %v\nmixed %v", plain, mixed)
	}
}

// daemonNet is a randomized multi-domain model for the coordinator's
// daemon rule: each domain has real events that spawn local and
// cross-domain follow-ups, and a periodic daemon that now and then
// creates real work of its own. Every random draw comes from the domain's
// own stream in the domain's own event order, so a single engine running
// every domain and a Coordinator must produce the same per-domain logs.
type daemonNet struct {
	engs   []*Engine
	send   func(src, dst int, at Time, fn func(any), arg any)
	rngs   []*RNG
	logs   [][]string
	budget []int
}

type daemonMsg struct {
	n      *daemonNet
	domain int
	depth  int
}

func daemonReal(a any) {
	m := a.(*daemonMsg)
	n, d := m.n, m.domain
	e := n.engs[d]
	n.logs[d] = append(n.logs[d], fmt.Sprintf("real@%d", e.Now()))
	if m.depth >= 4 {
		return
	}
	n.spawn(d, m.depth+1)
}

// spawn schedules one real follow-up of domain d: local, or across the
// ring at least the window away.
func (n *daemonNet) spawn(d, depth int) {
	rng, e := n.rngs[d], n.engs[d]
	delay := Time(rng.Intn(3000)) * Nanosecond
	m := &daemonMsg{n: n, domain: d, depth: depth}
	if rng.Intn(2) == 0 || len(n.engs) == 1 {
		e.At2(e.Now()+delay, daemonReal, m)
		return
	}
	m.domain = (d + 1 + rng.Intn(len(n.engs)-1)) % len(n.engs)
	n.send(d, m.domain, e.Now()+100*Nanosecond+delay, daemonReal, m)
}

func newDaemonNet(engs []*Engine, seed uint64, send func(src, dst int, at Time, fn func(any), arg any)) *daemonNet {
	n := &daemonNet{engs: engs, send: send,
		logs: make([][]string, len(engs)), budget: make([]int, len(engs))}
	root := NewRNG(seed)
	for d, e := range engs {
		d, e := d, e
		n.rngs = append(n.rngs, root.Fork(uint64(d)))
		n.budget[d] = 2
		for i := 0; i < 1+n.rngs[d].Intn(3); i++ {
			e.At2(Time(n.rngs[d].Intn(5000))*Nanosecond+Time(d), daemonReal, &daemonMsg{n: n, domain: d})
		}
		period := 700*Nanosecond + Time(131*d+7)
		var tick func()
		tick = func() {
			n.logs[d] = append(n.logs[d], fmt.Sprintf("daemon@%d", e.Now()))
			if n.budget[d] > 0 && n.rngs[d].Intn(6) == 0 {
				n.budget[d]--
				n.spawn(d, 3)
			}
			e.AfterDaemon(period, tick)
		}
		e.AfterDaemon(period, tick)
	}
	return n
}

// TestCoordinatorDaemonMatchesSerial runs the daemon model on one engine
// and under a Coordinator at 1, 2 and 4 domains, sequentially and with worker
// goroutines: the per-domain logs and the final clock must match, so a
// daemon in a domain with no work left fires exactly when some other
// domain has real work at or after its time.
func TestCoordinatorDaemonMatchesSerial(t *testing.T) {
	const window = 100 * Nanosecond
	defer func(old bool) { coordParallel = old }(coordParallel)
	for _, domains := range []int{1, 2, 4} {
		for seed := uint64(1); seed <= 8; seed++ {
			one := NewEngine()
			one.EventLimit = 100000
			engs := make([]*Engine, domains)
			for i := range engs {
				engs[i] = one
			}
			ref := newDaemonNet(engs, seed, func(_, _ int, at Time, fn func(any), arg any) { one.At2(at, fn, arg) })
			one.Run()
			fired := 0
			for _, l := range ref.logs {
				for _, s := range l {
					if s[0] == 'd' {
						fired++
					}
				}
			}
			if fired == 0 || len(one.daemons) != domains {
				t.Fatalf("domains=%d seed %d: serial run fired %d daemons and left %d queued; want some fired, %d left",
					domains, seed, fired, len(one.daemons), domains)
			}
			for _, sequential := range []bool{true, false} {
				coordParallel = !sequential
				c := NewCoordinator(domains, window)
				c.Sequential = sequential
				for i := range engs {
					engs[i] = c.Engine(i)
					engs[i].EventLimit = 100000
				}
				n := newDaemonNet(engs, seed, func(src, dst int, at Time, fn func(any), arg any) {
					c.Mailbox(src, dst).Send(at, fn, arg)
				})
				c.Run()
				label := fmt.Sprintf("domains=%d seed %d sequential=%v", domains, seed, sequential)
				for d := range n.logs {
					if !slices.Equal(n.logs[d], ref.logs[d]) {
						t.Fatalf("%s: domain %d log\n got %v\nwant %v", label, d, n.logs[d], ref.logs[d])
					}
					if c.Engine(d).Now() != one.Now() {
						t.Fatalf("%s: domain %d clock %v, serial T* %v", label, d, c.Engine(d).Now(), one.Now())
					}
				}
			}
		}
	}
}

// TestCoordinatorDaemonIdleDomain pins the barrier decision directly: a
// periodic daemon in a domain that never has real work fires up to, and
// exactly at, the time of the last real event in another domain — and
// not at all when no domain has real work.
func TestCoordinatorDaemonIdleDomain(t *testing.T) {
	defer func(old bool) { coordParallel = old }(coordParallel)
	for _, last := range []Time{0, 4500 * Nanosecond, 5 * Microsecond, 50 * Microsecond} {
		for _, sequential := range []bool{true, false} {
			coordParallel = !sequential
			c := NewCoordinator(3, 100*Nanosecond)
			c.Sequential = sequential
			var ticks []Time
			periodic(c.Engine(0), Microsecond, &ticks)
			c.Engine(0).EventLimit = 1000
			if last > 0 {
				c.Engine(2).At(last, func() {})
			}
			c.Run()
			want := int(last / Microsecond)
			if len(ticks) != want || c.Now() != last {
				t.Fatalf("last=%v sequential=%v: daemon fired %d times, clock %v; want %d, clock %v",
					last, sequential, len(ticks), c.Now(), want, last)
			}
		}
	}
}

// TestCoordinatorDaemonBlockedDomain drives the barrier decision through
// the case the queue heads cannot settle: domain 1 runs a chain of real
// events, each scheduling the next 90ns on, so its future work is never
// visible more than a step ahead, while domain 0 only has a periodic
// daemon that sends domain 1 a message exactly one lookahead out. Domain
// 0 must hold its frontier at a daemon it cannot justify yet (else the
// message violates the lookahead), fire it once the chain reaches it,
// and fire the daemons the chain's last rounds justified after the
// queues drain — matching one engine running the same model.
func TestCoordinatorDaemonBlockedDomain(t *testing.T) {
	const window = 100 * Nanosecond
	type model struct {
		ticks, recv []Time
	}
	build := func(e0, e1 *Engine, send func(at Time, fn func()), end Time) *model {
		m := &model{}
		var tick func()
		tick = func() {
			m.ticks = append(m.ticks, e0.Now())
			send(e0.Now()+window, func() { m.recv = append(m.recv, e1.Now()) })
			e0.AfterDaemon(Microsecond, tick)
		}
		e0.AfterDaemon(Microsecond, tick)
		var step func()
		step = func() {
			if next := e1.Now() + 90*Nanosecond; next <= end {
				e1.At(next, step)
			}
		}
		e1.At(13*Nanosecond, step)
		return m
	}
	defer func(old bool) { coordParallel = old }(coordParallel)
	for end := 4500 * Nanosecond; end <= 5500*Nanosecond; end += 50 * Nanosecond {
		one := NewEngine()
		one.EventLimit = 10000
		ref := build(one, one, func(at Time, fn func()) { one.At(at, fn) }, end)
		one.Run()
		for _, sequential := range []bool{true, false} {
			coordParallel = !sequential
			c := NewCoordinator(3, window)
			c.Sequential = sequential
			box := c.Mailbox(0, 1)
			m := build(c.Engine(0), c.Engine(1), func(at Time, fn func()) {
				box.Send(at, func(any) { fn() }, nil)
			}, end)
			c.Engine(0).EventLimit = 10000
			c.Run()
			if !slices.Equal(m.ticks, ref.ticks) || !slices.Equal(m.recv, ref.recv) || c.Now() != one.Now() {
				t.Fatalf("end=%v sequential=%v: ticks %v recv %v clock %v; serial ticks %v recv %v clock %v",
					end, sequential, m.ticks, m.recv, c.Now(), ref.ticks, ref.recv, one.Now())
			}
		}
	}
}
