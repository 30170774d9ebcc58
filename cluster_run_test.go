package fcc

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"fcc/internal/arbiter"
	"fcc/internal/coherence"
	"fcc/internal/etrans"
	"fcc/internal/faa"
	"fcc/internal/fabric"
	"fcc/internal/fault"
	"fcc/internal/flit"
	"fcc/internal/sim"
	"fcc/internal/txn"
	"fcc/internal/uheap"
)

// ringCluster builds a four-switch ring with one host per switch and a
// FAM, partitioned into the given number of failure domains.
func ringCluster(t *testing.T, shards int) *Cluster {
	t.Helper()
	c, err := New(Config{
		Hosts: 4, FAMs: 1, FAMCapacity: 1 << 24, Shards: shards,
		Topology: &fabric.TopoSpec{Kind: fabric.TopoRing, Groups: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// spawnReads starts a Proc on every host, on the host's own engine,
// that loads the given number of distinct FAM lines. It returns the
// per-host count of loads completed: each domain writes only its own
// hosts' entries, so parallel domains never share a counter.
func spawnReads(c *Cluster, reads int) []int {
	done := make([]int, len(c.Hosts))
	for i, h := range c.Hosts {
		h.Engine().Go(fmt.Sprintf("%s/reads", h.Name()), func(p *sim.Proc) {
			for k := 0; k < reads; k++ {
				h.Load64P(p, c.FAMBase(0)+uint64(i*reads+k)*64)
				done[i]++
			}
		})
	}
	return done
}

// allDone reports whether every host completed n loads.
func allDone(done []int, n int) bool {
	for _, d := range done {
		if d != n {
			return false
		}
	}
	return true
}

// TestClusterStop pins Stop at every shard count: a Proc that stops its
// engine after its 10th tick makes Run return there, with the other
// hosts' traffic in flight, and the next Run resumes it to the end.
func TestClusterStop(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c := ringCluster(t, shards)
			done := spawnReads(c, 5)
			eng := c.Hosts[0].Engine()
			ticks := 0
			eng.Go("ticker", func(p *sim.Proc) {
				for ticks < 100 {
					p.Sleep(sim.Microsecond)
					ticks++
					if ticks == 10 {
						eng.Stop()
					}
				}
			})
			c.Run()
			if ticks != 10 {
				t.Fatalf("first Run returned after %d ticks, want 10", ticks)
			}
			c.Run()
			if ticks != 100 || !allDone(done, 5) {
				t.Fatalf("second Run ended at %d ticks and %v reads per host, want 100 and 5 each", ticks, done)
			}
		})
	}
}

// TestClusterClockAfterRun pins the clock after Run to the serial
// reading — the time of the last event fired anywhere, which one engine
// driven directly reports — on every domain at every shard count, and
// RunFor to advancing every domain by exactly its argument.
func TestClusterClockAfterRun(t *testing.T) {
	ref := ringCluster(t, 1)
	spawnReads(ref, 5)
	ref.Eng.Run()
	want := ref.Eng.Now()
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c := ringCluster(t, shards)
			done := spawnReads(c, 5)
			c.Run()
			if !allDone(done, 5) {
				t.Fatalf("%v reads completed per host, want 5 each", done)
			}
			check := func(after string, want sim.Time) {
				t.Helper()
				if got := c.Eng.Now(); got != want {
					t.Fatalf("after %s Eng reads %v, want %v", after, got, want)
				}
				for i := 0; i < c.Coord.Shards(); i++ {
					if got := c.Coord.Engine(i).Now(); got != want {
						t.Fatalf("after %s domain %d reads %v, want %v", after, i, got, want)
					}
				}
			}
			check("Run", want)
			c.RunFor(5 * sim.Microsecond)
			check("RunFor(5us)", want+5*sim.Microsecond)
		})
	}
}

// TestClusterShardGuards pins the helpers that need one shared engine:
// on a sharded cluster they panic and name what to use instead; at
// Shards 0 and 1 they work, on a one-domain coordinator whose engine is
// Eng. A helper with no replacement builds on the host's own engine and
// works at every shard count.
func TestClusterShardGuards(t *testing.T) {
	guards := []struct {
		name, replacement string
		call              func(c *Cluster) any
	}{
		{"Go", "Hosts[i].Engine().Go", func(c *Cluster) any { return c.Go("g", func(*sim.Proc) {}) }},
		{"NewETrans", "", func(c *Cluster) any { return c.NewETrans(c.Hosts[0]) }},
		{"NewTaskRunner", "task.NewRunner", func(c *Cluster) any { return c.NewTaskRunner(c.Hosts[0], 1) }},
	}
	for _, g := range guards {
		for _, shards := range []int{0, 1, 2} {
			t.Run(fmt.Sprintf("%s/shards=%d", g.name, shards), func(t *testing.T) {
				c := ringCluster(t, shards)
				if shards > 1 && g.replacement == "" {
					if g.call(c) == nil {
						t.Fatal("returned nil")
					}
					c.Run()
					return
				}
				if shards > 1 {
					defer func() {
						msg, _ := recover().(string)
						if !strings.Contains(msg, g.replacement) {
							t.Fatalf("panic %q does not name %s", msg, g.replacement)
						}
					}()
					g.call(c)
					t.Fatal("no panic on a sharded cluster")
				}
				if c.Coord.Shards() != 1 || c.Eng != c.Coord.Engine(0) {
					t.Fatalf("Coord has %d domains, Eng is domain 0's engine: %v", c.Coord.Shards(), c.Eng == c.Coord.Engine(0))
				}
				if g.call(c) == nil {
					t.Fatal("returned nil")
				}
				c.Run()
			})
		}
	}
}

// injectorRun builds a four-switch ring with two FAMs and two FAAs and
// no Manager, schedules one fault of every kind through NewInjector —
// each cut ISL of the two-domain split carries one — and drives
// RequestRetry streams and FAA invocations from every host on its own
// engine. It returns the stats snapshot and the per-host
// issued/committed/typed-error counts.
func injectorRun(t *testing.T, shards int) (snap []byte, issued, committed, typed []int) {
	t.Helper()
	c, err := New(Config{
		Hosts: 4, FAMs: 2, FAAs: 2, FAMCapacity: 1 << 24, Shards: shards,
		Topology: &fabric.TopoSpec{Kind: fabric.TopoRing, Groups: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	for hi, h := range c.Hosts {
		// Off-lattice deadlines: a timeout tied with its response at one
		// picosecond may resolve either way across shard counts
		// (DESIGN.md, "Tie discipline").
		h.Endpoint().Timeout = 25*sim.Microsecond + sim.Time(hi+1)*4241
	}
	for _, d := range c.FAAs {
		d.NewFunction(1, "echo").On(0, func(hc *faa.HandlerCtx, payload []byte) ([]byte, error) {
			hc.Compute(300 * sim.Nanosecond)
			return payload, nil
		})
	}
	var host2Link string
	for _, att := range c.Builder.Attachments() {
		if att.Name == "host2" {
			host2Link = att.Link.Name()
		}
	}
	in := c.NewInjector(5)
	plan := fault.NewPlan("every-kind").
		FlapLink(20*sim.Microsecond, "fs1<->fs2", 30*sim.Microsecond+333).
		DegradeLanes(25*sim.Microsecond, "fs3<->fs0", 4, 60*sim.Microsecond+777).
		LeakCredits(30*sim.Microsecond, host2Link, int(flit.ChMem), 6, 40*sim.Microsecond+101).
		KillSwitch(45*sim.Microsecond, "fs1", 35*sim.Microsecond+59).
		FailDevice(50*sim.Microsecond, c.FAMs[1].Name(), 0).
		KillChassis(55*sim.Microsecond, c.FAAs[0].Name(), 25*sim.Microsecond+613).
		Add(fault.Event{At: 95*sim.Microsecond + 211, Target: c.FAMs[1].Name(),
			Fault: fault.Fault{Kind: fault.DeviceFail}, Heal: true})
	if err := in.Schedule(plan); err != nil {
		t.Fatal(err)
	}

	n := len(c.Hosts)
	issued, committed, typed = make([]int, n), make([]int, n), make([]int, n)
	account := func(hi int, err error) {
		switch {
		case err == nil:
			committed[hi]++
		case errors.Is(err, txn.ErrTimeout) || errors.Is(err, txn.ErrDeviceDown) || errors.Is(err, faa.ErrDeviceDown):
			typed[hi]++
		default:
			t.Errorf("host%d: untyped failure: %v", hi, err)
		}
	}
	for hi, h := range c.Hosts {
		ep := h.Endpoint()
		fam := c.FAMs[hi%2].ID()
		h.Engine().Go(h.Name()+"/mem", func(p *sim.Proc) {
			for op := 0; op < 60; op++ {
				pkt := &flit.Packet{Chan: flit.ChMem, Op: flit.OpMemRd, Dst: fam,
					Addr: uint64(hi)<<16 + uint64(op)*64, ReqLen: 64}
				if op%3 == 2 {
					pkt.Op, pkt.ReqLen, pkt.Size = flit.OpMemWr, 0, 64
				}
				issued[hi]++
				_, err := ep.RequestRetry(pkt, 3, 20*sim.Microsecond).Await(p)
				account(hi, err)
				p.Sleep(sim.Microsecond + sim.Time(hi)*97)
			}
		})
		dev := c.FAAs[hi%2].ID()
		h.Engine().Go(h.Name()+"/faa", func(p *sim.Proc) {
			for i := 0; i < 12; i++ {
				p.Sleep(7*sim.Microsecond + sim.Time(hi)*131)
				issued[hi]++
				_, err := faa.InvokeP(p, ep, dev, 1, 0, []byte{byte(i)})
				account(hi, err)
			}
		})
	}
	c.Run()
	raw, err := c.Stats().Snapshot().MarshalJSONIndent()
	if err != nil {
		t.Fatal(err)
	}
	return raw, issued, committed, typed
}

// TestClusterInjectorShardEquiv is the serial ≡ sharded oracle for
// every fault kind: one NewInjector plan, run at Shards 0 and 1 (one
// domain) and at 2 and 4, must give byte-identical stats snapshots,
// fault subtree included, with every transaction either committed or
// failed with a typed error.
func TestClusterInjectorShardEquiv(t *testing.T) {
	var ref []byte
	for _, shards := range []int{0, 1, 2, 4} {
		snap, issued, committed, typed := injectorRun(t, shards)
		for hi := range issued {
			if issued[hi] != committed[hi]+typed[hi] {
				t.Errorf("shards=%d host%d: issued %d != committed %d + typed %d",
					shards, hi, issued[hi], committed[hi], typed[hi])
			}
		}
		if ref == nil {
			ref = snap
			var s sim.StatsSnapshot
			if err := json.Unmarshal(snap, &s); err != nil {
				t.Fatal(err)
			}
			var fs *sim.StatsSnapshot
			for _, ch := range s.Children {
				if ch.Name == "fault" {
					fs = ch
				}
			}
			if fs == nil || fs.Counters["injected"] != 6 || fs.Counters["healed"] != 6 || fs.Gauges["active"] != 0 {
				t.Fatalf("fault subtree %+v, want 6 injected, 6 healed, 0 active", fs)
			}
			continue
		}
		if !bytes.Equal(snap, ref) {
			t.Errorf("shards=%d snapshot differs from serial:\n%s", shards, firstDiff(ref, snap))
		}
	}
}

// firstDiff renders the first differing line of two snapshots.
func firstDiff(a, b []byte) string {
	al, bl := strings.Split(string(a), "\n"), strings.Split(string(b), "\n")
	for i := range min(len(al), len(bl)) {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d: serial %q, sharded %q", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths %d vs %d lines", len(al), len(bl))
}

// guardEvents arms every domain's EventLimit, so a run that never
// drains panics instead of hanging.
func guardEvents(c *Cluster) {
	for i := 0; i < c.Coord.Shards(); i++ {
		c.Coord.Engine(i).EventLimit = 5_000_000
	}
}

// heapRun gives every host of c a migrating unified heap (a two-object
// local pool, eight far objects) and drives a read stream whose hot set
// moves halfway, so the migration epochs both promote and demote. Each
// heap's epoch is a daemon timer on its host's engine. It returns the
// stats snapshot with every heap's counters under heapN.
func heapRun(t *testing.T, c *Cluster) ([]byte, []*uheap.Heap) {
	t.Helper()
	guardEvents(c)
	var heaps []*uheap.Heap
	for hi, h := range c.Hosts {
		hp, err := c.NewHeap(h, uheap.DefaultConfig(), 8<<10)
		if err != nil {
			t.Fatal(err)
		}
		heaps = append(heaps, hp)
		objs := make([]*uheap.Obj, 8)
		for i := range objs {
			if objs[i], err = hp.Alloc(4096, uheap.ClassFar); err != nil {
				t.Fatal(err)
			}
		}
		h.Engine().Go(h.Name()+"/heap", func(p *sim.Proc) {
			for k := 0; k < 300; k++ {
				objs[k/150*4+k%4].Read64P(p, uint64(k%64)*64)
				p.Sleep(sim.Microsecond + sim.Time(hi+1)*97)
			}
		})
	}
	c.Run()
	root := c.Stats()
	for i, hp := range heaps {
		hp.RegisterStats(root.Child(fmt.Sprintf("heap%d", i)))
	}
	raw, err := root.Snapshot().MarshalJSONIndent()
	if err != nil {
		t.Fatal(err)
	}
	return raw, heaps
}

// TestClusterDaemonTimersDrain pins the daemon rule at cluster level:
// two hosts, each with a migrating heap whose epoch timer re-arms
// forever, must drain at every shard count — each heap's pending epoch
// no longer keeps the other's alive — with byte-identical snapshots,
// migration counters included, and the same end clock. A serial row
// adds the AIMD arbiter's epoch timer to one migrating heap.
func TestClusterDaemonTimersDrain(t *testing.T) {
	var ref []byte
	var refNow sim.Time
	for _, shards := range []int{0, 1, 2, 4} {
		c, err := New(Config{
			Hosts: 2, FAMs: 2, FAMCapacity: 1 << 24, Shards: shards,
			Topology: &fabric.TopoSpec{Kind: fabric.TopoRing, Groups: 4},
		})
		if err != nil {
			t.Fatal(err)
		}
		snap, heaps := heapRun(t, c)
		if ref == nil {
			ref, refNow = snap, c.Coord.Now()
			for i, hp := range heaps {
				if hp.Promotions.Value() == 0 || hp.Demotions.Value() == 0 {
					t.Fatalf("heap%d: %d promotions, %d demotions; the workload must exercise both",
						i, hp.Promotions.Value(), hp.Demotions.Value())
				}
			}
			continue
		}
		if !bytes.Equal(snap, ref) {
			t.Errorf("shards=%d snapshot differs from serial:\n%s", shards, firstDiff(ref, snap))
		}
		if c.Coord.Now() != refNow {
			t.Errorf("shards=%d run ended at %v, serial at %v", shards, c.Coord.Now(), refNow)
		}
	}

	t.Run("arbiter-aimd", func(t *testing.T) {
		c, err := New(Config{
			Hosts: 1, FAMs: 1, FAMCapacity: 1 << 24, Arbiter: true,
			ArbiterConfig: func() arbiter.Config {
				ac := arbiter.DefaultConfig()
				ac.AIMD = true
				return ac
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		_, heaps := heapRun(t, c)
		if heaps[0].Promotions.Value() == 0 {
			t.Fatal("heap never migrated")
		}
	})
}

// TestClusterShardedCoherenceETrans pins coherence directories and
// migration agents in their home domains: a coherence client on host2
// writes and reads lines homed on fam0, two switches away, while host3
// moves a buffer from fam0 to fam1 through the agents. The stats
// snapshot must be byte-identical at Shards 1, 2 and 4 (host2 and fam0
// sit in different domains at 2 and 4).
func TestClusterShardedCoherenceETrans(t *testing.T) {
	var ref []byte
	for _, shards := range []int{1, 2, 4} {
		c, err := New(Config{
			Hosts: 4, FAMs: 2, FAMCapacity: 1 << 24, Shards: shards,
			Coherent: true, Agents: true,
			Topology: &fabric.TopoSpec{Kind: fabric.TopoRing, Groups: 4},
		})
		if err != nil {
			t.Fatal(err)
		}
		guardEvents(c)
		h2, h3 := c.Hosts[2], c.Hosts[3]
		cc := c.NewCoherenceClient(h2, 0, coherence.DefaultClientConfig())
		h2.Engine().Go("coherent", func(p *sim.Proc) {
			for i := uint64(0); i < 32; i++ {
				cc.Write64P(p, 0x1000+i*64, i*i)
				p.Sleep(300*sim.Nanosecond + 17)
			}
			for i := uint64(0); i < 32; i++ {
				if got := cc.Read64P(p, 0x1000+i*64); got != i*i {
					t.Errorf("shards=%d: coherent read of line %d = %d, want %d", shards, i, got, i*i)
				}
			}
		})
		for i := uint64(0); i < 8; i++ {
			c.FAMs[0].DRAM().Store().Write64(0x8000+i*8, 1000+i)
		}
		et := c.NewETrans(h3)
		h3.Engine().Go("etrans", func(p *sim.Proc) {
			p.Sleep(2*sim.Microsecond + 31)
			et.SubmitP(p, &etrans.Request{
				Src: []etrans.Segment{{Port: c.FAMs[0].ID(), Addr: 0x8000, Size: 64}},
				Dst: []etrans.Segment{{Port: c.FAMs[1].ID(), Addr: 0x9000, Size: 64}},
			})
		})
		c.Run()
		for i := uint64(0); i < 8; i++ {
			if got := c.FAMs[1].DRAM().Store().Read64(0x9000 + i*8); got != 1000+i {
				t.Fatalf("shards=%d: migrated word %d = %d, want %d", shards, i, got, 1000+i)
			}
		}
		raw, err := c.Stats().Snapshot().MarshalJSONIndent()
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = raw
			continue
		}
		if !bytes.Equal(raw, ref) {
			t.Errorf("shards=%d snapshot differs from one domain:\n%s", shards, firstDiff(ref, raw))
		}
	}
}

// TestClusterShardedArbiter pins the arbiter in its home domain: eight
// hosts on a four-switch ring reserve 2 KiB bulk writes against the
// 4 KiB per-destination window, so grants queue, query the window, and
// one host runs an arbitrated etrans migration. The stats snapshot,
// arbiter counters included, must be byte-identical at Shards 1, 2 and
// 4, with AIMD off and on.
func TestClusterShardedArbiter(t *testing.T) {
	for _, aimd := range []bool{false, true} {
		t.Run(fmt.Sprintf("aimd=%v", aimd), func(t *testing.T) {
			var ref []byte
			for _, shards := range []int{1, 2, 4} {
				c, err := New(Config{
					Hosts: 8, FAMs: 2, FAMCapacity: 1 << 24, Shards: shards,
					Agents: true, Arbiter: true,
					Topology: &fabric.TopoSpec{Kind: fabric.TopoRing, Groups: 4},
					ArbiterConfig: func() arbiter.Config {
						ac := arbiter.DefaultConfig()
						ac.AIMD, ac.MinWindow = aimd, 2048
						return ac
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				guardEvents(c)
				for hi, h := range c.Hosts {
					cl, ep := c.ArbiterClient(h), h.Endpoint()
					h.Engine().Go(h.Name()+"/bulk", func(p *sim.Proc) {
						for k := 0; k < 16; k++ {
							fam := c.FAMs[(hi+k)%2].ID()
							addr := uint64(hi*16+k) * 2048
							cl.WithReservationP(p, fam, 2048, func() {
								ep.BulkWrite(fam, addr, 2048).MustAwait(p)
							})
							if k%4 == 3 {
								cl.QueryP(p, fam)
							}
							p.Sleep(sim.Time(hi*53+k*11) * sim.Nanosecond)
						}
					})
				}
				for i := uint64(0); i < 8; i++ {
					c.FAMs[0].DRAM().Store().Write64(0x800000+i*8, 7000+i)
				}
				h := c.Hosts[5]
				et := c.NewETrans(h)
				h.Engine().Go("etrans", func(p *sim.Proc) {
					p.Sleep(3*sim.Microsecond + 29)
					et.SubmitP(p, &etrans.Request{
						Src: []etrans.Segment{{Port: c.FAMs[0].ID(), Addr: 0x800000, Size: 64}},
						Dst: []etrans.Segment{{Port: c.FAMs[1].ID(), Addr: 0x900000, Size: 64}},
					})
				})
				c.Run()
				for i := uint64(0); i < 8; i++ {
					if got := c.FAMs[1].DRAM().Store().Read64(0x900000 + i*8); got != 7000+i {
						t.Fatalf("shards=%d: migrated word %d = %d, want %d", shards, i, got, 7000+i)
					}
				}
				if q := c.Arbiter.Queued.Value(); q == 0 {
					t.Fatalf("shards=%d: no grant queued; the window was never contended", shards)
				}
				raw, err := c.Stats().Snapshot().MarshalJSONIndent()
				if err != nil {
					t.Fatal(err)
				}
				if ref == nil {
					ref = raw
					continue
				}
				if !bytes.Equal(raw, ref) {
					t.Errorf("shards=%d snapshot differs from one domain:\n%s", shards, firstDiff(ref, raw))
				}
			}
		})
	}
}
