package fabric

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"fcc/internal/fault"
	"fcc/internal/flit"
	"fcc/internal/link"
	"fcc/internal/sim"
	"fcc/internal/txn"
)

// ring4 builds fs0..fs3 closed into a ring, an initiator on fs0, and an
// echo device on fs2 — so host->device flows have two equal-cost
// two-hop paths and any single transit-switch loss is route-aroundable.
func ring4(t *testing.T) (*sim.Engine, *Builder, *txn.Endpoint, *txn.Endpoint, []*Switch) {
	t.Helper()
	eng := sim.NewEngine()
	b := NewBuilder(eng)
	var sws []*Switch
	for i := 0; i < 4; i++ {
		sws = append(sws, b.AddSwitch(fmt.Sprintf("fs%d", i), DefaultSwitchConfig()))
	}
	for i := 0; i < 4; i++ {
		if err := b.ConnectSwitches(sws[i], sws[(i+1)%4], link.DefaultConfig()); err != nil {
			t.Fatal(err)
		}
	}
	ha, err := b.AttachEndpoint(sws[0], "h", RoleHost, link.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	da, err := b.AttachEndpoint(sws[2], "d", RoleFAM, link.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := txn.NewEndpoint(eng, ha.ID, ha.Port, 0)
	ha.Port.SetSink(h)
	d := txn.NewEndpoint(eng, da.ID, da.Port, 0)
	da.Port.SetSink(d)
	d.Handler = func(req *flit.Packet, reply func(*flit.Packet)) {
		eng.After(100*sim.Nanosecond, func() { reply(req.Response(flit.OpMemRdData, 64)) })
	}
	if err := b.Discover(); err != nil {
		t.Fatal(err)
	}
	return eng, b, h, d, sws
}

// newInjector registers every switch and ISL of the ring with a fresh
// injector.
func newInjector(b *Builder, seed uint64) *fault.Injector {
	in := fault.NewInjector(seed)
	for _, sw := range b.Switches() {
		in.Register(sw)
	}
	for _, l := range b.ISLLinks() {
		in.Register(l)
	}
	return in
}

// TestManagerRoutesAroundEachSwitchKill kills each of the four switches
// in turn under continuous retried traffic. Every request must either
// commit (via the alternate ring direction once the manager reroutes)
// or surface a typed error — nothing may wedge or vanish. Transit
// switches (fs1, fs3) must additionally lose zero requests.
func TestManagerRoutesAroundEachSwitchKill(t *testing.T) {
	for victim := 0; victim < 4; victim++ {
		victim := victim
		t.Run(fmt.Sprintf("kill-fs%d", victim), func(t *testing.T) {
			eng, b, h, d, sws := ring4(t)
			m := NewManager(eng, b, DefaultManagerConfig())
			in := newInjector(b, 1)
			// The outage must outlast the whole retry budget (~110us: four
			// 10us timeouts plus 10/20/40us backoffs), or bounded retry
			// alone rides out even an endpoint-home switch kill and no
			// typed error ever surfaces.
			plan := fault.NewPlan("kill-one")
			plan.KillSwitch(20*sim.Microsecond, sws[victim].Name(), 250*sim.Microsecond)
			if err := in.Schedule(plan); err != nil {
				t.Fatal(err)
			}
			h.Timeout = 10 * sim.Microsecond

			const ops = 40
			committed, typed := 0, 0
			eng.Go("load", func(p *sim.Proc) {
				for i := 0; i < ops; i++ {
					_, err := h.RequestRetry(&flit.Packet{
						Chan: flit.ChMem, Op: flit.OpMemRd, Dst: d.ID(), Addr: uint64(i) * 64,
					}, 4, 10*sim.Microsecond).Await(p)
					switch {
					case err == nil:
						committed++
					case errors.Is(err, txn.ErrTimeout) || errors.Is(err, txn.ErrDeviceDown):
						typed++
					default:
						t.Errorf("op %d: untyped error %v", i, err)
					}
					p.Sleep(2 * sim.Microsecond)
				}
			})
			eng.Run()

			if committed+typed != ops {
				t.Fatalf("accounting: %d committed + %d typed != %d issued", committed, typed, ops)
			}
			if m.Reroutes.Value() == 0 {
				t.Fatal("manager never rerouted")
			}
			transit := victim == 1 || victim == 3
			if transit && typed != 0 {
				t.Fatalf("lost %d requests to a route-aroundable transit kill", typed)
			}
			if !transit && typed == 0 {
				t.Fatal("endpoint-home switch died yet no request failed — outage not exercised")
			}
			if committed == 0 {
				t.Fatal("nothing committed")
			}
		})
	}
}

// TestManagerDetectsRecovery verifies the heal half: after the victim
// revives, the manager re-admits it and traffic flows clean again.
func TestManagerDetectsRecovery(t *testing.T) {
	eng, b, h, d, sws := ring4(t)
	m := NewManager(eng, b, DefaultManagerConfig())
	in := newInjector(b, 1)
	if err := in.Schedule(fault.NewPlan("flap").
		KillSwitch(20*sim.Microsecond, sws[1].Name(), 50*sim.Microsecond)); err != nil {
		t.Fatal(err)
	}
	h.Timeout = 10 * sim.Microsecond
	var postHeal error
	eng.Go("probe", func(p *sim.Proc) {
		p.Sleep(100 * sim.Microsecond) // well past heal + recovery sweep
		_, postHeal = h.Request(&flit.Packet{Chan: flit.ChMem, Op: flit.OpMemRd, Dst: d.ID()}).Await(p)
	})
	eng.Run()
	if postHeal != nil {
		t.Fatalf("post-heal request failed: %v", postHeal)
	}
	if m.Recoveries.Value() == 0 {
		t.Fatal("manager never observed the recovery")
	}
	if dead := m.DeadSwitches(); len(dead) != 0 {
		t.Fatalf("switches still declared dead after heal: %v", dead)
	}
	if m.SwitchesFailed.Value() != 1 {
		t.Fatalf("switches_failed = %d, want 1", m.SwitchesFailed.Value())
	}
	if m.TimeToReroute.Count() == 0 {
		t.Fatal("no time-to-reroute observation recorded")
	}
}

// managerChaosRun drives a seeded random fault plan under retried load
// and returns the full stats snapshot as bytes plus the manager (for
// unexported repair-path accounting).
func managerChaosRun(t *testing.T, seed uint64, mcfg ManagerConfig) ([]byte, *Manager) {
	t.Helper()
	eng, b, h, d, _ := ring4(t)
	m := NewManager(eng, b, mcfg)
	in := newInjector(b, seed)
	plan := in.RandomPlan("chaos", 6, 150*sim.Microsecond,
		fault.SwitchCrash, fault.LinkDown, fault.LaneDegrade)
	if err := in.Schedule(plan); err != nil {
		t.Fatal(err)
	}
	h.Timeout = 10 * sim.Microsecond
	eng.Go("load", func(p *sim.Proc) {
		for i := 0; i < 30; i++ {
			_, err := h.RequestRetry(&flit.Packet{
				Chan: flit.ChMem, Op: flit.OpMemRd, Dst: d.ID(), Addr: uint64(i) * 64,
			}, 4, 10*sim.Microsecond).Await(p)
			if err != nil && !errors.Is(err, txn.ErrTimeout) && !errors.Is(err, txn.ErrDeviceDown) {
				t.Errorf("op %d: untyped error %v", i, err)
			}
			p.Sleep(3 * sim.Microsecond)
		}
	})
	eng.Run()

	root := sim.NewStats("ring")
	for _, sw := range b.Switches() {
		sw.RegisterStats(root.Child(sw.Name()))
	}
	h.RegisterStats(root.Child("h"))
	d.RegisterStats(root.Child("d"))
	m.RegisterStats(root.Child("manager"))
	in.RegisterStats(root.Child("fault"))
	raw, err := root.Snapshot().MarshalJSONIndent()
	if err != nil {
		t.Fatal(err)
	}
	return raw, m
}

// TestManagerChaosIsSeedDeterministic runs the identical seeded chaos
// scenario twice: the stats snapshots must be byte-identical, and a
// different seed must not reproduce them.
func TestManagerChaosIsSeedDeterministic(t *testing.T) {
	a, _ := managerChaosRun(t, 11, DefaultManagerConfig())
	bb, _ := managerChaosRun(t, 11, DefaultManagerConfig())
	if !bytes.Equal(a, bb) {
		t.Fatal("same seed produced different stats snapshots")
	}
	if c, _ := managerChaosRun(t, 12, DefaultManagerConfig()); bytes.Equal(a, c) {
		t.Fatal("different seed reproduced the identical snapshot")
	}
}

// TestManagerIncrementalMatchesFullRecompute runs the same seeded chaos
// scenario in the manager's incremental-repair mode (the default) and
// with FullRecompute forced: the snapshots must be byte-identical for
// every seed, and the incremental runs must actually have exercised the
// repair path (not silently fallen back to full re-fills).
func TestManagerIncrementalMatchesFullRecompute(t *testing.T) {
	full := DefaultManagerConfig()
	full.FullRecompute = true
	tookRepairPath := false
	for _, seed := range []uint64{11, 12, 13} {
		inc, m := managerChaosRun(t, seed, DefaultManagerConfig())
		ful, mf := managerChaosRun(t, seed, full)
		if !bytes.Equal(inc, ful) {
			t.Fatalf("seed %d: incremental vs full-recompute snapshots differ", seed)
		}
		if m.repairs > 0 {
			tookRepairPath = true
		}
		if mf.repairs != 0 {
			t.Fatalf("seed %d: FullRecompute mode took %d incremental repairs", seed, mf.repairs)
		}
	}
	if !tookRepairPath {
		t.Fatal("no seed exercised the incremental repair path")
	}
}
