package fault

import (
	"strings"
	"testing"

	"fcc/internal/sim"
)

// fakeTarget is a minimal Injectable for driving the injector: one
// side per engine it is given.
type fakeTarget struct {
	id     string
	engs   []*sim.Engine
	kinds  map[Kind]bool
	active map[Kind]bool
	// failApply makes every InjectFault error after validation passed.
	failApply bool
}

func newFake(eng *sim.Engine, id string, kinds ...Kind) *fakeTarget {
	f := &fakeTarget{id: id, engs: []*sim.Engine{eng}, kinds: make(map[Kind]bool), active: make(map[Kind]bool)}
	for _, k := range kinds {
		f.kinds[k] = true
	}
	return f
}

func (f *fakeTarget) FaultID() string      { return f.id }
func (f *fakeTarget) Supports(k Kind) bool { return f.kinds[k] }
func (f *fakeTarget) Sides() []*sim.Engine { return f.engs }

func (f *fakeTarget) InjectFault(_ int, ft Fault) error {
	if !f.kinds[ft.Kind] || f.failApply {
		return errTest("cannot apply " + ft.Kind.String())
	}
	f.active[ft.Kind] = true
	return nil
}

func (f *fakeTarget) HealFault(_ int, k Kind) error {
	if !f.kinds[k] {
		return errTest("unsupported " + k.String())
	}
	delete(f.active, k)
	return nil
}

type errTest string

func (e errTest) Error() string { return string(e) }

func TestScheduleAppliesAndAutoHeals(t *testing.T) {
	eng := sim.NewEngine()
	in := NewInjector(1)
	tgt := newFake(eng, "sw0", SwitchCrash)
	in.Register(tgt)

	plan := NewPlan("one-crash").KillSwitch(100*sim.Nanosecond, "sw0", 50*sim.Nanosecond)
	if err := in.Schedule(plan); err != nil {
		t.Fatal(err)
	}
	eng.At(120*sim.Nanosecond, func() {
		if !tgt.active[SwitchCrash] {
			t.Error("fault not active mid-window")
		}
		if in.Active() != 1 {
			t.Errorf("Active() = %d mid-window, want 1", in.Active())
		}
	})
	eng.Run()
	if tgt.active[SwitchCrash] {
		t.Fatal("fault still active after auto-heal")
	}
	if in.Injected() != 1 || in.Healed() != 1 || in.InjectErrors() != 0 {
		t.Fatalf("injected/healed/errors = %d/%d/%d, want 1/1/0",
			in.Injected(), in.Healed(), in.InjectErrors())
	}
	if h := in.ActiveNs(); h.Count() != 1 || h.Mean() != 50 {
		t.Fatalf("fault lifetime histogram: count %d mean %.0fns, want 1/50ns", h.Count(), h.Mean())
	}
}

// TestZeroDurationFaultPersists pins that a zero-duration fault stays
// until a Heal event clears it, and that the heal records the fault's
// real lifetime — the time since its inject, not zero.
func TestZeroDurationFaultPersists(t *testing.T) {
	eng := sim.NewEngine()
	in := NewInjector(1)
	tgt := newFake(eng, "fam0", DeviceFail)
	in.Register(tgt)
	if err := in.Schedule(NewPlan("p").FailDevice(10*sim.Nanosecond, "fam0", 0)); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !tgt.active[DeviceFail] {
		t.Fatal("zero-duration fault healed itself")
	}
	heal := NewPlan("heal").Add(Event{At: 500 * sim.Nanosecond, Target: "fam0",
		Fault: Fault{Kind: DeviceFail}, Heal: true})
	if err := in.Schedule(heal); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if tgt.active[DeviceFail] {
		t.Fatal("heal event did not clear the fault")
	}
	if in.Healed() != 1 || in.Active() != 0 {
		t.Fatalf("healed/active = %d/%d, want 1/0", in.Healed(), in.Active())
	}
	if h := in.ActiveNs(); h.Count() != 1 || h.Mean() != 490 {
		t.Fatalf("fault lifetime histogram: count %d mean %.0fns, want 1/490ns", h.Count(), h.Mean())
	}
}

func TestScheduleValidatesUpFront(t *testing.T) {
	eng := sim.NewEngine()
	in := NewInjector(1)
	in.Register(newFake(eng, "sw0", SwitchCrash))

	if err := in.Schedule(NewPlan("p").KillSwitch(0, "nope", 0)); err == nil ||
		!strings.Contains(err.Error(), "unknown target") {
		t.Fatalf("unknown target: err = %v", err)
	}
	if err := in.Schedule(NewPlan("p").FlapLink(0, "sw0", 0)); err == nil ||
		!strings.Contains(err.Error(), "does not support") {
		t.Fatalf("unsupported kind: err = %v", err)
	}
	eng.At(100*sim.Nanosecond, func() {
		if err := in.Schedule(NewPlan("p").KillSwitch(50*sim.Nanosecond, "sw0", 0)); err == nil ||
			!strings.Contains(err.Error(), "in the past") {
			t.Errorf("past event: err = %v", err)
		}
	})
	eng.Run()
}

// TestScheduleRejectsBadParameters pins Fault.Validate at schedule
// time: a fault whose parameters its target would refuse errors there,
// instead of passing and then failing silently when it fires.
func TestScheduleRejectsBadParameters(t *testing.T) {
	eng := sim.NewEngine()
	in := NewInjector(1)
	in.Register(newFake(eng, "l0", LinkDown, LaneDegrade, CreditLeak))
	for _, c := range []struct {
		name string
		plan *Plan
	}{
		{"factor 1", NewPlan("p").DegradeLanes(10, "l0", 1, 0)},
		{"zero credits", NewPlan("p").LeakCredits(10, "l0", 0, 0, 0)},
		{"VC too high", NewPlan("p").LeakCredits(10, "l0", 99, 1, 0)},
		{"VC negative", NewPlan("p").LeakCredits(10, "l0", -1, 1, 0)},
	} {
		if err := in.Schedule(c.plan); err == nil {
			t.Errorf("%s: Schedule accepted %+v", c.name, c.plan.Events[0].Fault)
		}
	}
	// A heal names only a kind: its parameters are not checked.
	heal := NewPlan("p").Add(Event{At: 10, Target: "l0", Fault: Fault{Kind: LaneDegrade}, Heal: true})
	if err := in.Schedule(heal); err != nil {
		t.Fatalf("heal event rejected: %v", err)
	}
	eng.Run()
	if in.Injected() != 0 || in.InjectErrors() != 0 {
		t.Fatalf("injected/errors = %d/%d, want 0/0", in.Injected(), in.InjectErrors())
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	eng := sim.NewEngine()
	in := NewInjector(1)
	in.Register(newFake(eng, "sw0", SwitchCrash))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate FaultID registration did not panic")
		}
	}()
	in.Register(newFake(eng, "sw0", SwitchCrash))
}

// TestInjectErrorsAreCounted drives a target that refuses a valid
// fault when it fires: the error is counted, not silently dropped, and
// the fault's automatic heal is skipped, since nothing is live.
func TestInjectErrorsAreCounted(t *testing.T) {
	eng := sim.NewEngine()
	in := NewInjector(1)
	tgt := newFake(eng, "l0", LinkDown)
	tgt.failApply = true
	in.Register(tgt)
	if err := in.Schedule(NewPlan("p").FlapLink(10, "l0", 100)); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if in.InjectErrors() != 1 || in.Injected() != 0 || in.Healed() != 0 || in.Active() != 0 {
		t.Fatalf("errors/injected/healed/active = %d/%d/%d/%d, want 1/0/0/0",
			in.InjectErrors(), in.Injected(), in.Healed(), in.Active())
	}
}

// TestTwoSidedTargetCountsOnce pins the per-side contract: a target
// with a side on each of two engines gets every inject and heal on
// both, each on its own engine at the same instant, while the
// blast-radius stats count each event once.
func TestTwoSidedTargetCountsOnce(t *testing.T) {
	a, b := sim.NewEngine(), sim.NewEngine()
	in := NewInjector(1)
	tgt := newFake(a, "l0", LinkDown)
	tgt.engs = append(tgt.engs, b)
	in.Register(tgt)
	if err := in.Schedule(NewPlan("p").FlapLink(100, "l0", 50)); err != nil {
		t.Fatal(err)
	}
	a.Run()
	b.Run()
	if a.Now() != 150 || b.Now() != 150 || tgt.active[LinkDown] {
		t.Fatalf("sides ended at %v and %v, fault active %v; want both healed at 150",
			a.Now(), b.Now(), tgt.active[LinkDown])
	}
	st := sim.NewStats("fault")
	in.RegisterStats(st)
	snap := st.Snapshot()
	if snap.Counters["injected"] != 1 || snap.Counters["healed"] != 1 || snap.Gauges["active"] != 0 {
		t.Fatalf("counters %v gauges %v, want injected 1, healed 1, active 0", snap.Counters, snap.Gauges)
	}
	if h := snap.Histograms["fault_active_ns"]; h.Count != 1 {
		t.Fatalf("fault_active_ns has %d samples, want 1", h.Count)
	}
}

func TestRandomPlanIsSeedDeterministic(t *testing.T) {
	build := func(seed uint64) string {
		eng := sim.NewEngine()
		in := NewInjector(seed)
		in.Register(
			newFake(eng, "sw0", SwitchCrash),
			newFake(eng, "sw1", SwitchCrash),
			newFake(eng, "l0", LinkDown, LaneDegrade, CreditLeak),
			newFake(eng, "fam0", DeviceFail),
			newFake(eng, "faa0", ChassisKill),
		)
		return in.RandomPlan("chaos", 24, 500*sim.Microsecond).String()
	}
	a, b := build(42), build(42)
	if a != b {
		t.Fatalf("same seed produced different plans:\n%s\nvs\n%s", a, b)
	}
	if c := build(43); c == a {
		t.Fatal("different seeds produced identical plans")
	}
}

func TestRandomPlanIsSchedulable(t *testing.T) {
	eng := sim.NewEngine()
	in := NewInjector(7)
	tgts := []*fakeTarget{
		newFake(eng, "sw0", SwitchCrash),
		newFake(eng, "l0", LinkDown, LaneDegrade, CreditLeak),
		newFake(eng, "fam0", DeviceFail),
	}
	for _, tg := range tgts {
		in.Register(tg)
	}
	p := in.RandomPlan("chaos", 16, 200*sim.Microsecond)
	if len(p.Events) != 16 {
		t.Fatalf("plan has %d events, want 16", len(p.Events))
	}
	if err := in.Schedule(p); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if in.Injected() != 16 || in.Healed() != 16 {
		t.Fatalf("injected/healed = %d/%d, want 16/16", in.Injected(), in.Healed())
	}
	if in.Active() != 0 {
		t.Fatalf("Active() = %d after all heals", in.Active())
	}
}
