// Package fault is the deterministic fault-injection engine for the
// composable infrastructure (§3, Difference #5: node failures become
// *partial* failures with a quantifiable blast radius). It defines a
// unified Injectable interface that every failable fabric component
// implements — links (flap, lane degradation, credit leak), switches
// (crash), FAM/pooled-memory devices (fail), and FAA chassis (kill) —
// plus declarative, seed-reproducible FaultPlans and an Injector, the
// one way a fault is scheduled.
//
// Determinism is the design center: a plan is a list of (time, target,
// fault) events, and random plans are generated from the injector's
// seeded RNG, so the same seed always produces the same failure
// history — which is what makes blast-radius measurements and
// route-around tests byte-reproducible. Every inject and heal is armed
// when the plan is scheduled, on the engine that owns each side of its
// target, so a plan runs the same on one engine and on a cluster split
// into failure domains.
package fault

import (
	"fmt"
	"sort"

	"fcc/internal/flit"
	"fcc/internal/sim"
)

// Kind classifies an injectable fault.
type Kind uint8

// Fault kinds. Each component supports a subset (see Supports).
const (
	// LinkDown takes both directions of a link offline: transmission
	// pauses (flits already on the wire still land) until healed. A
	// down+heal pair models a link flap.
	LinkDown Kind = iota
	// LaneDegrade multiplies a link's serialization time by Factor,
	// modelling lane failures that renegotiate the link to a narrower
	// bifurcation (x16 -> x4 is Factor 4).
	LaneDegrade
	// SwitchCrash kills a fabric switch: packets arriving or held under
	// backpressure are dropped until healed.
	SwitchCrash
	// DeviceFail power-fences a FAM/pooled-memory device: in-flight work
	// is lost and requests are silently dropped (the initiator's typed
	// timeout is the only failure signal, as on real fabrics).
	DeviceFail
	// ChassisKill is an FAA chassis power loss: in-flight handler work
	// dies, later invocations are rejected until healed.
	ChassisKill
	// CreditLeak removes Credits flow-control credits from one virtual
	// channel of a link, modelling a credit-accounting bug or a lost
	// credit update; healing restores exactly the leaked amount.
	CreditLeak

	numKinds
)

// String names the fault kind.
func (k Kind) String() string {
	switch k {
	case LinkDown:
		return "link-down"
	case LaneDegrade:
		return "lane-degrade"
	case SwitchCrash:
		return "switch-crash"
	case DeviceFail:
		return "device-fail"
	case ChassisKill:
		return "chassis-kill"
	case CreditLeak:
		return "credit-leak"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Fault is one injectable condition: a kind plus its parameters.
type Fault struct {
	Kind Kind
	// Factor is LaneDegrade's serialization multiplier (>= 2).
	Factor int
	// Credits is the number of credits CreditLeak removes.
	Credits int
	// VC is the virtual channel CreditLeak drains.
	VC int
}

// Validate checks the parameters of f's kind: LaneDegrade needs
// Factor >= 2, CreditLeak needs Credits > 0 and a VC in
// [0, flit.NumChannels).
func (f Fault) Validate() error {
	switch {
	case f.Kind == LaneDegrade && f.Factor < 2:
		return fmt.Errorf("fault: lane degrade needs Factor >= 2, got %d", f.Factor)
	case f.Kind == CreditLeak && f.Credits <= 0:
		return fmt.Errorf("fault: credit leak needs Credits > 0, got %d", f.Credits)
	case f.Kind == CreditLeak && (f.VC < 0 || f.VC >= flit.NumChannels):
		return fmt.Errorf("fault: credit leak VC %d out of range", f.VC)
	}
	return nil
}

// Injectable is a fabric component that can host injected faults. Every
// implementation must be addressable by a stable, unique FaultID so
// declarative plans survive topology refactors.
//
// A component has one side per engine it runs on: a switch, FAM or FAA
// has one, a link two (A, B), which may sit in different failure
// domains. A fault is applied to every side, each on its own engine at
// the same virtual instant — how the two ends of a severed cable notice
// the cut on their own. Side 0 is the home side.
type Injectable interface {
	// FaultID is the stable name the injector addresses this component by
	// (switch name, link name, chassis name).
	FaultID() string
	// Supports reports whether the component can host faults of kind k.
	Supports(k Kind) bool
	// Sides reports the engine each side runs on, home side first.
	Sides() []*sim.Engine
	// InjectFault applies side's share of f. The Injector passes only
	// kinds Supports accepts, with parameters Fault.Validate accepts;
	// an error counts as an inject error.
	InjectFault(side int, f Fault) error
	// HealFault clears side's share of the fault of kind k (a no-op if
	// none is active).
	HealFault(side int, k Kind) error
}

// Event is one scheduled fault in a plan.
type Event struct {
	// At is the absolute simulation time of injection (or of healing,
	// with Heal set).
	At sim.Time
	// Target is the FaultID of the component to fault.
	Target string
	// Fault is the condition to apply.
	Fault Fault
	// Duration, when > 0, schedules automatic healing at At+Duration;
	// zero means the fault persists until a Heal event clears it.
	Duration sim.Time
	// Heal makes the event clear the oldest live fault of kind
	// Fault.Kind on Target instead of injecting one.
	Heal bool
}

// Plan is a declarative fault schedule. Build one with the fluent
// helpers, then hand it to Injector.Schedule.
type Plan struct {
	Name   string
	Events []Event
}

// NewPlan returns an empty named plan.
func NewPlan(name string) *Plan { return &Plan{Name: name} }

// Add appends an event.
func (p *Plan) Add(ev Event) *Plan {
	p.Events = append(p.Events, ev)
	return p
}

// KillSwitch crashes a switch at time at, recovering after dur (0 = forever).
func (p *Plan) KillSwitch(at sim.Time, target string, dur sim.Time) *Plan {
	return p.Add(Event{At: at, Target: target, Fault: Fault{Kind: SwitchCrash}, Duration: dur})
}

// FlapLink takes a link down at time at, restoring it after dur.
func (p *Plan) FlapLink(at sim.Time, target string, dur sim.Time) *Plan {
	return p.Add(Event{At: at, Target: target, Fault: Fault{Kind: LinkDown}, Duration: dur})
}

// DegradeLanes slows a link's serialization by factor from at for dur.
func (p *Plan) DegradeLanes(at sim.Time, target string, factor int, dur sim.Time) *Plan {
	return p.Add(Event{At: at, Target: target, Fault: Fault{Kind: LaneDegrade, Factor: factor}, Duration: dur})
}

// FailDevice power-fences a memory device at time at for dur.
func (p *Plan) FailDevice(at sim.Time, target string, dur sim.Time) *Plan {
	return p.Add(Event{At: at, Target: target, Fault: Fault{Kind: DeviceFail}, Duration: dur})
}

// KillChassis kills an FAA chassis at time at for dur.
func (p *Plan) KillChassis(at sim.Time, target string, dur sim.Time) *Plan {
	return p.Add(Event{At: at, Target: target, Fault: Fault{Kind: ChassisKill}, Duration: dur})
}

// LeakCredits removes credits from VC vc of a link at time at, restoring
// them after dur.
func (p *Plan) LeakCredits(at sim.Time, target string, vc, credits int, dur sim.Time) *Plan {
	return p.Add(Event{At: at, Target: target,
		Fault: Fault{Kind: CreditLeak, VC: vc, Credits: credits}, Duration: dur})
}

// Sort orders events by injection time (stable, so same-time events keep
// insertion order). Scheduling does not require it; rendering does.
func (p *Plan) Sort() *Plan {
	sort.SliceStable(p.Events, func(i, j int) bool { return p.Events[i].At < p.Events[j].At })
	return p
}

// String renders the plan as one line per event.
func (p *Plan) String() string {
	s := fmt.Sprintf("plan %q (%d events)\n", p.Name, len(p.Events))
	for _, ev := range p.Events {
		s += fmt.Sprintf("  t=%-12v %-12s %v", ev.At, ev.Fault.Kind, ev.Target)
		if ev.Heal {
			s += " (heal)"
		} else if ev.Duration > 0 {
			s += fmt.Sprintf(" (heal after %v)", ev.Duration)
		}
		s += "\n"
	}
	return s
}
