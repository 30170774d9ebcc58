package fabric

import (
	"fcc/internal/fault"
	"fcc/internal/sim"
)

// StormPlan builds a correlated failure storm over a set of switches —
// the "pod loses power" scenario ROADMAP's failure-storm item names:
// switch i of the set crashes at `at + i*stagger`, and every
// inter-switch link touching the set flaps at the instant its first
// in-set endpoint dies (a dying switch takes its optics down with it).
// Everything heals after dur (0 = the storm is permanent).
//
// The plan is deterministic: events are emitted in switch-set order
// then ISL creation order, all at explicit virtual times.
func StormPlan(b *Builder, name string, switches []*Switch, at, stagger, dur sim.Time) *fault.Plan {
	plan := fault.NewPlan(name)
	killAt := make(map[int]sim.Time, len(switches))
	for i, sw := range switches {
		t := at + sim.Time(i)*stagger
		killAt[sw.idx] = t
		plan.KillSwitch(t, sw.name, dur)
	}
	for _, l := range b.links {
		ta, inA := killAt[l.a.idx]
		tb, inB := killAt[l.b.idx]
		switch {
		case inA && inB:
			if tb < ta {
				ta = tb
			}
		case inB:
			ta = tb
		case !inA:
			continue
		}
		plan.FlapLink(ta, l.link.FaultID(), dur)
	}
	return plan
}

// PodSwitches returns the generated fat-tree pod p's switches (edge
// then aggregation) — the natural blast unit for StormPlan. For a
// dragonfly it returns group p's routers, for a ring pod p's switches,
// and a line is pod 0 holding every switch.
func (t *Topology) PodSwitches(p int) []*Switch {
	switch {
	case t.Spec.Kind != TopoFatTree:
		a := t.Spec.Pods
		return t.Edge[p*a : (p+1)*a]
	case t.Spec.Tiers == 2:
		return t.Edge[p : p+1]
	default:
		half := t.Spec.Radix / 2
		out := make([]*Switch, 0, 2*half)
		out = append(out, t.Edge[p*half:(p+1)*half]...)
		out = append(out, t.Agg[p*half:(p+1)*half]...)
		return out
	}
}
