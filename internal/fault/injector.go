package fault

import (
	"cmp"
	"fmt"
	"slices"

	"fcc/internal/sim"
)

// Injector schedules fault plans against registered components. It owns
// a seeded RNG (for RandomPlan) and the blast-radius bookkeeping shared
// by every experiment: counts of injections and heals per kind, the
// number of currently active faults, and a histogram of how long each
// fault was live before it healed.
//
// The bookkeeping is kept per domain — one engine's sides, written only
// by events on that engine — and summed when read, so one Injector
// serves a serial cluster and a sharded one alike.
type Injector struct {
	rng     *sim.RNG
	targets map[string]*target
	// names carries registration order: every sweep over the target set
	// (RandomPlan's kind/target scans) iterates names, never the targets
	// map, so plans are seed-deterministic (fcclint: maporder).
	names   []string
	domains []*domain // one per engine, in first-seen order
	heals   int       // heals armed so far: the lifetime replay's tie-break
}

// target is a registered component plus, per side, the injection times
// of its live faults by kind, oldest first. Side i's entry is touched
// only by events on side i's engine.
type target struct {
	Injectable
	sides []*domain
	live  [][numKinds][]sim.Time
}

// Per-domain counts. An event counts once, on its target's home side;
// an apply error counts on the side where it happened.
const (
	cInjected = iota
	cHealed
	cErrors
	cKind   // cKind+k counts injections of kind k
	nCounts = cKind + int(numKinds)
)

// domain is the bookkeeping of the sides that run on one engine.
type domain struct {
	eng       *sim.Engine
	n         [nCounts]int64
	lifetimes []lifetime
}

// lifetime is one healed fault's live time, keyed by the instant its
// heal fired and the order the heal was armed in — the order one engine
// fires same-instant heals in.
type lifetime struct {
	at  sim.Time
	seq int
	d   sim.Time
}

// NewInjector returns an empty injector, seeded for reproducible random
// plans.
func NewInjector(seed uint64) *Injector {
	return &Injector{
		rng:     sim.NewRNG(seed).Fork(0xfa017),
		targets: make(map[string]*target),
	}
}

// Register makes targets addressable by their FaultID. Duplicate IDs
// panic: a plan that silently hit the wrong component would be a
// miserable debugging session.
func (in *Injector) Register(targets ...Injectable) {
	for _, t := range targets {
		id := t.FaultID()
		if _, dup := in.targets[id]; dup {
			panic("fault: duplicate target registration: " + id)
		}
		engs := t.Sides()
		tg := &target{Injectable: t, sides: make([]*domain, len(engs)),
			live: make([][numKinds][]sim.Time, len(engs))}
		for i, eng := range engs {
			j := slices.IndexFunc(in.domains, func(d *domain) bool { return d.eng == eng })
			if j < 0 {
				j = len(in.domains)
				in.domains = append(in.domains, &domain{eng: eng})
			}
			tg.sides[i] = in.domains[j]
		}
		in.targets[id] = tg
		in.names = append(in.names, id)
	}
}

// Schedule validates the plan (every target registered and supporting
// its fault kind, every inject's parameters valid, no event in the
// past), then arms every event on each side's engine: an inject at At,
// a heal at At, and an inject's automatic heal at At+Duration. Validation
// is up-front so a typo'd target fails at schedule time, not halfway
// through a long run. On a cluster of several domains, call it between
// runs, never from an event.
func (in *Injector) Schedule(p *Plan) error {
	for _, ev := range p.Events {
		t, ok := in.targets[ev.Target]
		if !ok {
			return fmt.Errorf("fault: plan %q: unknown target %q", p.Name, ev.Target)
		}
		if !t.Supports(ev.Fault.Kind) {
			return fmt.Errorf("fault: plan %q: target %q does not support %v",
				p.Name, ev.Target, ev.Fault.Kind)
		}
		if now := t.sides[0].eng.Now(); ev.At < now {
			return fmt.Errorf("fault: plan %q: event at %v is in the past (now %v)",
				p.Name, ev.At, now)
		}
		if err := ev.Fault.Validate(); err != nil && !ev.Heal {
			return fmt.Errorf("fault: plan %q: target %q: %w", p.Name, ev.Target, err)
		}
	}
	for _, ev := range p.Events {
		if ev.Heal {
			in.armHeal(ev, -1)
			continue
		}
		t := in.targets[ev.Target]
		for side, d := range t.sides {
			d.eng.At(ev.At, func() { in.inject(t, side, ev.Fault) })
		}
	}
	// Automatic heals go last, after every event the plan arms at
	// their instant, as when they were armed by the inject firing.
	for _, ev := range p.Events {
		if !ev.Heal && ev.Duration > 0 {
			heal := ev
			heal.At += ev.Duration
			in.armHeal(heal, ev.At)
		}
	}
	return nil
}

// armHeal arms ev's heal on every side of its target. since picks the
// live fault it clears: the one injected then, or with since < 0 the
// oldest.
func (in *Injector) armHeal(ev Event, since sim.Time) {
	t, seq := in.targets[ev.Target], in.heals
	in.heals++
	for side, d := range t.sides {
		d.eng.At(ev.At, func() { in.heal(t, side, ev.Fault.Kind, since, seq) })
	}
}

func (in *Injector) inject(t *target, side int, f Fault) {
	d := t.sides[side]
	if err := t.InjectFault(side, f); err != nil {
		d.n[cErrors]++
		return
	}
	live := &t.live[side][f.Kind]
	*live = append(*live, d.eng.Now())
	if side == 0 {
		d.n[cInjected]++
		d.n[cKind+int(f.Kind)]++
	}
}

// heal clears one live fault of kind k on side of t (see armHeal). A
// side where that fault is not live — its inject failed, or a Heal
// event cleared it first — is left alone.
func (in *Injector) heal(t *target, side int, k Kind, since sim.Time, seq int) {
	live := &t.live[side][k]
	i := 0
	if since >= 0 {
		i = slices.Index(*live, since)
	}
	if i < 0 || i >= len(*live) {
		return
	}
	d := t.sides[side]
	if err := t.HealFault(side, k); err != nil {
		d.n[cErrors]++
		return
	}
	injectedAt := (*live)[i]
	*live = slices.Delete(*live, i, i+1)
	if side == 0 {
		d.n[cHealed]++
		now := d.eng.Now()
		d.lifetimes = append(d.lifetimes, lifetime{at: now, seq: seq, d: now - injectedAt})
	}
}

// RandomPlan builds a seed-deterministic chaos plan of n events spread
// over [0, horizon), each healing after between horizon/16 and horizon/6.
// Targets are drawn (in registration order) from the components that
// support the chosen kind; kinds defaults to every kind some registered
// target supports. Two injectors with the same seed, registrations, and
// arguments produce identical plans.
func (in *Injector) RandomPlan(name string, n int, horizon sim.Time, kinds ...Kind) *Plan {
	if len(kinds) == 0 {
		for k := Kind(0); k < numKinds; k++ {
			for _, id := range in.names {
				if in.targets[id].Supports(k) {
					kinds = append(kinds, k)
					break
				}
			}
		}
	}
	// Precompute, per kind, the targets that can host it.
	byKind := make([][]string, len(kinds))
	for i, k := range kinds {
		for _, id := range in.names {
			if in.targets[id].Supports(k) {
				byKind[i] = append(byKind[i], id)
			}
		}
	}
	p := NewPlan(name)
	for i := 0; i < n; i++ {
		ki := in.rng.Intn(len(kinds))
		if len(byKind[ki]) == 0 {
			continue
		}
		k := kinds[ki]
		f := Fault{Kind: k}
		switch k {
		case LaneDegrade:
			f.Factor = 2 << in.rng.Intn(3) // 2, 4, or 8
		case CreditLeak:
			f.Credits = 1 + in.rng.Intn(4)
		}
		minDur := horizon / 16
		p.Add(Event{
			At:       sim.Time(in.rng.Intn(int(horizon))),
			Target:   byKind[ki][in.rng.Intn(len(byKind[ki]))],
			Fault:    f,
			Duration: minDur + sim.Time(in.rng.Intn(int(horizon/6-minDur)+1)),
		})
	}
	return p.Sort()
}

// sum totals count i over every domain.
func (in *Injector) sum(i int) int64 {
	var n int64
	for _, d := range in.domains {
		n += d.n[i]
	}
	return n
}

// Injected reports the faults successfully applied.
func (in *Injector) Injected() int64 { return in.sum(cInjected) }

// Healed reports the faults successfully cleared.
func (in *Injector) Healed() int64 { return in.sum(cHealed) }

// InjectErrors reports the InjectFault/HealFault calls that errored.
func (in *Injector) InjectErrors() int64 { return in.sum(cErrors) }

// Active reports the number of currently injected, un-healed faults.
func (in *Injector) Active() int { return int(in.Injected() - in.Healed()) }

// ActiveNs replays every healed fault's lifetime into a fresh
// histogram, in the order one engine heals them, so its float sums read
// the same however the targets are split into domains.
func (in *Injector) ActiveNs() *sim.Histogram {
	var all []lifetime
	for _, d := range in.domains {
		all = append(all, d.lifetimes...)
	}
	slices.SortFunc(all, func(a, b lifetime) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq))
	})
	h := sim.NewHistogram()
	for _, l := range all {
		h.ObserveTime(l.d)
	}
	return h
}

// RegisterStats attaches the injector's blast-radius metrics, summed
// over every domain.
func (in *Injector) RegisterStats(s *sim.Stats) {
	counter := func(name string, i int) {
		s.CounterFunc(name, func() int64 { return in.sum(i) })
	}
	counter("injected", cInjected)
	counter("healed", cHealed)
	counter("inject_errors", cErrors)
	for k := Kind(0); k < numKinds; k++ {
		counter("injected_"+k.String(), cKind+int(k))
	}
	s.Gauge("active", func() int64 { return int64(in.Active()) })
	s.HistogramFunc("fault_active_ns", in.ActiveNs)
}
