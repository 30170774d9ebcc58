package fabric

import (
	"fmt"

	"fcc/internal/link"
)

// TopoKind selects a generated topology family.
type TopoKind uint8

const (
	// TopoFatTree is a folded-Clos fat-tree: Tiers == 2 builds a
	// leaf–spine, Tiers == 3 builds edge/aggregation pods under a core
	// tier — the multi-path datacenter fabric ECMP routing wants.
	TopoFatTree TopoKind = iota
	// TopoDragonfly is a two-level direct network: fully-meshed router
	// groups joined by one global link per group pair (diameter ≤ 3).
	TopoDragonfly
	// TopoLine is Pods switches in a line with every host on the first
	// switch — the Table 2 / Figure 1b rack.
	TopoLine
	// TopoRing is Groups pods of Pods switches, each pod a line, pod g's
	// last switch linked to pod g+1's first: with Pods == 1 a plain
	// switch ring, otherwise a ring of racks over long-haul links.
	TopoRing
)

// String names the topology kind.
func (k TopoKind) String() string {
	switch k {
	case TopoFatTree:
		return "fat-tree"
	case TopoDragonfly:
		return "dragonfly"
	case TopoLine:
		return "line"
	case TopoRing:
		return "ring"
	default:
		return fmt.Sprintf("TopoKind(%d)", uint8(k))
	}
}

// TopoSpec parameterizes a generated datacenter topology. The zero
// values of optional fields pick conventional defaults (see each field).
type TopoSpec struct {
	Kind TopoKind

	// Radix is the switch port budget k that drives inter-switch
	// fan-out: fat-tree tiers branch in k/2s; a dragonfly router's
	// intra-group mesh plus global channels must fit in k. Ignored for
	// line and ring. Endpoint attachment is not capped by Radix —
	// oversubscribed edges are a modeling choice, not an error.
	Radix int

	// Tiers is the fat-tree depth: 2 (leaf–spine) or 3 (pods + core).
	// Ignored for dragonfly. Default 3.
	Tiers int

	// Pods is, for a 3-tier fat-tree, the pod count (1..Radix: each
	// core switch spends one port per pod); for a 2-tier fat-tree the
	// leaf count (2..Radix, default Radix); for a dragonfly the routers
	// per group (default Radix/2); for a line the switch count and for
	// a ring the switches per pod (default 1).
	Pods int

	// Groups is the dragonfly group count (default Pods+1 — one global
	// channel per router) or the ring's pod count (≥ 2, required; 2
	// pods are joined by two parallel links). Ignored for fat-trees; a
	// line is always one group.
	Groups int

	// ISLConfig builds intra-pod / intra-group links (nil =
	// link.DefaultConfig).
	ISLConfig func() link.Config

	// LongHaulConfig builds the long links — aggregation↔core,
	// dragonfly global and ring pod-to-pod — (nil = ISLConfig). Raising
	// its propagation models cross-row optics, and under sharding widens
	// the coordinator's discovered lookahead for cuts riding those links.
	LongHaulConfig func() link.Config
}

// Topology is the result of Generate: the switches grouped by tier, in
// builder creation order (contiguous per pod/group, core tier last —
// the order contiguous shard assignment cuts cleanly).
type Topology struct {
	Spec TopoSpec
	All  []*Switch
	// Edge is the device-attachment tier: fat-tree edge/leaf switches,
	// every router for a dragonfly, every switch for a line or ring.
	Edge []*Switch
	// Hosts is the host-attachment set: a line's first switch, Edge for
	// every other kind.
	Hosts []*Switch
	Agg   []*Switch // 3-tier fat-tree aggregation switches
	Core  []*Switch // fat-tree core/spine switches
}

// normalized applies defaults and validates the spec.
func (s TopoSpec) normalized() (TopoSpec, error) {
	switch s.Kind {
	case TopoFatTree:
		if s.Tiers == 0 {
			s.Tiers = 3
		}
		if s.Tiers != 2 && s.Tiers != 3 {
			return s, fmt.Errorf("fabric: fat-tree needs Tiers 2 or 3, got %d", s.Tiers)
		}
		if s.Radix < 2 || s.Radix%2 != 0 {
			return s, fmt.Errorf("fabric: fat-tree needs an even Radix ≥ 2, got %d", s.Radix)
		}
		if s.Tiers == 2 {
			if s.Pods == 0 {
				s.Pods = s.Radix
			}
			if s.Pods < 2 || s.Pods > s.Radix {
				return s, fmt.Errorf("fabric: 2-tier fat-tree needs 2..Radix leaves, got %d (radix %d)", s.Pods, s.Radix)
			}
		} else {
			if s.Pods == 0 {
				s.Pods = s.Radix
			}
			if s.Pods < 1 || s.Pods > s.Radix {
				return s, fmt.Errorf("fabric: 3-tier fat-tree needs 1..Radix pods, got %d (radix %d)", s.Pods, s.Radix)
			}
		}
	case TopoDragonfly:
		if s.Radix < 2 {
			return s, fmt.Errorf("fabric: dragonfly needs Radix ≥ 2, got %d", s.Radix)
		}
		if s.Pods == 0 {
			s.Pods = s.Radix / 2
		}
		if s.Pods < 1 {
			return s, fmt.Errorf("fabric: dragonfly needs ≥ 1 router per group, got %d", s.Pods)
		}
		if s.Groups == 0 {
			s.Groups = s.Pods + 1
		}
		if s.Groups < 2 {
			return s, fmt.Errorf("fabric: dragonfly needs ≥ 2 groups, got %d", s.Groups)
		}
		a, g := s.Pods, s.Groups
		h := (g - 2 + a) / a // global channels per router, ceil((g-1)/a)
		if a-1+h > s.Radix {
			return s, fmt.Errorf("fabric: dragonfly router degree %d (mesh %d + global %d) exceeds radix %d",
				a-1+h, a-1, h, s.Radix)
		}
	case TopoLine, TopoRing:
		if s.Pods == 0 {
			s.Pods = 1
		}
		if s.Pods < 1 {
			return s, fmt.Errorf("fabric: %v needs ≥ 1 switch per pod, got %d", s.Kind, s.Pods)
		}
		if s.Kind == TopoLine {
			s.Groups = 1
		} else if s.Groups < 2 {
			return s, fmt.Errorf("fabric: ring needs ≥ 2 pods (Groups), got %d", s.Groups)
		}
	default:
		return s, fmt.Errorf("fabric: unknown topology kind %v", s.Kind)
	}
	return s, nil
}

// Counts reports the switch and inter-switch-link totals the spec
// generates — what Builder.Reserve and shard domain mapping are sized
// from before a single switch exists.
func (s TopoSpec) Counts() (switches, isls int, err error) {
	s, err = s.normalized()
	if err != nil {
		return 0, 0, err
	}
	switch s.Kind {
	case TopoFatTree:
		half := s.Radix / 2
		if s.Tiers == 2 {
			return s.Pods + half, s.Pods * half, nil
		}
		return s.Pods*s.Radix + half*half, 2 * s.Pods * half * half, nil
	case TopoDragonfly:
		a, g := s.Pods, s.Groups
		return a * g, g*a*(a-1)/2 + g*(g-1)/2, nil
	case TopoLine:
		return s.Pods, s.Pods - 1, nil
	default: // TopoRing: Pods-1 intra-pod links plus one pod link per pod
		return s.Groups * s.Pods, s.Groups * s.Pods, nil
	}
}

// Generate builds spec's topology into b: switches named by tier
// position, inter-switch links wired per family, ports preallocated to
// the radix. Call Builder.Reserve with Counts() first to get
// arena-backed assembly. Endpoints are attached by the caller (hosts
// round-robin over Hosts, devices over Edge), then Discover.
func Generate(b *Builder, spec TopoSpec, scfg SwitchConfig) (*Topology, error) {
	spec, err := spec.normalized()
	if err != nil {
		return nil, err
	}
	lcfg := spec.ISLConfig
	if lcfg == nil {
		lcfg = func() link.Config { return link.DefaultConfig() }
	}
	hcfg := spec.LongHaulConfig
	if hcfg == nil {
		hcfg = lcfg
	}
	topo := &Topology{Spec: spec}
	start := len(b.switches)
	switch {
	case spec.Kind == TopoLine || spec.Kind == TopoRing:
		err = generateRing(b, spec, scfg, lcfg, hcfg, topo)
	case spec.Kind == TopoDragonfly:
		err = generateDragonfly(b, spec, scfg, lcfg, hcfg, topo)
	case spec.Tiers == 2:
		err = generateLeafSpine(b, spec, scfg, lcfg, topo)
	default:
		err = generateFatTree3(b, spec, scfg, lcfg, hcfg, topo)
	}
	if err != nil {
		return nil, err
	}
	topo.All = b.switches[start:]
	topo.Hosts = topo.Edge
	if spec.Kind == TopoLine {
		topo.Hosts = topo.Edge[:1]
	}
	return topo, nil
}

// generateRing builds a line (one pod) or a ring of Groups pods:
// switches fs0, fs1, …, then the intra-pod links pod by pod, then the
// pod-to-pod links. Names and creation order decide link fault IDs,
// stats keys and the contiguous shard cut, so every fixed-seed
// snapshot of a line or ring depends on them staying put.
func generateRing(b *Builder, spec TopoSpec, scfg SwitchConfig, lcfg, hcfg func() link.Config, topo *Topology) error {
	per, pods := spec.Pods, spec.Groups
	for i := 0; i < pods*per; i++ {
		topo.Edge = append(topo.Edge, b.AddSwitch(fmt.Sprintf("fs%d", i), scfg))
	}
	for g := 0; g < pods; g++ {
		for i := 1; i < per; i++ {
			if err := b.ConnectSwitches(topo.Edge[g*per+i-1], topo.Edge[g*per+i], lcfg()); err != nil {
				return err
			}
		}
	}
	if spec.Kind != TopoRing {
		return nil
	}
	for g := 0; g < pods; g++ {
		next := (g + 1) % pods
		if err := b.ConnectSwitches(topo.Edge[g*per+per-1], topo.Edge[next*per], hcfg()); err != nil {
			return err
		}
	}
	return nil
}

// generateLeafSpine wires Pods leaves to Radix/2 spines, every leaf to
// every spine: all leaf pairs get Radix/2 equal-cost 2-hop paths.
func generateLeafSpine(b *Builder, spec TopoSpec, scfg SwitchConfig, lcfg func() link.Config, topo *Topology) error {
	spines := spec.Radix / 2
	for i := 0; i < spec.Pods; i++ {
		sw := b.AddSwitch(fmt.Sprintf("fs-l%d", i), scfg)
		sw.ReservePorts(spec.Radix)
		topo.Edge = append(topo.Edge, sw)
	}
	for i := 0; i < spines; i++ {
		sw := b.AddSwitch(fmt.Sprintf("fs-s%d", i), scfg)
		sw.ReservePorts(spec.Radix)
		topo.Core = append(topo.Core, sw)
	}
	for _, leaf := range topo.Edge {
		for _, spine := range topo.Core {
			if err := b.ConnectSwitches(leaf, spine, lcfg()); err != nil {
				return err
			}
		}
	}
	return nil
}

// generateFatTree3 builds the classic 3-tier folded Clos: per pod,
// Radix/2 edge and Radix/2 aggregation switches fully bipartite;
// aggregation switch i of every pod uplinks to core group i (cores
// [i·Radix/2, (i+1)·Radix/2)). Inter-pod edge pairs see (Radix/2)²
// equal-cost 4-hop paths; intra-pod pairs Radix/2 2-hop paths.
func generateFatTree3(b *Builder, spec TopoSpec, scfg SwitchConfig, lcfg, hcfg func() link.Config, topo *Topology) error {
	half := spec.Radix / 2
	for p := 0; p < spec.Pods; p++ {
		for i := 0; i < half; i++ {
			sw := b.AddSwitch(fmt.Sprintf("fs-p%de%d", p, i), scfg)
			sw.ReservePorts(spec.Radix)
			topo.Edge = append(topo.Edge, sw)
		}
		for i := 0; i < half; i++ {
			sw := b.AddSwitch(fmt.Sprintf("fs-p%da%d", p, i), scfg)
			sw.ReservePorts(spec.Radix)
			topo.Agg = append(topo.Agg, sw)
		}
	}
	for i := 0; i < half*half; i++ {
		sw := b.AddSwitch(fmt.Sprintf("fs-c%d", i), scfg)
		sw.ReservePorts(spec.Radix)
		topo.Core = append(topo.Core, sw)
	}
	for p := 0; p < spec.Pods; p++ {
		for e := 0; e < half; e++ {
			for a := 0; a < half; a++ {
				if err := b.ConnectSwitches(topo.Edge[p*half+e], topo.Agg[p*half+a], lcfg()); err != nil {
					return err
				}
			}
		}
	}
	for p := 0; p < spec.Pods; p++ {
		for a := 0; a < half; a++ {
			for c := 0; c < half; c++ {
				if err := b.ConnectSwitches(topo.Agg[p*half+a], topo.Core[a*half+c], hcfg()); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// generateDragonfly builds Groups groups of Pods routers: full mesh
// inside each group, one global link per group pair. The global channel
// for pair (i,j) lands on router (j<i ? j : j-1) % Pods of group i, so
// channels round-robin across a group's routers.
func generateDragonfly(b *Builder, spec TopoSpec, scfg SwitchConfig, lcfg, hcfg func() link.Config, topo *Topology) error {
	a, g := spec.Pods, spec.Groups
	for gi := 0; gi < g; gi++ {
		for r := 0; r < a; r++ {
			sw := b.AddSwitch(fmt.Sprintf("fs-g%dr%d", gi, r), scfg)
			sw.ReservePorts(spec.Radix)
			topo.Edge = append(topo.Edge, sw)
		}
	}
	router := func(gi, r int) *Switch { return topo.Edge[gi*a+r] }
	for gi := 0; gi < g; gi++ {
		for x := 0; x < a; x++ {
			for y := x + 1; y < a; y++ {
				if err := b.ConnectSwitches(router(gi, x), router(gi, y), lcfg()); err != nil {
					return err
				}
			}
		}
	}
	chanOf := func(gi, gj int) int { // gi's channel index toward gj
		if gj < gi {
			return gj
		}
		return gj - 1
	}
	for gi := 0; gi < g; gi++ {
		for gj := gi + 1; gj < g; gj++ {
			ri := router(gi, chanOf(gi, gj)%a)
			rj := router(gj, chanOf(gj, gi)%a)
			if err := b.ConnectSwitches(ri, rj, hcfg()); err != nil {
				return err
			}
		}
	}
	return nil
}
