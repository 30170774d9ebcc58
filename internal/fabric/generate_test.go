package fabric

import (
	"fmt"
	"strings"
	"testing"

	"fcc/internal/link"
	"fcc/internal/sim"
)

// buildTopo generates spec with eps endpoints round-robin over the edge
// tier and runs discovery.
func buildTopo(t *testing.T, spec TopoSpec, eps int) (*Builder, *Topology) {
	t.Helper()
	eng := sim.NewEngine()
	b := NewBuilder(eng)
	nsw, nisl, err := spec.Counts()
	if err != nil {
		t.Fatal(err)
	}
	b.Reserve(nsw, nisl, eps)
	topo, err := Generate(b, spec, DefaultSwitchConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.All) != nsw {
		t.Fatalf("Counts promised %d switches, Generate built %d", nsw, len(topo.All))
	}
	if len(b.links) != nisl {
		t.Fatalf("Counts promised %d ISLs, Generate built %d", nisl, len(b.links))
	}
	for i := 0; i < eps; i++ {
		sw := topo.Edge[i%len(topo.Edge)]
		if _, err := b.AttachEndpoint(sw, fmt.Sprintf("ep%d", i), RoleHost, link.DefaultConfig()); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Discover(); err != nil {
		t.Fatal(err)
	}
	return b, topo
}

// hopsAndWidth walks the installed route tables from switch src toward
// endpoint attachment dst: path length in switch hops and the ECMP
// width (candidate count) at src. Following any candidate must converge
// in ≤ len(switches) hops or the table is broken.
func hopsAndWidth(t *testing.T, b *Builder, src *Switch, dst *Attachment) (hops, width int) {
	t.Helper()
	width = len(src.routeFor(dst.ID))
	cur := src
	for hops = 0; cur != dst.Switch; hops++ {
		if hops > len(b.switches) {
			t.Fatalf("route from %s to %s does not converge", src.name, dst.Name)
		}
		outs := cur.routeFor(dst.ID)
		if len(outs) == 0 {
			t.Fatalf("switch %s has no route to %s", cur.name, dst.Name)
		}
		next := (*Switch)(nil)
		for _, l := range b.links {
			if l.a == cur && l.aPort == outs[0] {
				next = l.b
			} else if l.b == cur && l.bPort == outs[0] {
				next = l.a
			}
		}
		if next == nil {
			t.Fatalf("switch %s route to %s exits via a non-ISL port", cur.name, dst.Name)
		}
		cur = next
	}
	return hops, width
}

func TestFatTree3Invariants(t *testing.T) {
	// k=4, 3 pods: 6 edge + 6 agg + 4 core = 16 switches, 24 ISLs.
	spec := TopoSpec{Kind: TopoFatTree, Tiers: 3, Radix: 4, Pods: 3}
	b, topo := buildTopo(t, spec, 12)
	if got := len(topo.All); got != 16 {
		t.Fatalf("switches = %d, want 16", got)
	}
	if len(topo.Edge) != 6 || len(topo.Agg) != 6 || len(topo.Core) != 4 {
		t.Fatalf("tier sizes = %d/%d/%d, want 6/6/4", len(topo.Edge), len(topo.Agg), len(topo.Core))
	}

	// Every live (switch, endpoint) pair has an installed route.
	for _, sw := range b.switches {
		for _, att := range b.attached {
			if sw == att.Switch {
				continue
			}
			if len(sw.routeFor(att.ID)) == 0 {
				t.Fatalf("no route from %s to %s", sw.name, att.Name)
			}
		}
	}

	// ECMP widths and path lengths: the walk from an edge switch to an
	// endpoint homed in another pod crosses 4 ISLs with (k/2)=2-wide
	// fan-out at the edge; intra-pod 2 ISLs; the home switch delivers
	// directly on 1 candidate port.
	ep0 := b.attached[0] // homed on pod 0's first edge switch
	if ep0.Switch != topo.Edge[0] {
		t.Fatalf("round-robin placement moved: ep0 on %s", ep0.Switch.name)
	}
	if hops, width := hopsAndWidth(t, b, topo.Edge[2], ep0); hops != 4 || width != 2 {
		t.Fatalf("inter-pod edge: hops=%d width=%d, want 4, 2", hops, width)
	}
	if hops, width := hopsAndWidth(t, b, topo.Edge[1], ep0); hops != 2 || width != 2 {
		t.Fatalf("intra-pod edge: hops=%d width=%d, want 2, 2", hops, width)
	}
	if w := len(ep0.Switch.routeFor(ep0.ID)); w != 1 {
		t.Fatalf("home delivery width=%d, want 1", w)
	}
	// A core switch is 2 hops from any edge, one downlink candidate.
	if hops, width := hopsAndWidth(t, b, topo.Core[0], ep0); hops != 2 || width != 1 {
		t.Fatalf("core: hops=%d width=%d, want 2, 1", hops, width)
	}

	// Diameter of the switch graph: 4 (edge-agg-core-agg-edge).
	if d := routedDiameter(b); d != 4 {
		t.Fatalf("diameter = %d, want 4", d)
	}
}

func TestLeafSpineInvariants(t *testing.T) {
	// 8 leaves x 4 spines.
	spec := TopoSpec{Kind: TopoFatTree, Tiers: 2, Radix: 8}
	b, topo := buildTopo(t, spec, 16)
	if len(topo.Edge) != 8 || len(topo.Core) != 4 {
		t.Fatalf("tiers = %d leaves / %d spines, want 8/4", len(topo.Edge), len(topo.Core))
	}
	ep0 := b.attached[0]
	if hops, width := hopsAndWidth(t, b, topo.Edge[3], ep0); hops != 2 || width != 4 {
		t.Fatalf("leaf-to-leaf: hops=%d width=%d, want 2, 4", hops, width)
	}
	if d := routedDiameter(b); d != 2 {
		t.Fatalf("diameter = %d, want 2", d)
	}
}

func TestDragonflyInvariants(t *testing.T) {
	// a=4 routers/group, default groups = 5: 20 routers; mesh 6*5=30
	// intra + 10 global ISLs.
	spec := TopoSpec{Kind: TopoDragonfly, Radix: 8, Pods: 4}
	b, topo := buildTopo(t, spec, 20)
	if len(topo.All) != 20 || len(b.links) != 40 {
		t.Fatalf("got %d switches / %d ISLs, want 20/40", len(topo.All), len(b.links))
	}
	for _, sw := range b.switches {
		for _, att := range b.attached {
			if sw != att.Switch && len(sw.routeFor(att.ID)) == 0 {
				t.Fatalf("no route from %s to %s", sw.name, att.Name)
			}
		}
	}
	if d := routedDiameter(b); d > 3 {
		t.Fatalf("dragonfly diameter = %d, want ≤ 3", d)
	}
}

// routedDiameter computes the switch-graph diameter from the route
// engine's stored distance vectors (every home was BFS'd at Discover).
func routedDiameter(b *Builder) int {
	max := 0
	for h := range b.switches {
		if len(b.re.homeAtts[h]) == 0 {
			continue
		}
		for _, d := range b.re.dist[h] {
			if int(d) > max {
				max = int(d)
			}
		}
	}
	return max
}

func TestTopoSpecValidation(t *testing.T) {
	bad := []TopoSpec{
		{Kind: TopoFatTree, Radix: 5},                    // odd radix
		{Kind: TopoFatTree, Radix: 4, Tiers: 4},          // bad tiers
		{Kind: TopoFatTree, Radix: 4, Tiers: 3, Pods: 9}, // pods > radix
		{Kind: TopoDragonfly, Radix: 2, Pods: 8},         // degree > radix
		{Kind: TopoDragonfly, Radix: 8, Pods: 4, Groups: 1},
		{Kind: TopoRing, Groups: 1},           // ring of one pod
		{Kind: TopoRing, Pods: 2},             // ring without Groups
		{Kind: TopoRing, Groups: 4, Pods: -1}, // negative pod size
		{Kind: TopoLine, Pods: -1},            // negative switch count
		{Kind: TopoKind(99)},
	}
	for i, spec := range bad {
		if _, _, err := spec.Counts(); err == nil {
			t.Errorf("spec %d (%+v) validated, want error", i, spec)
		}
	}
	// 64-switch fat-tree: k=8, 6 pods -> 48 pod switches + 16 cores.
	nsw, nisl, err := (TopoSpec{Kind: TopoFatTree, Tiers: 3, Radix: 8, Pods: 6}).Counts()
	if err != nil || nsw != 64 || nisl != 192 {
		t.Fatalf("64sw fat-tree Counts = %d, %d, %v; want 64, 192, nil", nsw, nisl, err)
	}
}

// switchNames and islIDs list a topology's switches and the builder's
// inter-switch links (by fault ID) in creation order.
func switchNames(sws []*Switch) string {
	names := make([]string, len(sws))
	for i, sw := range sws {
		names[i] = sw.name
	}
	return strings.Join(names, " ")
}

func islIDs(b *Builder) string {
	ids := make([]string, len(b.links))
	for i, l := range b.links {
		ids[i] = l.link.FaultID()
	}
	return strings.Join(ids, " ")
}

func TestLineInvariants(t *testing.T) {
	b, topo := buildTopo(t, TopoSpec{Kind: TopoLine, Pods: 3}, 6)
	if got := switchNames(topo.All); got != "fs0 fs1 fs2" {
		t.Fatalf("switches = %q", got)
	}
	if got := islIDs(b); got != "fs0<->fs1 fs1<->fs2" {
		t.Fatalf("ISLs = %q", got)
	}
	if got := switchNames(topo.Hosts); got != "fs0" {
		t.Fatalf("host switches = %q, want the first switch only", got)
	}
	if got := switchNames(topo.Edge); got != "fs0 fs1 fs2" {
		t.Fatalf("device switches = %q", got)
	}
	// A line is one pod holding every switch.
	if got := switchNames(topo.PodSwitches(0)); got != "fs0 fs1 fs2" {
		t.Fatalf("PodSwitches(0) = %q", got)
	}
	if hops, width := hopsAndWidth(t, b, topo.Edge[2], b.attached[0]); hops != 2 || width != 1 {
		t.Fatalf("end to end: hops=%d width=%d, want 2, 1", hops, width)
	}
}

func TestRingInvariants(t *testing.T) {
	b, topo := buildTopo(t, TopoSpec{Kind: TopoRing, Groups: 4}, 8)
	if got := switchNames(topo.All); got != "fs0 fs1 fs2 fs3" {
		t.Fatalf("switches = %q", got)
	}
	if got := islIDs(b); got != "fs0<->fs1 fs1<->fs2 fs2<->fs3 fs3<->fs0" {
		t.Fatalf("ISLs = %q", got)
	}
	if got := switchNames(topo.Hosts); got != "fs0 fs1 fs2 fs3" {
		t.Fatalf("host switches = %q, want every switch", got)
	}
	// Antipodal switches see both ring directions as equal-cost.
	if hops, width := hopsAndWidth(t, b, topo.Edge[2], b.attached[0]); hops != 2 || width != 2 {
		t.Fatalf("antipodal: hops=%d width=%d, want 2, 2", hops, width)
	}
	if hops, width := hopsAndWidth(t, b, topo.Edge[1], b.attached[0]); hops != 1 || width != 1 {
		t.Fatalf("adjacent: hops=%d width=%d, want 1, 1", hops, width)
	}
}

func TestPodRingInvariants(t *testing.T) {
	withProp := func(p sim.Time) func() link.Config {
		return func() link.Config {
			lc := link.DefaultConfig()
			lc.Phys.Propagation = p
			return lc
		}
	}
	short, long := 10*sim.Nanosecond, sim.Microsecond
	spec := TopoSpec{Kind: TopoRing, Groups: 8, Pods: 2,
		ISLConfig: withProp(short), LongHaulConfig: withProp(long)}
	b, topo := buildTopo(t, spec, 16)
	if len(topo.All) != 16 || topo.All[15].name != "fs15" {
		t.Fatalf("switches = %q", switchNames(topo.All))
	}
	want := "fs0<->fs1 fs2<->fs3 fs4<->fs5 fs6<->fs7 fs8<->fs9 fs10<->fs11 fs12<->fs13 fs14<->fs15 " +
		"fs1<->fs2 fs3<->fs4 fs5<->fs6 fs7<->fs8 fs9<->fs10 fs11<->fs12 fs13<->fs14 fs15<->fs0"
	if got := islIDs(b); got != want {
		t.Fatalf("ISLs = %q\nwant   %q", got, want)
	}
	for i, l := range b.links {
		want := short
		if i >= 8 {
			want = long
		}
		if l.prop != want {
			t.Fatalf("ISL %s propagation %v, want %v", l.link.FaultID(), l.prop, want)
		}
	}
	if got := switchNames(topo.PodSwitches(3)); got != "fs6 fs7" {
		t.Fatalf("PodSwitches(3) = %q, want fs6 fs7", got)
	}
}

// TestStormPlanOnRingPod aims a storm at one pod of a ring: both of its
// switches die and the three ISLs touching them (its intra-pod link and
// the pod links on either side) flap.
func TestStormPlanOnRingPod(t *testing.T) {
	b, topo := buildTopo(t, TopoSpec{Kind: TopoRing, Groups: 4, Pods: 2}, 8)
	plan := StormPlan(b, "pod1", topo.PodSwitches(1), 10*sim.Microsecond, 0, 0)
	var targets []string
	for _, ev := range plan.Events {
		targets = append(targets, ev.Target)
	}
	if got, want := strings.Join(targets, " "), "fs2 fs3 fs2<->fs3 fs1<->fs2 fs3<->fs4"; got != want {
		t.Fatalf("storm targets = %q, want %q", got, want)
	}
}
