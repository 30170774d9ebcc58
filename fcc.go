// Package fcc is the public face of the Fabric-Centric Computing
// reproduction: a builder that assembles a complete composable
// infrastructure — hosts with calibrated cache hierarchies and FHAs,
// fabric switches with credit-based flow control, fabric-attached
// memory (FAM) and accelerator (FAA) chassis, migration agents, an
// optional coherence directory, and the central fabric arbiter — plus
// accessors for the UniFabric runtime layers (elastic transactions,
// unified heap, idempotent tasks, scalable functions) built on top.
//
// The package wires defaults calibrated against the paper's Omega
// Fabric testbed (Table 2); every knob remains overridable through the
// Config hooks. See DESIGN.md for the system inventory and
// EXPERIMENTS.md for the calibration evidence.
package fcc

import (
	"fmt"

	"fcc/internal/arbiter"
	"fcc/internal/coherence"
	"fcc/internal/etrans"
	"fcc/internal/faa"
	"fcc/internal/fabric"
	"fcc/internal/fabstore"
	"fcc/internal/fault"
	"fcc/internal/flit"
	"fcc/internal/host"
	"fcc/internal/link"
	"fcc/internal/mem"
	"fcc/internal/sim"
	"fcc/internal/task"
	"fcc/internal/telemetry"
	"fcc/internal/uheap"
)

// RemoteBase is the host physical address where the first FAM region is
// mapped; FAM i maps at RemoteBase + i*FAMCapacity on every host.
const RemoteBase uint64 = 1 << 36

// Config describes a cluster to build.
type Config struct {
	// Hosts is the number of host servers (≥1).
	Hosts int
	// FAMs is the number of fabric-attached memory chassis.
	FAMs int
	// FAMCapacity is each FAM's size in bytes.
	FAMCapacity uint64
	// FAAs is the number of fabric-attached accelerator chassis.
	FAAs int
	// Agents places one migration agent per FAM chassis (etrans).
	Agents bool
	// Arbiter attaches the central fabric arbiter (Principle #4).
	Arbiter bool
	// Coherent fronts every FAM with a CC-NUMA directory.
	Coherent bool
	// Topology is the fabric shape: a line, ring, fat-tree or dragonfly
	// (see fabric.TopoSpec). nil = one switch (a one-switch TopoLine).
	// Hosts attach round-robin over the generated Topology.Hosts (a
	// line's first switch, the edge tier otherwise) and devices
	// round-robin over its Edge tier. The spec's nil link-config hooks
	// default to LinkConfig.
	Topology *fabric.TopoSpec
	// Manager attaches the active fabric manager: heartbeat failure
	// detection plus automatic PBR route-around (see fabric.Manager).
	// Its health sweep is a daemon timer: Run ends with the workload,
	// the sweep never keeps it alive.
	Manager bool

	// TraceFlits, when positive, attaches a fabric-wide flit tracer
	// retaining the last TraceFlits hop records across every port
	// (endpoint and switch sides). See Cluster.Tracer.
	TraceFlits int

	// Shards is the number of failure domains the cluster runs as
	// (<= 1 means one: the serial cluster). Each domain is a contiguous
	// block of the generated switch sequence plus its attached
	// endpoints (at most one domain per switch) and runs on a private
	// engine; a sim.Coordinator synchronizes the domains conservatively
	// with the inter-switch propagation delay as the lookahead window.
	// Pods and groups are created contiguously, core tier last, so cuts
	// land between them when Shards divides their count; a cut inside a
	// pod is still correct, only its lookahead is the narrower
	// intra-pod propagation. Same-seed runs produce byte-identical stats
	// snapshots at every shard count, faults scheduled through
	// NewInjector or SchedulePlan included. Coherence directories,
	// migration agents and the Arbiter live in their home domains. The
	// Manager and TraceFlits are single-engine designs and must stay
	// off when Shards > 1.
	Shards int

	// Hooks to override component defaults (nil = defaults).
	HostConfig    func(i int) host.Config
	LinkConfig    func() link.Config
	SwitchConfig  func() fabric.SwitchConfig
	FAMConfig     func(i int, capacity uint64) mem.FAMConfig
	ArbiterConfig func() arbiter.Config
	ManagerConfig func() fabric.ManagerConfig
}

// DefaultConfig is one host, one FAM, calibrated defaults.
func DefaultConfig() Config {
	return Config{Hosts: 1, FAMs: 1, FAMCapacity: 1 << 30}
}

// Cluster is an assembled composable infrastructure.
type Cluster struct {
	// Eng is domain 0's engine, Coord.Engine(0): the whole cluster's
	// engine when it runs as one domain. With more domains, workloads
	// must schedule on their host's own engine (see host.Engine).
	Eng *sim.Engine
	// Coord synchronizes the failure-domain engines; Run and RunFor
	// drive it, whatever the shard count.
	Coord   *sim.Coordinator
	Builder *fabric.Builder
	Hosts   []*host.Host
	FAMs    []*mem.FAM
	FAAs    []*faa.Device
	Agents  []*etrans.Agent
	Arbiter *arbiter.Arbiter
	Dirs    []*coherence.Directory

	// Manager is the active fabric manager (nil unless Config.Manager).
	Manager *fabric.Manager

	// Topo describes the generated topology: tier slices and pod/group
	// structure, e.g. for aiming a fabric.StormPlan at one pod.
	Topo *fabric.Topology

	// Faults is the fault injector (nil until NewInjector is called).
	Faults *fault.Injector

	// Tracer is the fabric-wide flit tracer (nil unless Config.TraceFlits
	// was set). Every port in the cluster records into this one ring, so
	// a packet's whole path is reconstructable from a single buffer.
	Tracer *telemetry.Tracer

	cfg Config
}

// New assembles a cluster per cfg, runs fabric discovery, and maps all
// FAM regions into every host's address space.
func New(cfg Config) (*Cluster, error) {
	if cfg.Hosts < 1 {
		return nil, fmt.Errorf("fcc: need at least one host")
	}
	if cfg.FAMCapacity == 0 {
		cfg.FAMCapacity = 1 << 30
	}

	lcfg := link.DefaultConfig
	if cfg.LinkConfig != nil {
		lcfg = cfg.LinkConfig
	}
	scfg := fabric.DefaultSwitchConfig
	if cfg.SwitchConfig != nil {
		scfg = cfg.SwitchConfig
	}

	endpoints := cfg.Hosts + cfg.FAMs + cfg.FAAs
	if cfg.Agents {
		endpoints += cfg.FAMs
	}
	if cfg.Arbiter {
		endpoints++
	}
	spec := fabric.TopoSpec{Kind: fabric.TopoLine}
	if cfg.Topology != nil {
		spec = *cfg.Topology
	}
	if spec.ISLConfig == nil {
		spec.ISLConfig = lcfg
	}
	nsw, nisl, err := spec.Counts()
	if err != nil {
		return nil, err
	}

	shards := max(cfg.Shards, 1)
	switch {
	case shards > 1 && (cfg.Manager || cfg.TraceFlits > 0):
		return nil, fmt.Errorf("fcc: Shards > 1 cannot host the single-engine services (Manager/TraceFlits)")
	case shards > nsw:
		return nil, fmt.Errorf("fcc: %d shards need at least that many switches, have %d", shards, nsw)
	}
	// Default lookahead = the inter-switch propagation delay: every
	// cross-domain interaction crosses a cut ISL, so no shard can
	// affect another sooner than one propagation in the future. This
	// is only the floor — fabric discovery then raises each shard
	// pair to the minimum propagation over its actual cut links
	// (the long-haul pod links, in a ring of pods) and releases
	// pairs with no cut link entirely.
	coord := sim.NewCoordinator(shards, lcfg().Phys.Propagation)
	b := fabric.NewShardedBuilder(fabric.Sharding{
		Coord: coord,
		// Contiguous blocks: switch i lands in domain
		// i*shards/switches, so only block boundaries cut.
		DomainOf: func(i int) int { return i * shards / nsw },
	})
	b.Reserve(nsw, nisl, endpoints)
	topo, err := fabric.Generate(b, spec, scfg())
	if err != nil {
		return nil, err
	}
	eng := coord.Engine(0)
	c := &Cluster{Eng: eng, Coord: coord, Builder: b, Topo: topo, cfg: cfg}
	hostSwitch := func(i int) *fabric.Switch { return topo.Hosts[i%len(topo.Hosts)] }
	devSwitch := func(i int) *fabric.Switch { return topo.Edge[i%len(topo.Edge)] }

	for i := 0; i < cfg.Hosts; i++ {
		att, err := b.AttachEndpoint(hostSwitch(i), fmt.Sprintf("host%d", i), fabric.RoleHost, lcfg())
		if err != nil {
			return nil, err
		}
		hc := host.DefaultConfig()
		if cfg.HostConfig != nil {
			hc = cfg.HostConfig(i)
		}
		c.Hosts = append(c.Hosts, host.New(att.Eng, att.Name, hc, att))
	}
	for i := 0; i < cfg.FAMs; i++ {
		att, err := b.AttachEndpoint(devSwitch(i), fmt.Sprintf("fam%d", i), fabric.RoleFAM, lcfg())
		if err != nil {
			return nil, err
		}
		fc := mem.DefaultFAMConfig(cfg.FAMCapacity)
		if cfg.FAMConfig != nil {
			fc = cfg.FAMConfig(i, cfg.FAMCapacity)
		}
		fam := mem.NewFAM(att.Eng, att, fc)
		c.FAMs = append(c.FAMs, fam)
		if cfg.Coherent {
			c.Dirs = append(c.Dirs, coherence.NewDirectory(att.Eng, fam))
		}
	}
	for i := 0; i < cfg.FAAs; i++ {
		att, err := b.AttachEndpoint(devSwitch(i), fmt.Sprintf("faa%d", i), fabric.RoleFAA, lcfg())
		if err != nil {
			return nil, err
		}
		c.FAAs = append(c.FAAs, faa.New(att.Eng, att, faa.DefaultConfig()))
	}
	if cfg.Agents {
		for i := range c.FAMs {
			att, err := b.AttachEndpoint(devSwitch(i), fmt.Sprintf("agent%d", i), fabric.RoleFAA, lcfg())
			if err != nil {
				return nil, err
			}
			c.Agents = append(c.Agents, etrans.NewAgent(att.Eng, att))
		}
	}
	if cfg.Arbiter {
		att, err := b.AttachEndpoint(topo.Edge[0], "arbiter", fabric.RoleManager, lcfg())
		if err != nil {
			return nil, err
		}
		ac := arbiter.DefaultConfig()
		if cfg.ArbiterConfig != nil {
			ac = cfg.ArbiterConfig()
		}
		c.Arbiter = arbiter.New(att.Eng, att, ac)
	}
	if err := b.Discover(); err != nil {
		return nil, err
	}
	if cfg.Manager {
		mc := fabric.DefaultManagerConfig()
		if cfg.ManagerConfig != nil {
			mc = cfg.ManagerConfig()
		}
		c.Manager = fabric.NewManager(eng, b, mc)
	}
	if cfg.TraceFlits > 0 {
		c.Tracer = telemetry.NewTracer(cfg.TraceFlits)
		for _, att := range b.Attachments() {
			att.Port.SetTracer(c.Tracer)
		}
		for _, sw := range b.Switches() {
			for i := 0; i < sw.Ports(); i++ {
				sw.Port(i).SetTracer(c.Tracer)
			}
		}
	}
	// Map every FAM into every host's physical address space.
	for _, h := range c.Hosts {
		for i, f := range c.FAMs {
			base := RemoteBase + uint64(i)*cfg.FAMCapacity
			if err := h.MapRemote(f.Name(), base, cfg.FAMCapacity, f.ID(), 0); err != nil {
				return nil, err
			}
		}
	}
	return c, nil
}

// FAMBase reports where FAM i is mapped in host address space.
func (c *Cluster) FAMBase(i int) uint64 {
	return RemoteBase + uint64(i)*c.cfg.FAMCapacity
}

// NewHeap builds a unified heap on host h with a local pool of
// localBytes and one far pool per FAM.
func (c *Cluster) NewHeap(h *host.Host, hcfg uheap.Config, localBytes uint64) (*uheap.Heap, error) {
	specs := []uheap.PoolSpec{{
		Name: "dimm", Base: 1 << 20, Size: localBytes, Class: uheap.ClassLocal,
	}}
	for i, f := range c.FAMs {
		specs = append(specs, uheap.PoolSpec{
			Name: f.Name(), Base: c.FAMBase(i), Size: c.cfg.FAMCapacity,
			Class: uheap.ClassFar,
		})
	}
	return uheap.New(h, hcfg, specs...)
}

// requireUnsharded guards the runtime-layer helpers that assume one
// shared engine; calling them on a sharded cluster would silently mix
// engines across shard goroutines.
func (c *Cluster) requireUnsharded(what string) {
	if c.Coord.Shards() > 1 {
		panic(fmt.Sprintf("fcc: %s requires an unsharded cluster (Shards <= 1)", what))
	}
}

// NewETrans builds an elastic transaction engine for host h, on h's
// engine, registered with every migration agent (and the arbiter when
// present).
func (c *Cluster) NewETrans(h *host.Host) *etrans.Engine {
	e := etrans.NewEngine(h.Engine(), h.Endpoint())
	for i, a := range c.Agents {
		e.AddAgent(a.ID(), c.FAMs[i].ID())
		if c.Arbiter != nil {
			a.SetArbiter(arbiter.NewClient(a.Endpoint(), c.Arbiter.ID()))
		}
	}
	if c.Arbiter != nil {
		e.SetArbiter(arbiter.NewClient(h.Endpoint(), c.Arbiter.ID()))
	}
	return e
}

// NewTaskRunner builds an idempotent-task runner on host h, with one
// local engine and one engine per FAA.
func (c *Cluster) NewTaskRunner(h *host.Host, seed uint64) *task.Runner {
	c.requireUnsharded("NewTaskRunner (use task.NewRunner(h.Engine(), h.Endpoint()) with engines in h's domain)")
	r := task.NewRunner(h.Engine(), h.Endpoint())
	r.AddEngine(task.NewLocalEngine(h.Engine(), h.Name()+"-cpu", seed))
	for _, d := range c.FAAs {
		r.AddEngine(faa.NewEngine(d))
	}
	return r
}

// NewCoherenceClient registers host h as a CC-NUMA participant of the
// directory fronting FAM i (the cluster must be built Coherent).
func (c *Cluster) NewCoherenceClient(h *host.Host, fam int, ccfg coherence.ClientConfig) *coherence.Client {
	return coherence.NewClient(h.Engine(), h, c.Dirs[fam].ID(), ccfg)
}

// ArbiterClient returns an arbiter client for host h.
func (c *Cluster) ArbiterClient(h *host.Host) *arbiter.Client {
	return arbiter.NewClient(h.Endpoint(), c.Arbiter.ID())
}

// NewFabStore lays a FabStore (multi-tenant transactional KV, see
// internal/fabstore) across every FAM in the cluster with one client
// per host. When the cluster is Coherent and the store declares hot
// keys, each client's hot-row path goes through the directories; with
// the Arbiter attached, clients reserve bandwidth credit toward the
// destination expander around writes and scan chunks. Both services are
// optional and work at every shard count; without them clients use the
// raw retried-transaction path, which is exactly what the
// serial-vs-sharded equivalence experiment runs.
func (c *Cluster) NewFabStore(fcfg fabstore.Config) (*fabstore.Store, error) {
	devs := make([]fabstore.Device, len(c.FAMs))
	for i, f := range c.FAMs {
		devs[i] = fabstore.Device{Port: f.ID(), Capacity: c.cfg.FAMCapacity}
	}
	st, err := fabstore.New(fcfg, devs, c.Hosts)
	if err != nil {
		return nil, err
	}
	for hi, h := range c.Hosts {
		cl := st.Client(hi)
		if len(c.Dirs) > 0 && fcfg.HotKeys > 0 {
			for fi := range c.FAMs {
				cl.UseCoherence(fi, c.NewCoherenceClient(h, fi, coherence.DefaultClientConfig()))
			}
		}
		if c.Arbiter != nil {
			cl.UseArbiter(c.ArbiterClient(h))
		}
	}
	return st, nil
}

// Stats assembles the fabric-wide metrics tree: every switch (with all
// its link ports), host, FAM, FAA, migration agent, coherence directory,
// and the arbiter, each under its stable component name. The tree reads
// live metrics — call Snapshot() on the result after (or during) a run.
func (c *Cluster) Stats() *sim.Stats {
	root := sim.NewStats("cluster")
	for _, sw := range c.Builder.Switches() {
		sw.RegisterStats(root.Child(sw.Name()))
	}
	for _, h := range c.Hosts {
		h.RegisterStats(root.Child(h.Name()))
	}
	for _, f := range c.FAMs {
		f.RegisterStats(root.Child(f.Name()))
	}
	for i, d := range c.FAAs {
		d.RegisterStats(root.Child(fmt.Sprintf("faa%d", i)))
	}
	for i, a := range c.Agents {
		a.RegisterStats(root.Child(fmt.Sprintf("agent%d", i)))
	}
	for i, d := range c.Dirs {
		d.RegisterStats(root.Child(fmt.Sprintf("dir%d", i)))
	}
	if c.Arbiter != nil {
		c.Arbiter.RegisterStats(root.Child("arbiter"))
	}
	if c.Manager != nil {
		c.Manager.RegisterStats(root.Child("manager"))
	}
	if c.Faults != nil {
		c.Faults.RegisterStats(root.Child("fault"))
	}
	return root
}

// NewInjector builds a seeded fault injector with every failable
// component of the cluster registered: all switches, all links
// (inter-switch and endpoint), all FAMs, and all FAAs. It works at
// every shard count: each fault is applied on the engine of the domain
// that owns it (each side's, for a cut link). The returned injector is
// also stored as c.Faults so Stats() exports its blast-radius metrics,
// summed over the domains, under the "fault" subtree.
func (c *Cluster) NewInjector(seed uint64) *fault.Injector {
	in := fault.NewInjector(seed)
	for _, sw := range c.Builder.Switches() {
		in.Register(sw)
	}
	for _, l := range c.links() {
		in.Register(l)
	}
	for _, f := range c.FAMs {
		in.Register(f)
	}
	for _, d := range c.FAAs {
		in.Register(d)
	}
	c.Faults = in
	return in
}

// links lists every link: inter-switch links in creation order, then
// endpoint links in attachment order.
func (c *Cluster) links() []*link.Link {
	ls := c.Builder.ISLLinks()
	for _, att := range c.Builder.Attachments() {
		ls = append(ls, att.Link)
	}
	return ls
}

// FaultEvent is one entry in a link fault plan: at virtual time At,
// inject Fault into (or, with Heal set, heal Fault.Kind on) the named
// link. It is fault.Event field for field, addressed to a link.
type FaultEvent struct {
	At    sim.Time
	Link  string
	Fault fault.Fault
	Heal  bool
}

// SchedulePlan schedules a link fault plan through a fault.Injector
// that sees only the links the plan names and, unlike NewInjector's,
// adds no stats subtree.
func (c *Cluster) SchedulePlan(plan []FaultEvent) error {
	p := fault.NewPlan("links")
	named := make(map[string]bool)
	for _, ev := range plan {
		p.Add(fault.Event{At: ev.At, Target: ev.Link, Fault: ev.Fault, Heal: ev.Heal})
		named[ev.Link] = true
	}
	in := fault.NewInjector(0)
	for _, l := range c.links() {
		if named[l.Name()] {
			in.Register(l)
		}
	}
	return in.Schedule(p)
}

// Render draws the topology (the Figure 1b regeneration).
func (c *Cluster) Render() string { return c.Builder.Render() }

// Run drains the simulation on every domain, or returns early when a
// model calls Stop on any domain's engine; a later Run resumes it.
// Afterwards every engine's clock reads the time of the last event
// fired anywhere.
func (c *Cluster) Run() { c.Coord.Run() }

// RunFor advances the simulation on every domain by d.
func (c *Cluster) RunFor(d sim.Time) { c.Coord.RunFor(d) }

// Go starts a workload process on Eng, the one-domain cluster's only
// engine. On a sharded cluster, spawn processes on the owning host's
// engine instead:
// c.Hosts[i].Engine().Go(...) — a workload touching a host from
// another shard's engine is a race.
func (c *Cluster) Go(name string, fn func(p *sim.Proc)) *sim.Proc {
	c.requireUnsharded("Go (use Hosts[i].Engine().Go)")
	return c.Eng.Go(name, fn)
}

// ProbeDevicesP performs the fabric-manager enumeration pass at runtime:
// host h sends a CXL.io configuration read to every FAM and collects the
// capacities the devices report — the management-plane traffic that in
// real systems populates the FM's inventory.
func (c *Cluster) ProbeDevicesP(p *sim.Proc, h *host.Host) map[string]uint64 {
	out := make(map[string]uint64, len(c.FAMs))
	for _, f := range c.FAMs {
		resp := h.Endpoint().Request(&flit.Packet{
			Chan: flit.ChIO, Op: flit.OpCfgRd, Dst: f.ID(),
		}).MustAwait(p)
		var capacity uint64
		for i := 7; i >= 0; i-- {
			capacity = capacity<<8 | uint64(resp.Data[i])
		}
		out[f.Name()] = capacity
	}
	return out
}
