package fabric

import (
	"fcc/internal/link"
	"fcc/internal/sim"
)

// ManagerConfig controls the fabric manager's failure detector.
type ManagerConfig struct {
	// HeartbeatEvery is the health-sweep period. Each sweep polls every
	// switch and link; a component must look dead for MissThreshold
	// consecutive sweeps before the manager declares it failed, so a
	// sub-period flap never triggers a reroute.
	HeartbeatEvery sim.Time
	// MissThreshold is the consecutive missed heartbeats before a
	// component is declared dead (and the single clean sweep before a
	// declared-dead component is considered recovered).
	MissThreshold int
	// FullRecompute disables incremental route repair: every reroute
	// re-fills every table from scratch (the pre-incremental behaviour).
	// The manager's observable output is identical either way — the
	// equivalence tests run both modes against the same fault plan and
	// compare snapshots byte for byte — so this exists for those tests
	// and as a belt-and-braces escape hatch.
	FullRecompute bool
}

// DefaultManagerConfig detects a failure within ~10us — two 5us sweeps —
// which is aggressive but in line with an in-fabric manager that owns
// the switches (MIND-style in-network management).
func DefaultManagerConfig() ManagerConfig {
	return ManagerConfig{HeartbeatEvery: 5 * sim.Microsecond, MissThreshold: 2}
}

// Manager is the active fabric manager (§2.1): where Builder.Discover
// plays the FM once at boot, Manager keeps playing it at runtime. A
// periodic heartbeat sweep polls the health of every switch and every
// link (inter-switch and endpoint); components dead for MissThreshold
// sweeps are marked failed and the PBR tables of all surviving switches
// are re-filled over the reduced topology, routing traffic around the
// loss. Recoveries are detected by the same sweep and re-admit the
// component on the next re-fill.
//
// The sweep is a daemon timer (sim.Engine.AfterDaemon): it runs for as
// long as the workload does and never keeps a Run alive by itself.
type Manager struct {
	eng *sim.Engine
	b   *Builder
	cfg ManagerConfig

	// Health state is kept in topology-order slices, not maps: the
	// heartbeat sweep declares deaths and schedules reroutes in
	// iteration order, which must be deterministic (fcclint: maporder).
	swMissed []int
	swDead   []bool
	watched  []*link.Link // ISLs then endpoint links, topology order
	lnMissed []int
	lnDead   []bool

	unreachable int

	// Unexported repair accounting for tests and experiments: these are
	// deliberately NOT registered as stats — incremental and full modes
	// must produce byte-identical snapshots.
	repairs int
	fulls   int

	// Metrics (the recovery half of the blast-radius accounting).
	Heartbeats     sim.Counter
	Reroutes       sim.Counter
	SwitchesFailed sim.Counter
	LinksFailed    sim.Counter
	Recoveries     sim.Counter
	// TimeToReroute measures fault onset (the component's FailedAt) to
	// routes re-filled — detection latency plus the re-fill itself.
	TimeToReroute *sim.Histogram
}

// NewManager starts a manager over b's topology. Every switch is put in
// drop-unroutable mode: once a manager owns the fabric, a destination
// with no route is a managed condition (dead endpoint), not a topology
// bug worth a panic. The first health sweep fires one period after now.
func NewManager(eng *sim.Engine, b *Builder, cfg ManagerConfig) *Manager {
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = DefaultManagerConfig().HeartbeatEvery
	}
	if cfg.MissThreshold <= 0 {
		cfg.MissThreshold = DefaultManagerConfig().MissThreshold
	}
	m := &Manager{
		eng:           eng,
		b:             b,
		cfg:           cfg,
		swMissed:      make([]int, len(b.switches)),
		swDead:        make([]bool, len(b.switches)),
		TimeToReroute: sim.NewHistogram(),
	}
	for _, l := range b.links {
		m.watched = append(m.watched, l.link)
	}
	for _, att := range b.attached {
		m.watched = append(m.watched, att.Link)
	}
	m.lnMissed = make([]int, len(m.watched))
	m.lnDead = make([]bool, len(m.watched))
	for _, sw := range b.switches {
		sw.SetDropUnroutable(true)
	}
	eng.AfterDaemon(cfg.HeartbeatEvery, m.sweep)
	return m
}

// sweep is one heartbeat: poll health, declare deaths and recoveries,
// reroute when the live topology changed.
func (m *Manager) sweep() {
	m.Heartbeats.Inc()
	changed, recovered := false, false
	var onsets []sim.Time // FailedAt of components newly declared dead
	var newSw, newISL, newAtt []int
	nISL := len(m.b.links)
	for i, sw := range m.b.switches {
		if sw.Down() {
			m.swMissed[i]++
			if !m.swDead[i] && m.swMissed[i] >= m.cfg.MissThreshold {
				m.swDead[i] = true
				m.SwitchesFailed.Inc()
				onsets = append(onsets, sw.FailedAt())
				newSw = append(newSw, i)
				changed = true
			}
		} else {
			m.swMissed[i] = 0
			if m.swDead[i] {
				m.swDead[i] = false
				m.Recoveries.Inc()
				changed, recovered = true, true
			}
		}
	}
	for i, l := range m.watched {
		if l.Down() {
			m.lnMissed[i]++
			if !m.lnDead[i] && m.lnMissed[i] >= m.cfg.MissThreshold {
				m.lnDead[i] = true
				m.LinksFailed.Inc()
				onsets = append(onsets, l.FailedAt())
				if i < nISL {
					newISL = append(newISL, i)
				} else {
					newAtt = append(newAtt, i-nISL)
				}
				changed = true
			}
		} else {
			m.lnMissed[i] = 0
			if m.lnDead[i] {
				m.lnDead[i] = false
				m.Recoveries.Inc()
				changed, recovered = true, true
			}
		}
	}
	if changed {
		m.reroute(onsets, recovered, newSw, newISL, newAtt)
	}
	m.eng.AfterDaemon(m.cfg.HeartbeatEvery, m.sweep)
}

// reroute repairs the surviving switches' PBR tables over the live
// topology. Pure deaths take the incremental path — only destinations
// whose shortest-path DAG used a dead element are recomputed; a
// recovery (topology grows back) forces a full re-fill, as does
// ManagerConfig.FullRecompute.
func (m *Manager) reroute(onsets []sim.Time, recovered bool, newSw, newISL, newAtt []int) {
	nISL := len(m.b.links)
	dead := DeadSet{Switches: m.swDead, ISLs: m.lnDead[:nISL], Atts: m.lnDead[nISL:]}
	if m.cfg.FullRecompute || recovered {
		m.unreachable = m.b.InstallRoutesFull(dead)
		m.fulls++
	} else {
		m.unreachable = m.b.RepairRoutes(dead, newSw, newISL, newAtt)
		m.repairs++
	}
	m.Reroutes.Inc()
	now := m.eng.Now()
	for _, at := range onsets {
		m.TimeToReroute.ObserveTime(now - at)
	}
}

// RepairCounts reports how many reroutes took the incremental path and
// how many were full recomputes. Deliberately an accessor rather than
// registered stats: incremental and FullRecompute runs must produce
// byte-identical snapshots, and the split is exactly what differs.
func (m *Manager) RepairCounts() (incremental, full int) { return m.repairs, m.fulls }

// DeadSwitches lists the names of switches currently declared dead.
func (m *Manager) DeadSwitches() []string {
	var out []string
	for i, dead := range m.swDead {
		if dead {
			out = append(out, m.b.switches[i].name)
		}
	}
	return out
}

// Unreachable reports the endpoints severed by the last reroute.
func (m *Manager) Unreachable() int { return m.unreachable }

// RegisterStats attaches the manager's failure-handling metrics.
func (m *Manager) RegisterStats(s *sim.Stats) {
	s.Register("heartbeats", &m.Heartbeats)
	s.Register("reroutes", &m.Reroutes)
	s.Register("switches_failed", &m.SwitchesFailed)
	s.Register("links_failed", &m.LinksFailed)
	s.Register("recoveries", &m.Recoveries)
	s.Gauge("dead_switches", func() int64 {
		n := int64(0)
		for _, d := range m.swDead {
			if d {
				n++
			}
		}
		return n
	})
	s.Gauge("dead_links", func() int64 {
		n := int64(0)
		for _, d := range m.lnDead {
			if d {
				n++
			}
		}
		return n
	})
	s.Gauge("unreachable_endpoints", func() int64 { return int64(m.unreachable) })
	s.RegisterHistogram("time_to_reroute_ns", m.TimeToReroute)
}
