package main

import (
	"errors"
	"fmt"

	"fcc"
	"fcc/internal/fabric"
	"fcc/internal/fabstore"
	fswl "fcc/internal/fabstore/workload"
	"fcc/internal/fault"
	"fcc/internal/flit"
	"fcc/internal/link"
	"fcc/internal/sim"
	"fcc/internal/txn"
)

// workload is one benchmark input: a cluster shape plus the simulated
// clients that drive it. build constructs a fresh cluster from the seed
// and spawns the clients, marking the setup spans on sp as it goes; the
// returned job is then run to completion by the harness. size scales
// the simulated work per round (1 = the benchmark's size).
type workload struct {
	name   string
	shards int
	build  func(seed uint64, size float64, sp *spans) (job, error)
}

// job is one built cluster with its clients spawned.
type job interface {
	cluster() *fcc.Cluster
	// stats is the tree the round digest and work counts are read from.
	stats() *sim.Stats
	// warm runs untimed simulated work between setup and the timed run.
	warm()
	// finish checks the run's outputs and collects its outcome.
	finish() (*outcome, error)
}

// outcome is what one round produced, in simulated terms.
type outcome struct {
	attempted int64
	committed int64
	typed     int64 // failed with a typed error (timeout, device down)
	shed      int64 // refused at admission by the open-loop generator
	lat       []sim.Time
	simDur    sim.Time
}

func (o *outcome) failed() int64 { return o.typed + o.shed }

var workloads = []workload{
	{name: "kv-oltp", shards: 1, build: buildKVOLTP},
	{name: "mem-stream", shards: 1, build: buildMemStream},
	{name: "dc-sharded", shards: 2, build: buildDCSharded},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want kv-oltp, mem-stream or dc-sharded)", name)
}

func scaled(n int, size float64) int {
	if v := int(float64(n) * size); v > 0 {
		return v
	}
	return 1
}

// leafSpine is the generated 2-tier fabric both serial workloads run
// on: four leaves, two spines.
func leafSpine() *fabric.TopoSpec {
	return &fabric.TopoSpec{Kind: fabric.TopoFatTree, Tiers: 2, Radix: 4, Pods: 4}
}

// ---- kv-oltp -------------------------------------------------------

// kvArrivals is each host's open-loop arrival count per round.
const kvArrivals = 1250

type kvJob struct {
	c    *fcc.Cluster
	st   *fabstore.Store
	tree *sim.Stats
	gens []*kvGen
}

// kvGen is one host's open-loop client: Poisson arrivals at 2 M/s, one
// Proc per operation, E11's oltp-skewed blend (90/10 get/put, Zipf 1.2
// over tenants and 1.1 over keys). It samples exactly as E11's
// workload.Driver does, and times each committed operation from its
// arrival.
type kvGen struct {
	issued, committed, typed, shed, untyped int64
	outstanding                             int
	lat                                     []sim.Time
	last                                    sim.Time
}

func buildKVOLTP(seed uint64, size float64, sp *spans) (job, error) {
	c, err := fcc.New(fcc.Config{
		Hosts: 8, FAMs: 4, FAMCapacity: 1 << 22,
		Topology: leafSpine(),
		Coherent: true, Arbiter: true,
		LinkConfig: func() link.Config {
			lc := link.DefaultConfig()
			p := lc.Phys
			p.Propagation = 10 * sim.Nanosecond
			lc.Phys = p
			return lc
		},
	})
	if err != nil {
		return nil, err
	}
	// E11's off-lattice per-host timeouts: a response never lands on
	// exactly its request's deadline.
	for hi, h := range c.Hosts {
		h.Endpoint().Timeout = 25*sim.Microsecond + sim.Time(hi+1)*4241
	}
	sp.build = sp.lap()
	st, err := c.NewFabStore(fabstore.Config{
		Tenants:       8,
		KeysPerTenant: 1024,
		Quota:         16 << 10,
		IntentSlots:   4,
		RetryBackoff:  20*sim.Microsecond + 757,
		HotKeys:       16,
	})
	if err != nil {
		return nil, err
	}
	sp.store = sp.lap()
	j := &kvJob{c: c, st: st}
	arrivals := scaled(kvArrivals, size)
	for hi := range c.Hosts {
		g := &kvGen{lat: make([]sim.Time, 0, arrivals)}
		j.gens = append(j.gens, g)
		g.start(st.Client(hi), seed^(uint64(hi)+1)*0x9e3779b97f4a7c15, arrivals)
	}
	sp.spawn = sp.lap()
	// The stats tree is the benchmark's, so it is built after setup.
	j.tree = c.Stats()
	st.RegisterStats(j.tree.Child("fabstore"))
	return j, nil
}

func (g *kvGen) start(cl *fabstore.Client, seed uint64, arrivals int) {
	const (
		rate           = 2e6
		maxOutstanding = 64
		getPct         = 90
	)
	scfg := cl.Store().Config()
	pat := fswl.NewPattern(seed, int(scfg.KeysPerTenant), 1.1, 0)
	tz := sim.NewZipf(pat.RNG.Fork(1), scfg.Tenants, 1.2)
	warmup := arrivals / 5
	h := cl.Host()
	eng := h.Engine()
	eng.Go(h.Name()+"/wl", func(p *sim.Proc) {
		for i := 0; i < arrivals; i++ {
			p.Sleep(sim.Time(pat.RNG.Exp() * float64(sim.Second) / rate))
			tenant := tz.Next()
			key, _ := pat.Next()
			put := pat.RNG.Intn(100) >= getPct
			if g.outstanding >= maxOutstanding {
				g.shed++
				continue
			}
			g.outstanding++
			g.issued++
			record := i >= warmup
			stamp := uint64(i)
			eng.Go(h.Name()+"/op", func(op *sim.Proc) {
				start := op.Now()
				var err error
				if put {
					val := make([]byte, scfg.SlotSize)
					fabstore.FillValue(val, tenant, uint64(key), stamp)
					err = cl.PutP(op, tenant, uint64(key), val)
				} else {
					_, err = cl.GetP(op, tenant, uint64(key))
				}
				g.outstanding--
				switch {
				case err == nil:
					g.committed++
					if record {
						g.lat = append(g.lat, op.Now()-start)
					}
				case fabstore.Typed(err):
					g.typed++
				default:
					g.untyped++
				}
				if now := op.Now(); now > g.last {
					g.last = now
				}
			})
		}
	})
}

func (j *kvJob) cluster() *fcc.Cluster { return j.c }
func (j *kvJob) stats() *sim.Stats     { return j.tree }
func (j *kvJob) warm()                 {}

func (j *kvJob) finish() (*outcome, error) {
	o := &outcome{}
	for hi, g := range j.gens {
		if g.untyped != 0 {
			return nil, fmt.Errorf("kv-oltp: host %d: %d operations failed with an untyped error", hi, g.untyped)
		}
		if un := g.issued - g.committed - g.typed; un != 0 {
			return nil, fmt.Errorf("kv-oltp: host %d: %d unaccounted transactions", hi, un)
		}
		if g.outstanding != 0 {
			return nil, fmt.Errorf("kv-oltp: host %d: %d operations never resolved", hi, g.outstanding)
		}
		o.attempted += g.issued + g.shed
		o.committed += g.committed
		o.typed += g.typed
		o.shed += g.shed
		o.lat = append(o.lat, g.lat...)
		if g.last > o.simDur {
			o.simDur = g.last
		}
	}
	return o, nil
}

// ---- mem-stream ----------------------------------------------------

const (
	memHosts     = 8
	memProcs     = 4 // closed-loop Procs per host, one per MSHR
	memHotBytes  = 512 << 10
	memColdBytes = 8 << 20
	memOps       = 5000 // per Proc per round
	// memRegion is each host's private window of FAM: hot set, then
	// cold set. Hosts never share lines, so each Proc's shadow copy is
	// exact without cross-host coherence.
	memRegion = 16 << 20
)

type memJob struct {
	c     *fcc.Cluster
	procs []*memProc
	seed  uint64
	ops   int
	t0    sim.Time
}

// memProc is one closed-loop client: 3:1 Load64P/Store64P, ¾ of
// accesses to its slice of the host's 512 KB hot set and ¼ to its slice
// of the 8 MB cold set, one word per line. shadow holds the last value
// stored to each of its lines; every load must return it.
type memProc struct {
	hot, cold   uint64 // host addresses of the Proc's slices
	shadow      []uint64
	loads       int64
	stores      int64
	mismatches  int64
	firstBadAt  uint64
	lat         []sim.Time
	last        sim.Time
	hotLines    int
	coldLines   int
	hostOrdinal int
}

func buildMemStream(seed uint64, size float64, sp *spans) (job, error) {
	c, err := fcc.New(fcc.Config{
		Hosts: memHosts, FAMs: 4, FAMCapacity: 2 * memRegion,
		Topology: leafSpine(),
	})
	if err != nil {
		return nil, err
	}
	sp.build = sp.lap()
	sp.store = sp.lap()
	j := &memJob{c: c, seed: seed, ops: scaled(memOps, size)}
	hotLines := memHotBytes / 64 / memProcs
	coldLines := memColdBytes / 64 / memProcs
	for hi, h := range c.Hosts {
		region := c.FAMBase(hi%4) + uint64(hi/4)*memRegion
		for k := 0; k < memProcs; k++ {
			mp := &memProc{
				hot:         region + uint64(k*hotLines*64),
				cold:        region + memHotBytes + uint64(k*coldLines*64),
				hotLines:    hotLines,
				coldLines:   coldLines,
				hostOrdinal: hi,
			}
			j.procs = append(j.procs, mp)
			hh := h
			c.Go(fmt.Sprintf("%s/warm%d", h.Name(), k), func(p *sim.Proc) {
				for l := 0; l < mp.hotLines; l++ {
					hh.Load64P(p, mp.hot+uint64(l*64))
				}
			})
		}
	}
	sp.spawn = sp.lap()
	return j, nil
}

func (j *memJob) cluster() *fcc.Cluster { return j.c }
func (j *memJob) stats() *sim.Stats     { return j.c.Stats() }

// warm runs the hot-set pass, then spawns the timed clients.
func (j *memJob) warm() {
	j.c.Run()
	j.t0 = j.c.Eng.Now()
	for i, mp := range j.procs {
		mp := mp
		h := j.c.Hosts[mp.hostOrdinal]
		rng := sim.NewRNG(j.seed).Fork(uint64(i) + 1)
		// The checking state is the benchmark's own, so it is allocated
		// here, outside the timed setup.
		mp.shadow = make([]uint64, mp.hotLines+mp.coldLines)
		mp.lat = make([]sim.Time, 0, j.ops)
		j.c.Go(fmt.Sprintf("%s/stream%d", h.Name(), i%memProcs), func(p *sim.Proc) {
			for n := 0; n < j.ops; n++ {
				// ¾ of accesses go to the hot slice, ¼ to the cold one;
				// shadow indexes hot lines first, then cold lines.
				line := rng.Intn(mp.hotLines)
				addr := mp.hot + uint64(line*64)
				if rng.Intn(4) == 0 {
					cl := rng.Intn(mp.coldLines)
					line, addr = mp.hotLines+cl, mp.cold+uint64(cl*64)
				}
				start := p.Now()
				if rng.Intn(4) == 0 {
					v := rng.Uint64()
					h.Store64P(p, addr, v)
					mp.shadow[line] = v
					mp.stores++
				} else {
					if got := h.Load64P(p, addr); got != mp.shadow[line] {
						if mp.mismatches == 0 {
							mp.firstBadAt = addr
						}
						mp.mismatches++
					}
					mp.loads++
				}
				mp.lat = append(mp.lat, p.Now()-start)
			}
			mp.last = p.Now()
		})
	}
}

func (j *memJob) finish() (*outcome, error) {
	o := &outcome{}
	for i, mp := range j.procs {
		if mp.mismatches != 0 {
			return nil, fmt.Errorf("mem-stream: client %d: %d loads disagree with the shadow store (first at %#x)",
				i, mp.mismatches, mp.firstBadAt)
		}
		if n := mp.loads + mp.stores; n != int64(j.ops) {
			return nil, fmt.Errorf("mem-stream: client %d finished %d of %d accesses", i, n, j.ops)
		}
		o.attempted += int64(j.ops)
		o.committed += int64(j.ops)
		o.lat = append(o.lat, mp.lat...)
		if d := mp.last - j.t0; d > o.simDur {
			o.simDur = d
		}
	}
	return o, nil
}

// ---- dc-sharded ----------------------------------------------------

const (
	dcHosts = 448
	dcFAMs  = 64
	dcOps   = 120 // per host per round
	// dcFlapEvery and dcFlapDown shape the periodic outage of one cut
	// aggregation–core link.
	dcFlapEvery = 100 * sim.Microsecond
	dcFlapDown  = 20 * sim.Microsecond
	dcFlapLink  = "fs-p0a0<->fs-c0"
)

type dcJob struct {
	c     *fcc.Cluster
	hosts []*dcHost
}

type dcHost struct {
	attempted, committed, typed int64
	untyped                     error
	lat                         []sim.Time
	last                        sim.Time
}

// buildDCSharded is E13's 64-switch, 512-endpoint 3-tier fat-tree with
// 1 µs long-haul core links, cut into two shards. Every host runs one
// closed-loop Proc issuing raw 64 B reads and writes (every fourth to
// a far FAM, every third a write) through RequestRetry, while a
// scheduled plan flaps a cut aggregation–core link.
func buildDCSharded(seed uint64, size float64, sp *spans) (job, error) {
	c, err := fcc.New(fcc.Config{
		Hosts: dcHosts, FAMs: dcFAMs, FAMCapacity: 1 << 22,
		Topology: &fabric.TopoSpec{
			Kind: fabric.TopoFatTree, Tiers: 3, Radix: 8, Pods: 6,
			LongHaulConfig: func() link.Config {
				lc := link.DefaultConfig()
				p := lc.Phys
				p.Propagation = sim.Microsecond
				lc.Phys = p
				return lc
			},
		},
		Shards: 2,
	})
	if err != nil {
		return nil, err
	}
	for _, h := range c.Hosts {
		h.Endpoint().Timeout = 25 * sim.Microsecond
	}
	sp.build = sp.lap()
	sp.store = sp.lap()
	ops := scaled(dcOps, size)
	// Each op takes ~1-5 µs plus up to 1 µs of think time; flap for the
	// whole expected span (later flaps fire after the clients finish
	// and touch nothing).
	var plan []fcc.FaultEvent
	for at := dcFlapEvery / 2; at < sim.Time(ops)*6*sim.Microsecond; at += dcFlapEvery {
		plan = append(plan,
			fcc.FaultEvent{At: at, Link: dcFlapLink, Fault: fault.Fault{Kind: fault.LinkDown}},
			fcc.FaultEvent{At: at + dcFlapDown, Link: dcFlapLink, Fault: fault.Fault{Kind: fault.LinkDown}, Heal: true})
	}
	if err := c.SchedulePlan(plan); err != nil {
		return nil, err
	}
	j := &dcJob{c: c}
	for hi, h := range c.Hosts {
		hi, h := hi, h
		dh := &dcHost{lat: make([]sim.Time, 0, ops)}
		j.hosts = append(j.hosts, dh)
		ep := h.Endpoint()
		rng := sim.NewRNG(seed).Fork(uint64(hi))
		near := c.FAMs[hi%dcFAMs].ID()
		far := c.FAMs[(hi+dcFAMs/2)%dcFAMs].ID()
		h.Engine().Go(h.Name(), func(p *sim.Proc) {
			p.Sleep(sim.Time(1 + hi*7919)) // prime-staggered start, in ps
			for op := 0; op < ops; op++ {
				target := near
				if op%4 == 3 {
					target = far
				}
				pkt := &flit.Packet{Chan: flit.ChMem, Op: flit.OpMemRd, Dst: target,
					Addr: uint64(rng.Intn(1<<16)) * 64, ReqLen: 64}
				if op%3 == 2 {
					pkt.Op, pkt.ReqLen, pkt.Size = flit.OpMemWr, 0, 64
				}
				dh.attempted++
				start := p.Now()
				_, err := ep.RequestRetry(pkt, 3, 20*sim.Microsecond).Await(p)
				switch {
				case err == nil:
					dh.committed++
					dh.lat = append(dh.lat, p.Now()-start)
				case errors.Is(err, txn.ErrTimeout), errors.Is(err, txn.ErrDeviceDown):
					dh.typed++
				default:
					dh.untyped = err
					return
				}
				p.Sleep(sim.Time(200+rng.Intn(800)) * sim.Nanosecond)
			}
			dh.last = p.Now()
		})
	}
	sp.spawn = sp.lap()
	return j, nil
}

func (j *dcJob) cluster() *fcc.Cluster { return j.c }
func (j *dcJob) stats() *sim.Stats     { return j.c.Stats() }
func (j *dcJob) warm()                 {}

func (j *dcJob) finish() (*outcome, error) {
	o := &outcome{}
	for hi, dh := range j.hosts {
		if dh.untyped != nil {
			panic(fmt.Sprintf("dc-sharded: host %d: untyped error: %v", hi, dh.untyped))
		}
		if dh.committed+dh.typed != dh.attempted {
			return nil, fmt.Errorf("dc-sharded: host %d: %d of %d operations neither committed nor failed typed",
				hi, dh.attempted-dh.committed-dh.typed, dh.attempted)
		}
		o.attempted += dh.attempted
		o.committed += dh.committed
		o.typed += dh.typed
		o.lat = append(o.lat, dh.lat...)
		if dh.last > o.simDur {
			o.simDur = dh.last
		}
	}
	return o, nil
}
