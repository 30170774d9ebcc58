package link

import (
	"fmt"

	"fcc/internal/flit"
	"fcc/internal/sim"
	"fcc/internal/telemetry"
)

// Link is one bidirectional physical link with a Port at each end.
type Link struct {
	name string
	a, b *Port
	msgs msgPool
}

// New creates a link whose two ports run on one engine. Sinks are
// attached to the ports afterwards with SetSink; packets sent on A
// arrive at B's sink and vice versa.
func New(eng *sim.Engine, name string, cfg Config) (*Link, error) {
	at2 := eng.At2 // one method value serves both ports
	l, err := newLink(name, cfg, eng, eng, at2, at2)
	if err != nil {
		return nil, err
	}
	l.a.msgs, l.b.msgs = &l.msgs, &l.msgs
	return l, nil
}

// newLink builds both ports, without a message free list (see
// msgPool). postA and postB schedule a message from A to B and from B
// to A.
func newLink(name string, cfg Config, engA, engB *sim.Engine, postA, postB func(sim.Time, func(any), any)) (*Link, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l := &Link{
		name: name,
		a:    newPort(engA, name+".A", cfg, postA),
		b:    newPort(engB, name+".B", cfg, postB),
	}
	l.a.peer, l.b.peer = l.b, l.a
	return l, nil
}

// Name reports the link's constructor-given name.
func (l *Link) Name() string { return l.name }

// A returns the first endpoint.
func (l *Link) A() *Port { return l.a }

// B returns the second endpoint.
func (l *Link) B() *Port { return l.b }

// txPacket is a packet queued for transmission, flit by flit: n flits
// numbered from seq, of which next have gone out. Instances are
// recycled through the port's free list, so a steady-state Send
// performs no allocation.
type txPacket struct {
	pkt  *flit.Packet
	seq  uint32
	n    int
	next int
	enq  sim.Time
	free *txPacket
}

// wireFlit is one flit as the wire carries it: its values, not a
// descriptor. Only retry state holds flits over time, and it files
// them as descriptors from the holding port's pool.
type wireFlit struct {
	vc   flit.Channel
	seq  uint32
	last bool
	pkt  *flit.Packet
}

// linkMsg is the argument block of every peer-bound message — flit
// delivery, ack, nak and credit return — so the wire travels as
// (static fn, *linkMsg) pairs instead of per-event closures. p is the
// destination port.
type linkMsg struct {
	p *Port
	wireFlit
	n    int
	next *linkMsg
}

// msgPool is the message free list the two ports of a same-engine link
// share, so the wire hot path allocates nothing in steady state. A cut
// link has none: its messages are handled on the other domain's
// goroutine, and recycling them into the receiver's list would grow it
// without bound on a one-way stream.
type msgPool struct{ free *linkMsg }

func (p *Port) getMsg() *linkMsg {
	if p.msgs == nil || p.msgs.free == nil {
		return &linkMsg{}
	}
	m := p.msgs.free
	p.msgs.free = m.next
	return m
}

// putMsg recycles a handled message, dropping its packet pointer so a
// parked free-list entry never pins a packet.
func (p *Port) putMsg(m *linkMsg) {
	if p.msgs == nil {
		return
	}
	m.pkt = nil
	m.next = p.msgs.free
	p.msgs.free = m
}

// send hands a message to the peer after the given wire delay. It is
// the one path every peer-bound message takes; on a cut link every
// delay is at least one propagation, the coordinator's lookahead.
func (p *Port) send(delay sim.Time, fn func(any), m *linkMsg) {
	m.p = p.peer
	p.post(sim.SaturatingAdd(p.eng.Now(), delay), fn, m)
}

// serDone fires when the last bit of the in-flight flit, whose values
// sit on the port while sending is true, has left the transmitter:
// launch it toward the peer, free the wire, refill, and continue.
func serDone(a any) {
	p := a.(*Port)
	p.sending = false
	m := p.getMsg()
	m.wireFlit = p.tx
	p.tx.pkt = nil // an idle port pins no packet
	p.send(p.cfg.Phys.Propagation, deliverFlit, m)
	if p.DrainHook != nil {
		p.DrainHook()
	}
	p.kick()
}

// deliverFlit lands a flit at the destination port.
func deliverFlit(a any) {
	m := a.(*linkMsg)
	p, w := m.p, m.wireFlit
	p.putMsg(m)
	p.receiveFlit(w)
}

// ackFlit delivers a link-layer ack to the destination transmitter.
func ackFlit(a any) {
	m := a.(*linkMsg)
	p, vc, seq := m.p, m.vc, m.seq
	p.putMsg(m)
	p.handleAck(vc, seq)
}

// nakFlit delivers a link-layer nak (retransmit request).
func nakFlit(a any) {
	m := a.(*linkMsg)
	p, vc, seq := m.p, m.vc, m.seq
	p.putMsg(m)
	p.handleNak(vc, seq)
}

// returnCredits hands freed receive-buffer credits to the transmitter.
func returnCredits(a any) {
	m := a.(*linkMsg)
	p, vc, n := m.p, m.vc, m.n
	p.putMsg(m)
	p.addCredits(vc, n)
}

// Port is one directionful endpoint of a link: it transmits packets
// toward its peer and receives packets for its sink.
type Port struct {
	eng  *sim.Engine
	name string
	cfg  Config
	peer *Port
	sink Sink
	rng  *sim.RNG
	// post schedules a message on the peer's engine at an absolute
	// time: Engine.At2 when both ports share an engine, the cut link's
	// Mailbox.Send otherwise.
	post func(at sim.Time, fn func(any), arg any)
	msgs *msgPool // the link's shared free list; nil on a cut link
	// pool mints the descriptors retry state holds: the replay buffer,
	// the retry queue and the reorder stash.
	pool flit.Pool

	// Transmit state. txq is consumed from txqHead rather than resliced
	// so the backing array is reused; it compacts when the dead prefix
	// dominates.
	txq      [flit.NumChannels][]*txPacket
	txqHead  [flit.NumChannels]int
	retryq   [flit.NumChannels][]*flit.Flit
	credits  [flit.NumChannels]int
	shared   int
	sending  bool
	tx       wireFlit // the in-flight flit while sending
	lockedVC int
	sched    Scheduler
	vcSeq    [flit.NumChannels]uint32
	replay   [flit.NumChannels]map[uint32]*flit.Flit

	// Free lists and scratch for the allocation-free hot path.
	txpFree *txPacket
	relFree *pktRelease
	viewBuf [flit.NumChannels]VCView

	// Fault state (see the fault.Injectable implementation on Link).
	// down pauses the transmitter; flits already serialized onto the
	// wire still land at the peer, so a flap stalls but never loses
	// data. laneDiv > 1 multiplies serialization time, modelling a link
	// renegotiated to fewer lanes. leaked tracks credits removed by an
	// injected CreditLeak so healing restores exactly that amount.
	down         bool
	downAt       sim.Time
	laneDiv      int
	leaked       [flit.NumChannels]int
	leakedShared int

	// stalled marks an open transmit-stall episode (traffic queued, no
	// usable credit). It is confirmed into StallPicks by a check event
	// one picosecond later, so a stall relieved within the same instant
	// never counts — which keeps the metric independent of the order
	// same-timestamp events fire in (serial and sharded runs interleave
	// such ties differently; see internal/sim.Coordinator).
	stalled bool

	// Receive state. rxN counts the flits of the packet being
	// reassembled on each VC.
	rxN      [flit.NumChannels]int
	rxUsed   [flit.NumChannels]int
	rxLimit  [flit.NumChannels]int
	rxDebt   [flit.NumChannels]int
	rxExpect [flit.NumChannels]uint32
	rxStash  [flit.NumChannels]map[uint32]*flit.Flit

	// DrainHook, when set, is invoked after each flit leaves the
	// transmitter — switches use it to refill bounded output queues.
	DrainHook func()

	// Tracer, when set via SetTracer, receives a HopRecord for every
	// link-layer event at this port.
	tracer *telemetry.Tracer

	// Metrics.
	FlitsTx     sim.Counter
	FlitsRx     sim.Counter
	PktsTx      sim.Counter
	PktsRx      sim.Counter
	CRCErrors   sim.Counter
	Retransmits sim.Counter
	StallPicks  sim.Counter // transmit stalls that outlived their onset instant
	DupFlits    sim.Counter // stale duplicate retransmissions dropped
	QueueLat    *sim.Histogram
}

func newPort(eng *sim.Engine, name string, cfg Config, post func(sim.Time, func(any), any)) *Port {
	p := &Port{
		eng:      eng,
		name:     name,
		cfg:      cfg,
		post:     post,
		lockedVC: -1,
		laneDiv:  1,
		rng:      sim.NewRNG(cfg.Seed ^ 0xfabc),
		QueueLat: sim.NewHistogram(),
	}
	if cfg.NewScheduler != nil {
		p.sched = cfg.NewScheduler()
	} else {
		p.sched = NewRoundRobin()
	}
	for i := range p.credits {
		p.credits[i] = cfg.RxBufFlits[i]
		p.rxLimit[i] = cfg.RxBufFlits[i]
		if cfg.RetryEnabled {
			p.replay[i] = make(map[uint32]*flit.Flit)
			p.rxStash[i] = make(map[uint32]*flit.Flit)
		}
	}
	if cfg.SharedCreditPool {
		total := 0
		for _, n := range cfg.RxBufFlits {
			total += n
		}
		p.shared = total
	}
	return p
}

// Name reports the port's diagnostic name.
func (p *Port) Name() string { return p.name }

// Config returns the link configuration.
func (p *Port) Config() Config { return p.cfg }

// SetSink attaches the packet consumer. Must be set before traffic flows.
func (p *Port) SetSink(s Sink) { p.sink = s }

// SetTracer attaches an opt-in flit tracer. Nil disables tracing.
func (p *Port) SetTracer(t *telemetry.Tracer) { p.tracer = t }

// trace records a flit-level event (no packet identity).
func (p *Port) trace(ev telemetry.Event, vc flit.Channel, seq uint32) {
	if p.tracer == nil {
		return
	}
	p.tracer.Record(telemetry.HopRecord{
		At: p.eng.Now(), Port: p.name, Event: ev, VC: vc, Seq: seq,
		Credits: p.Credits(vc),
	})
}

// tracePkt records an event that can name its packet.
func (p *Port) tracePkt(ev telemetry.Event, vc flit.Channel, seq uint32, pkt *flit.Packet) {
	if p.tracer == nil {
		return
	}
	p.tracer.Record(telemetry.HopRecord{
		At: p.eng.Now(), Port: p.name, Event: ev, VC: vc, Seq: seq,
		Credits: p.Credits(vc),
		HasPkt:  true, Src: pkt.Src, Dst: pkt.Dst, Tag: pkt.Tag,
		Op: pkt.Op, Hops: pkt.Hops,
	})
}

// RegisterStats attaches the port's counters, queue-latency histogram,
// and per-VC occupancy gauges to a stats registry, giving the port a
// stable address in the fabric-wide metrics tree.
func (p *Port) RegisterStats(s *sim.Stats) {
	s.Register("flits_tx", &p.FlitsTx)
	s.Register("flits_rx", &p.FlitsRx)
	s.Register("pkts_tx", &p.PktsTx)
	s.Register("pkts_rx", &p.PktsRx)
	s.Register("crc_errors", &p.CRCErrors)
	s.Register("retransmits", &p.Retransmits)
	s.Register("stall_picks", &p.StallPicks)
	s.Register("dup_flits", &p.DupFlits)
	s.RegisterHistogram("queue_lat_ns", p.QueueLat)
	s.Gauge("down", func() int64 {
		if p.down {
			return 1
		}
		return 0
	})
	s.Gauge("lane_div", func() int64 { return int64(p.laneDiv) })
	for i := 0; i < flit.NumChannels; i++ {
		vc := flit.Channel(i)
		c := s.Child(vc.String())
		c.Gauge("credits", func() int64 { return int64(p.Credits(vc)) })
		c.Gauge("tx_queue_flits", func() int64 { return int64(p.TxQueueFlits(vc)) })
		c.Gauge("rx_buf_used", func() int64 { return int64(p.RxBufUsed(vc)) })
		c.Gauge("replay_len", func() int64 { return int64(p.ReplayBufferLen(vc)) })
	}
}

// Send enqueues a packet for transmission to the peer. The queue is
// unbounded; callers that need backpressure bound it via TxQueueFlits.
//
// Send transfers the packet: the same *Packet is what the peer's sink
// receives, so the caller must not modify it, or write into its Data,
// afterwards (see flit.Packet). A packet the wire format cannot carry
// (flit.Packet.Check) or larger than MaxPacketPayload panics here.
func (p *Port) Send(pkt *flit.Packet) {
	if pkt.Size > MaxPacketPayload {
		panic(fmt.Sprintf("link: packet payload %d exceeds MaxPacketPayload %d (segment it at the transaction layer)",
			pkt.Size, MaxPacketPayload))
	}
	if err := pkt.Check(); err != nil {
		panic(fmt.Sprintf("link %s: unsendable packet %v: %v", p.name, pkt, err))
	}
	vc := pkt.Chan
	tp := p.getTxPacket()
	tp.pkt, tp.seq, tp.n, tp.next, tp.enq = pkt, p.vcSeq[vc], p.cfg.Mode.FlitsFor(pkt.Size), 0, p.eng.Now()
	p.vcSeq[vc] += uint32(tp.n)
	p.txq[vc] = append(p.txq[vc], tp)
	p.tracePkt(telemetry.EvPktSend, vc, tp.seq, pkt)
	p.kick()
}

func (p *Port) getTxPacket() *txPacket {
	tp := p.txpFree
	if tp == nil {
		return &txPacket{}
	}
	p.txpFree = tp.free
	tp.free = nil
	return tp
}

// putTxPacket recycles a fully transmitted packet record, clearing its
// packet pointer so the free list pins no packet.
func (p *Port) putTxPacket(tp *txPacket) {
	tp.pkt = nil
	tp.free = p.txpFree
	p.txpFree = tp
}

// TxQueueFlits reports the flits queued (not yet on the wire) for a VC.
func (p *Port) TxQueueFlits(vc flit.Channel) int {
	n := len(p.retryq[vc])
	for _, tp := range p.txq[vc][p.txqHead[vc]:] {
		n += tp.n - tp.next
	}
	return n
}

// TxQueuePackets reports the packets queued on a VC.
func (p *Port) TxQueuePackets(vc flit.Channel) int {
	return len(p.txq[vc]) - p.txqHead[vc]
}

// Credits reports the transmit credits currently available on a VC (or
// the shared pool when so configured).
func (p *Port) Credits(vc flit.Channel) int {
	if p.cfg.SharedCreditPool {
		return p.shared
	}
	return p.credits[vc]
}

// creditAvailable reports whether one flit's worth of credit exists.
func (p *Port) creditAvailable(vc flit.Channel) bool { return p.Credits(vc) > 0 }

func (p *Port) consumeCredit(vc flit.Channel) {
	if p.cfg.SharedCreditPool {
		p.shared--
		if p.shared < 0 {
			panic("link: shared credit underflow")
		}
		return
	}
	p.credits[vc]--
	if p.credits[vc] < 0 {
		panic("link: credit underflow on " + vc.String())
	}
}

// addCredits is invoked (after wire delay) when the peer frees buffer.
func (p *Port) addCredits(vc flit.Channel, n int) {
	if p.cfg.SharedCreditPool {
		p.shared += n
	} else {
		p.credits[vc] += n
	}
	p.kick()
}

// pickVC chooses the VC for the next flit, honouring packet arbitration.
func (p *Port) pickVC() int {
	if p.lockedVC >= 0 {
		vc := flit.Channel(p.lockedVC)
		if p.eligible(vc) {
			return p.lockedVC
		}
		// Locked but stalled: packet-level head-of-line blocking. This
		// is precisely the stall StallPicks exists to expose — count it
		// the same as a scheduler pick that found traffic but no credit.
		p.noteStall()
		return -1
	}
	views := p.viewBuf[:] // scratch; schedulers read it synchronously
	any := false
	for i := range views {
		vc := flit.Channel(i)
		v := VCView{
			Channel:       vc,
			QueuedFlits:   p.TxQueueFlits(vc),
			QueuedPackets: p.TxQueuePackets(vc),
			Credits:       p.Credits(vc),
			Eligible:      p.eligible(vc),
		}
		if p.TxQueuePackets(vc) > 0 {
			v.HeadAge = int64(p.eng.Now() - p.txq[vc][p.txqHead[vc]].enq)
		}
		views[i] = v
		if v.QueuedFlits > 0 {
			any = true
		}
	}
	idx := p.sched.Pick(views)
	if idx < 0 && any {
		p.noteStall()
	}
	return idx
}

// noteStall opens a stall episode and schedules its confirmation one
// picosecond out. A successful pick before the check fires closes the
// episode uncounted: credits that arrive within the onset instant mean
// the transmitter never actually waited.
func (p *Port) noteStall() {
	if p.stalled {
		return
	}
	p.stalled = true
	p.eng.After2(1, confirmStall, p)
}

// confirmStall counts a stall episode still open one picosecond after
// onset and closes it, so the next failed pick opens (and counts) a
// fresh episode.
func confirmStall(a any) {
	p := a.(*Port)
	if p.stalled {
		p.StallPicks.Inc()
		p.stalled = false
	}
}

func (p *Port) eligible(vc flit.Channel) bool {
	if len(p.retryq[vc]) > 0 {
		return true // retransmissions own their credit already
	}
	return p.TxQueuePackets(vc) > 0 && p.creditAvailable(vc)
}

// kick advances the transmitter if the wire is idle and a flit is ready.
func (p *Port) kick() {
	if p.sending || p.down {
		return
	}
	idx := p.pickVC()
	if idx < 0 {
		return
	}
	p.stalled = false // relieved before (or at) the confirm check: no stall
	vc := flit.Channel(idx)
	if len(p.retryq[vc]) > 0 {
		f := p.retryq[vc][0]
		p.retryq[vc] = p.retryq[vc][1:]
		p.Retransmits.Inc()
		p.trace(telemetry.EvRetransmit, vc, f.Seq)
		p.tx = wireFlit{vc: vc, seq: f.Seq, last: f.Last, pkt: f.Pkt}
		// The replay buffer normally still holds the flit, and the retry
		// queue's reference ends here. If the ack arrived while the flit
		// sat in the queue, the entry was released, and the queue's
		// reference files it again.
		if _, ok := p.replay[vc][f.Seq]; ok {
			p.pool.Release(f)
		} else {
			p.replay[vc][f.Seq] = f
		}
	} else {
		h := p.txqHead[vc]
		tp := p.txq[vc][h]
		seq := tp.seq + uint32(tp.next)
		p.consumeCredit(vc)
		p.tracePkt(telemetry.EvFlitTx, vc, seq, tp.pkt)
		tp.next++
		p.tx = wireFlit{vc: vc, seq: seq, last: tp.next == tp.n, pkt: tp.pkt}
		if p.cfg.RetryEnabled {
			f := p.pool.Get()
			f.Seq, f.Last, f.Pkt = p.tx.seq, p.tx.last, p.tx.pkt
			p.replay[vc][seq] = f
		}
		if p.tx.last {
			p.txq[vc][h] = nil
			h++
			p.txqHead[vc] = h
			if h >= 32 && h*2 >= len(p.txq[vc]) {
				n := copy(p.txq[vc], p.txq[vc][h:])
				clear(p.txq[vc][n:])
				p.txq[vc] = p.txq[vc][:n]
				p.txqHead[vc] = 0
			}
			p.PktsTx.Inc()
			p.QueueLat.ObserveTime(p.eng.Now() - tp.enq)
			p.putTxPacket(tp)
			if p.lockedVC == idx {
				p.lockedVC = -1
			}
		} else if p.cfg.PacketArbitration {
			p.lockedVC = idx
		}
	}
	p.sending = true
	p.FlitsTx.Inc()
	ser := p.cfg.Phys.SerTime(p.cfg.Mode.WireBytes()) * sim.Time(p.laneDiv)
	p.eng.After2(ser, serDone, p)
}

// receiveFlit handles one arriving flit: error injection, selective
// repeat reordering, reassembly, and delivery.
func (p *Port) receiveFlit(w wireFlit) {
	vc := w.vc
	p.FlitsRx.Inc()
	p.trace(telemetry.EvFlitRx, vc, w.seq)
	if p.cfg.RetryEnabled {
		m := p.getMsg()
		m.vc, m.seq = vc, w.seq
		if p.cfg.Phys.BER > 0 && p.rng.Float64() < p.cfg.Phys.BER {
			p.CRCErrors.Inc()
			p.trace(telemetry.EvCRCError, vc, w.seq)
			p.send(p.cfg.Phys.Propagation, nakFlit, m)
			return
		}
		p.send(p.cfg.Phys.Propagation, ackFlit, m)
		if w.seq != p.rxExpect[vc] {
			if w.seq-p.rxExpect[vc] >= 1<<31 {
				// Stale retransmission of a flit already delivered (its
				// ack was lost or raced a NAK). Re-acking above is all
				// it needs; stashing it would leak the slot and deliver
				// the flit a second time when the sequence space wraps.
				p.DupFlits.Inc()
				p.trace(telemetry.EvDupDrop, vc, w.seq)
				return
			}
			// With original and retransmit both in flight, the stash
			// may already hold this flit.
			if _, dup := p.rxStash[vc][w.seq]; !dup {
				f := p.pool.Get()
				f.Seq, f.Last, f.Pkt = w.seq, w.last, w.pkt
				p.rxStash[vc][w.seq] = f
			}
			return
		}
		p.acceptFlit(w)
		for {
			f, ok := p.rxStash[vc][p.rxExpect[vc]]
			if !ok {
				break
			}
			delete(p.rxStash[vc], f.Seq)
			next := wireFlit{vc: vc, seq: f.Seq, last: f.Last, pkt: f.Pkt}
			p.pool.Release(f)
			p.acceptFlit(next)
		}
		return
	}
	p.acceptFlit(w)
}

// acceptFlit takes an in-order flit into its VC's receive buffer and,
// on a packet's last flit, delivers the packet the flits point at.
// Reassembly stays checked: the count must be exactly what the
// packet's Size needs, so a sender that resized a packet after sending
// it fails here, loudly.
func (p *Port) acceptFlit(w wireFlit) {
	vc := w.vc
	p.rxExpect[vc] = w.seq + 1
	p.rxUsed[vc]++
	p.rxN[vc]++
	if !w.last {
		return
	}
	n := p.rxN[vc]
	p.rxN[vc] = 0
	if want := p.cfg.Mode.FlitsFor(w.pkt.Size); n != want {
		panic(fmt.Sprintf("link %s: reassembly on %v: %d flits for %v, want %d", p.name, vc, n, w.pkt, want))
	}
	p.PktsRx.Inc()
	p.tracePkt(telemetry.EvPktDeliver, vc, w.seq+1-uint32(n), w.pkt)
	if p.sink == nil {
		panic("link " + p.name + ": packet arrived with no sink attached")
	}
	r := p.getRelease()
	r.vc, r.n = vc, n
	p.sink.Arrive(w.pkt, r.fn)
}

// pktRelease is the pooled credit-release record handed to the sink with
// each delivered packet. The fn field is bound once at construction so
// steady-state delivery allocates no closure.
type pktRelease struct {
	p        *Port
	vc       flit.Channel
	n        int
	released bool
	fn       func()
	next     *pktRelease
}

func (p *Port) getRelease() *pktRelease {
	r := p.relFree
	if r == nil {
		r = &pktRelease{p: p}
		r.fn = r.release
	} else {
		p.relFree = r.next
		r.next = nil
	}
	r.released = false
	return r
}

// release returns the packet's receive-buffer slots as credits. The
// record recycles immediately; released stays true while parked so a
// stale double-release still panics until the record is reused.
func (r *pktRelease) release() {
	if r.released {
		panic("link: packet released twice")
	}
	r.released = true
	p, vc := r.p, r.vc
	p.rxUsed[vc] -= r.n
	ret := r.n
	if p.rxDebt[vc] > 0 {
		swallow := min(p.rxDebt[vc], ret)
		p.rxDebt[vc] -= swallow
		ret -= swallow
	}
	if ret > 0 {
		m := p.getMsg()
		m.vc, m.n = vc, ret
		p.send(p.cfg.CreditReturnDelay+p.cfg.Phys.Propagation, returnCredits, m)
	}
	r.next = p.relFree
	p.relFree = r
}

// handleNak retransmits the flit with the given sequence number. The
// retransmission reuses the credit consumed by the original send.
func (p *Port) handleNak(vc flit.Channel, seq uint32) {
	f, ok := p.replay[vc][seq]
	if !ok {
		return // already retransmitted and acked
	}
	f.Retain() // the retry queue holds its own reference until resend
	p.retryq[vc] = append(p.retryq[vc], f)
	p.kick()
}

// handleAck drops a delivered flit from the replay buffer.
func (p *Port) handleAck(vc flit.Channel, seq uint32) {
	if f, ok := p.replay[vc][seq]; ok {
		delete(p.replay[vc], seq)
		p.pool.Release(f)
	}
}

// ReplayBufferLen reports unacknowledged flits on a VC (retry mode only).
func (p *Port) ReplayBufferLen(vc flit.Channel) int { return len(p.replay[vc]) }

// RxStashLen reports out-of-order flits held for reordering on a VC.
func (p *Port) RxStashLen(vc flit.Channel) int { return len(p.rxStash[vc]) }

// RxBufUsed reports occupied receive-buffer flits on a VC.
func (p *Port) RxBufUsed(vc flit.Channel) int { return p.rxUsed[vc] }

// SetRxBuf dynamically resizes this port's receive buffer for a VC —
// the mechanism credit-allocation policies (cfcpolicy) use to shift
// buffer between contending ports. Growth grants the peer extra credits
// after one propagation delay; shrinkage is absorbed as freed slots
// drain (a debt swallowed from future credit returns). Unsupported in
// shared-pool mode.
func (p *Port) SetRxBuf(vc flit.Channel, n int) {
	if p.cfg.SharedCreditPool {
		panic("link: SetRxBuf unsupported with a shared credit pool")
	}
	minFlits := p.cfg.Mode.FlitsFor(MaxPacketPayload)
	if n < minFlits {
		panic(fmt.Sprintf("link: SetRxBuf(%v, %d) below max packet size %d flits", vc, n, minFlits))
	}
	delta := n - p.rxLimit[vc]
	p.rxLimit[vc] = n
	switch {
	case delta > 0:
		grant := delta
		if p.rxDebt[vc] > 0 { // growth first cancels outstanding debt
			cancel := min(p.rxDebt[vc], grant)
			p.rxDebt[vc] -= cancel
			grant -= cancel
		}
		if grant > 0 {
			m := p.getMsg()
			m.vc, m.n = vc, grant
			p.send(p.cfg.Phys.Propagation, returnCredits, m)
		}
	case delta < 0:
		p.rxDebt[vc] += -delta
	}
}

// RxLimit reports the advertised buffer size for a VC.
func (p *Port) RxLimit(vc flit.Channel) int { return p.rxLimit[vc] }
