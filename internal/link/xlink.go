package link

import (
	"fcc/internal/flit"
	"fcc/internal/sim"
)

// Cross-shard links. A link whose two ports live in different failure
// domains cannot touch its peer directly: the peer's Port, pool, and
// engine belong to another shard's goroutine. Instead, the four
// peer-touching wire messages — flit delivery, ack, nak, and credit
// return — are marshalled through a sim.Mailbox and re-executed on the
// destination engine at exactly the timestamp the intra-shard code
// would have used, so a cross-shard link is timing-identical to a local
// one. Every such message carries at least one propagation delay, which
// is what lets the coordinator use the minimum cut-link propagation as
// its conservative lookahead window.
//
// Flit objects themselves never cross the boundary: each side owns a
// private pool (the serial code shares one pool per link, which is only
// safe single-threaded). The message carries the flit's sequence
// number, last flag and packet pointer, and the receiver mints a fresh
// descriptor from its own pool. The packet is shared as on a local
// link: Send transferred it, and the coordinator's window barrier
// orders the sender's writes before the receiver's reads. Cross
// messages allocate — they are the price of the cut, paid only on the
// few inter-domain links.

// NewCross creates a link spanning two shards: port A schedules on
// engA, port B on engB, and peer interactions travel through the ab
// (A-to-B) and ba (B-to-A) mailboxes. Sinks, sinks' engines, and all
// per-port state must stay within the owning shard.
func NewCross(name string, cfg Config, engA, engB *sim.Engine, ab, ba *sim.Mailbox) (*Link, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l := &Link{
		name: name,
		a:    newPort(engA, name+".A", cfg, flit.NewPool()),
		b:    newPort(engB, name+".B", cfg, flit.NewPool()),
	}
	l.a.peer, l.b.peer = l.b, l.a
	l.a.xmb, l.b.xmb = ab, ba
	return l, nil
}

// Cross reports whether the link spans two shards.
func (l *Link) Cross() bool { return l.a.xmb != nil }

// xMsg is one marshalled cross-shard wire message. It is allocated
// fresh per message: the source and destination engines run on
// different goroutines, so neither side's free list may recycle it.
type xMsg struct {
	p    *Port // destination port; touched only on its own engine
	vc   flit.Channel
	seq  uint32
	n    int
	last bool
	pkt  *flit.Packet
}

// remote queues a marshalled message to the peer's shard, delivering
// after the given wire delay.
func (p *Port) remote(delay sim.Time, fn func(any), m *xMsg) {
	m.p = p.peer
	p.xmb.Send(sim.SaturatingAdd(p.eng.Now(), delay), fn, m)
}

// sendRemoteFlit marshals a flit across the shard boundary. The local
// wire reference ends here (the replay buffer keeps its own when retry
// is enabled); the peer mints its own descriptor.
func (p *Port) sendRemoteFlit(vc flit.Channel, f *flit.Flit) {
	p.remote(p.cfg.Phys.Propagation, xDeliver, &xMsg{vc: vc, seq: f.Seq, last: f.Last, pkt: f.Pkt})
	p.pool.Release(f)
}

// xDeliver lands a marshalled flit at the destination port, running on
// the destination engine.
func xDeliver(a any) {
	m := a.(*xMsg)
	f := m.p.pool.Get()
	f.Seq, f.Last, f.Pkt = m.seq, m.last, m.pkt
	m.p.receiveFlit(m.vc, f)
}

// xAck delivers a link-layer ack to the destination transmitter.
func xAck(a any) {
	m := a.(*xMsg)
	m.p.handleAck(m.vc, m.seq)
}

// xNak delivers a link-layer nak (retransmit request).
func xNak(a any) {
	m := a.(*xMsg)
	m.p.handleNak(m.vc, m.seq)
}

// xCredits hands freed receive-buffer credits back to the transmitter.
func xCredits(a any) {
	m := a.(*xMsg)
	m.p.addCredits(m.vc, m.n)
}
