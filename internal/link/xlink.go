package link

import "fcc/internal/sim"

// NewCross creates a link cut between two failure domains: port A runs
// on engA and port B on engB. A cut link runs the same wire protocol as
// any other; only its messages travel through the ab (A-to-B) and ba
// (B-to-A) mailboxes, which re-execute them on the destination engine
// at exactly the timestamp a same-engine link would use, so the two are
// timing-identical. Every such message carries at least one
// propagation delay, which is what lets the coordinator use the
// minimum cut-link propagation as its lookahead window. The messages
// are unpooled (see msgPool). Sinks, sinks' engines, and all per-port
// state must stay within the owning domain. The packet is shared as on
// any link: Send transferred it, and the coordinator's window barrier
// orders the sender's writes before the receiver's reads.
func NewCross(name string, cfg Config, engA, engB *sim.Engine, ab, ba *sim.Mailbox) (*Link, error) {
	return newLink(name, cfg, engA, engB, ab.Send, ba.Send)
}
