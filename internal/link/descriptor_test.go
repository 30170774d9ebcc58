package link

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"fcc/internal/flit"
	"fcc/internal/sim"
	"fcc/internal/telemetry"
)

// panicText runs fn and returns its panic message ("" if it returned).
func panicText(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg, _ = r.(string)
			if msg == "" {
				msg = "non-string panic"
			}
		}
	}()
	fn()
	return ""
}

// TestLinkSendRejectsUnencodable: everything the wire format cannot
// carry panics at Send, naming the reason. A ReqLen above 24 bits used
// to be truncated silently by the codec; it must fail like the rest.
func TestLinkSendRejectsUnencodable(t *testing.T) {
	for _, tc := range []struct {
		name string
		pkt  *flit.Packet
		want string
	}{
		{"reqlen", &flit.Packet{Chan: flit.ChIO, Op: flit.OpIORd, Src: 1, Dst: 2, ReqLen: flit.MaxReqLen + 1}, flit.ErrReqLen.Error()},
		{"src", &flit.Packet{Chan: flit.ChMem, Op: flit.OpMemRd, Src: flit.MaxPortID + 1, Dst: 2}, flit.ErrBadPortID.Error()},
		{"dst", &flit.Packet{Chan: flit.ChMem, Op: flit.OpMemRd, Src: 1, Dst: flit.MaxPortID + 1}, flit.ErrBadPortID.Error()},
		{"data", &flit.Packet{Chan: flit.ChMem, Op: flit.OpMemWr, Src: 1, Dst: 2, Size: 64, Data: make([]byte, 32)}, flit.ErrDataLen.Error()},
	} {
		_, l, _, _ := testLink(t, nil)
		if msg := panicText(func() { l.A().Send(tc.pkt) }); !strings.Contains(msg, tc.want) {
			t.Errorf("%s: Send panic %q, want one containing %q", tc.name, msg, tc.want)
		}
	}
	_, l, _, _ := testLink(t, nil)
	ok := &flit.Packet{Chan: flit.ChIO, Op: flit.OpIORd, Src: flit.MaxPortID, Dst: flit.MaxPortID, ReqLen: flit.MaxReqLen}
	if msg := panicText(func() { l.A().Send(ok) }); msg != "" {
		t.Fatalf("packet at every bound rejected: %s", msg)
	}
}

// TestLinkFlitsMatchEncode: the descriptor flits a port sends for a
// packet are the flits the byte codec would build — same count, same
// sequence numbers, and packet boundaries (the last flag) in the same
// places — in both modes and around every flit boundary.
func TestLinkFlitsMatchEncode(t *testing.T) {
	for _, m := range []flit.Mode{flit.Mode68, flit.Mode256} {
		eng, l, _, sb := testLink(t, func(c *Config) { c.Mode = m })
		tr := telemetry.NewTracer(1 << 12)
		l.A().SetTracer(tr)
		l.B().SetTracer(tr)
		var want []*flit.Flit
		var firsts []uint32 // first seq of each packet, per the codec
		seq := uint32(0)
		for i, size := range []uint32{0, 1, 40, 41, 63, 64, 65, 104, 105, 224, 225, 248, MaxPacketPayload} {
			p := memPacket(uint16(i), size)
			fl, err := flit.Encode(m, p, seq)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, fl...)
			firsts = append(firsts, seq)
			seq += uint32(len(fl))
			l.A().Send(p)
		}
		eng.Run()
		var got []telemetry.HopRecord
		var delivered []uint32
		for _, r := range tr.Records() {
			switch r.Event {
			case telemetry.EvFlitTx:
				got = append(got, r)
			case telemetry.EvPktDeliver:
				delivered = append(delivered, r.Seq)
			}
		}
		if len(got) != len(want) || l.B().FlitsRx.Value() != int64(len(want)) {
			t.Fatalf("%v: %d flits sent, %d received; the codec builds %d", m, len(got), l.B().FlitsRx.Value(), len(want))
		}
		for i, r := range got {
			if r.Seq != want[i].Seq {
				t.Fatalf("%v: flit %d has seq %d, codec says %d", m, i, r.Seq, want[i].Seq)
			}
		}
		if len(sb.got) != len(firsts) || !slices.Equal(delivered, firsts) {
			t.Fatalf("%v: packets delivered from seqs %v, codec packets start at %v", m, delivered, firsts)
		}
	}
}

// TestLinkReassemblyPanicsOnResizedPacket: Send transfers the packet,
// and the receiver still checks that the flits it counted are exactly
// what the packet's size needs. A sender that resizes a packet in
// flight breaks that, and the delivery must fail loudly rather than
// hand over a packet whose size disagrees with what the wire carried.
func TestLinkReassemblyPanicsOnResizedPacket(t *testing.T) {
	eng, l, _, _ := testLink(t, nil)
	p := memPacket(1, 64) // 2 flits in 68B mode
	eng.After(0, func() {
		l.A().Send(p)
		p.Size = MaxPacketPayload // contract violation: 9 flits' worth
	})
	if msg := panicText(eng.Run); !strings.Contains(msg, "reassembly") {
		t.Fatalf("resized packet delivered without complaint (panic %q)", msg)
	}
}

// TestLinkWireMintsNoDescriptors: flits cross the wire as values, so a
// link without retry mints no descriptor, not even mid-transfer with
// flits serializing and propagating in both directions.
func TestLinkWireMintsNoDescriptors(t *testing.T) {
	eng, l, sa, sb := testLink(t, nil)
	for i := 0; i < 8; i++ {
		l.A().Send(memPacket(uint16(i), MaxPacketPayload))
		l.B().Send(memPacket(uint16(i), 64))
	}
	eng.RunUntil(20 * sim.Nanosecond)
	for _, p := range []*Port{l.A(), l.B()} {
		if inFlight := p.FlitsTx.Value() - p.peer.FlitsRx.Value(); inFlight == 0 || !p.sending {
			t.Fatalf("%s: %d flits on the wire, sending=%v: nothing is mid-transfer", p.name, inFlight, p.sending)
		}
		if n := p.pool.Outstanding(); n != 0 {
			t.Fatalf("%s: %d descriptors outstanding mid-transfer, want 0", p.name, n)
		}
	}
	eng.Run()
	if len(sa.got) != 8 || len(sb.got) != 8 {
		t.Fatalf("delivered %d and %d packets, want 8 each way", len(sa.got), len(sb.got))
	}
}

// checkRetryStateDrained fails unless a quiescent retrying port holds
// no flit in its replay buffer, retry queue or reorder stash, and every
// descriptor its pool minted has been recycled.
func checkRetryStateDrained(t *testing.T, p *Port) {
	t.Helper()
	for i := 0; i < flit.NumChannels; i++ {
		vc := flit.Channel(i)
		if r, q, s := p.ReplayBufferLen(vc), len(p.retryq[vc]), p.RxStashLen(vc); r+q+s != 0 {
			t.Errorf("%s %v: replay %d, retry queue %d, stash %d after the run, want all 0", p.name, vc, r, q, s)
		}
	}
	if n := p.pool.Outstanding(); n != 0 {
		t.Errorf("%s: %d descriptors outstanding after the run, want 0", p.name, n)
	}
	if p.CRCErrors.Value() == 0 || p.peer.Retransmits.Value() == 0 {
		t.Errorf("%s: %d CRC errors, %d peer retransmits: the retry path went untested",
			p.name, p.CRCErrors.Value(), p.peer.Retransmits.Value())
	}
}

// TestLinkRetryReleasesDescriptors: a retrying link under bit errors,
// with traffic both ways, ends with all retry state empty and every
// descriptor back in its port's pool, whether both ports share an
// engine or the link is cut between two domains.
func TestLinkRetryReleasesDescriptors(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RetryEnabled = true
	cfg.Phys.BER = 0.05
	for _, cut := range []bool{false, true} {
		t.Run(fmt.Sprintf("cut=%v", cut), func(t *testing.T) {
			var l *Link
			var err error
			var engA, engB *sim.Engine
			var run func()
			if cut {
				co := sim.NewCoordinator(2, cfg.Phys.Propagation)
				engA, engB, run = co.Engine(0), co.Engine(1), co.Run
				l, err = NewCross("retry", cfg, engA, engB, co.Mailbox(0, 1), co.Mailbox(1, 0))
			} else {
				engA = sim.NewEngine()
				engB, run = engA, engA.Run
				l, err = New(engA, "retry", cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			sa, sb := &autoRelease{}, &autoRelease{}
			l.A().SetSink(sa)
			l.B().SetSink(sb)
			for _, side := range []struct {
				eng *sim.Engine
				p   *Port
			}{{engA, l.A()}, {engB, l.B()}} {
				side.eng.Go("send", func(pr *sim.Proc) {
					for i := 0; i < 200; i++ {
						side.p.Send(memPacket(uint16(i), uint32(i*37)%(MaxPacketPayload+1)))
						pr.Sleep(sim.Time(i%7) * sim.Nanosecond)
					}
				})
			}
			run()
			if len(sa.got) != 200 || len(sb.got) != 200 {
				t.Fatalf("delivered %d and %d packets, want 200 each way", len(sa.got), len(sb.got))
			}
			checkRetryStateDrained(t, l.A())
			checkRetryStateDrained(t, l.B())
		})
	}
}
