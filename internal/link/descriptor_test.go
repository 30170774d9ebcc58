package link

import (
	"slices"
	"strings"
	"testing"

	"fcc/internal/flit"
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
