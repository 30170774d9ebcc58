package link

import (
	"testing"

	"fcc/internal/flit"
	"fcc/internal/sim"
)

func allocRig(t *testing.T, name string) (*sim.Engine, *Link) {
	t.Helper()
	eng := sim.NewEngine()
	l, err := New(eng, name, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	l.A().SetSink(SinkFunc(func(pkt *flit.Packet, release func()) { release() }))
	l.B().SetSink(SinkFunc(func(pkt *flit.Packet, release func()) { release() }))
	return eng, l
}

// TestLinkSendPathZeroAlloc pins the transmit-side allocation diet: with
// warm pools, Send (recycled txPacket, closure-free kick) performs zero
// heap allocations. The engine stays idle during the measurement so
// only the enqueue path is on the scale; the pools are pre-sized to
// cover every packet the measurement enqueues.
func TestLinkSendPathZeroAlloc(t *testing.T) {
	eng, l := allocRig(t, "alloc")
	pkt := &flit.Packet{Chan: flit.ChMem, Op: flit.OpMemWr, Src: 1, Dst: 2, Size: 64}

	// Warm: 256 packets through the link grow the tx queue, the flit and
	// txPacket free lists, and the engine's event pool past anything the
	// measurement below needs.
	for i := 0; i < 256; i++ {
		l.A().Send(pkt)
	}
	eng.Run()

	// 5 rounds x 16 packets stay well inside the warmed pools.
	if n := testing.AllocsPerRun(4, func() {
		for i := 0; i < 16; i++ {
			l.A().Send(pkt)
		}
	}); n != 0 {
		t.Fatalf("Send allocates %.2f per 16-packet round in steady state, want 0", n)
	}
}

// TestLinkDeliveryAllocCeiling bounds a packet's whole trip across the
// link: the sink receives the very packet that was sent, the flit
// descriptors, txPacket records, wire messages and credit-release
// records all recycle, so the only allocations left are the engine
// growing its timing-wheel buckets as simulated time advances (0.75
// per packet measured). The ceiling of 1 catches a regression back to
// a per-delivery packet copy, or to per-flit or per-event allocation.
func TestLinkDeliveryAllocCeiling(t *testing.T) {
	eng, l := allocRig(t, "allocd")
	pkt := &flit.Packet{Chan: flit.ChMem, Op: flit.OpMemWr, Src: 1, Dst: 2, Size: 64}
	for round := 0; round < 4; round++ {
		for i := 0; i < 64; i++ {
			l.A().Send(pkt)
		}
		eng.Run()
	}
	n := testing.AllocsPerRun(20, func() {
		for i := 0; i < 16; i++ {
			l.A().Send(pkt)
		}
		eng.Run()
	})
	t.Logf("delivery: %.2f allocs per packet", n/16)
	if perPkt := n / 16; perPkt > 1 {
		t.Fatalf("delivery allocates %.2f per packet end to end, want <= 1", perPkt)
	}
}
