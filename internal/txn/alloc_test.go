package txn

import (
	"testing"

	"fcc/internal/flit"
	"fcc/internal/link"
	"fcc/internal/sim"
)

// TestRequestPathAllocCeiling pins the transaction-layer allocation
// diet. A steady-state tag-matched round trip allocates only the
// objects that escape to the caller by design: the request packet, its
// completion future and the handler's response packet — the link hands
// both packets over as they are, without a copy. Everything else — tag
// bookkeeping, the timeout timer, the reply context, the flit
// descriptors, the dispatch events — must come from pools. The ceiling
// of 5 per round trip (4.38 measured) catches a regression back to a
// per-hop packet copy (7.38) or to per-request closures (~18).
func TestRequestPathAllocCeiling(t *testing.T) {
	eng := sim.NewEngine()
	l, err := link.New(eng, "alloc", link.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := NewEndpoint(eng, 1, l.A(), 0)
	d := NewEndpoint(eng, 2, l.B(), 0)
	l.A().SetSink(a)
	l.B().SetSink(d)
	d.Handler = func(req *flit.Packet, reply func(*flit.Packet)) {
		reply(req.Response(flit.OpMemRdData, 64))
	}

	// Warm every pool on the path: endpoint tag ring, timer and reply
	// contexts, link flit/txPacket/event pools.
	for round := 0; round < 4; round++ {
		for i := 0; i < 64; i++ {
			a.Request(&flit.Packet{Chan: flit.ChMem, Op: flit.OpMemRd, Dst: 2})
		}
		eng.Run()
	}

	n := testing.AllocsPerRun(20, func() {
		for i := 0; i < 16; i++ {
			a.Request(&flit.Packet{Chan: flit.ChMem, Op: flit.OpMemRd, Dst: 2})
		}
		eng.Run()
	})
	perOp := n / 16
	t.Logf("request path: %.2f allocs per round trip", perOp)
	if perOp > 5 {
		t.Fatalf("request path allocates %.2f per round trip in steady state, want <= 5", perOp)
	}
}
