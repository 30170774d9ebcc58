package link_test

import (
	"bytes"
	"fmt"
	"testing"

	"fcc/internal/fabric"
	"fcc/internal/flit"
	"fcc/internal/link"
	"fcc/internal/sim"
)

// The link moves flits as values and hands the receiver the very
// packet that was sent; the byte codec is never on the path. These
// tests keep the two honest against each other: whatever a packet goes
// through — one link, a retrying link that drops flits, a two-switch
// path, a cross-shard link — what arrives must be exactly what
// flit.Decode(flit.Encode(sent)) reconstructs from the wire bytes.

// ops lists every opcode the codec knows.
var ops = func() []flit.Op {
	var out []flit.Op
	for op := flit.OpMemRd; op <= flit.OpFAAReply; op++ {
		out = append(out, op)
	}
	return out
}()

// pick returns one of the bounds half the time, else draw().
func pick[T any](rng *sim.RNG, bounds []T, draw func() T) T {
	if rng.Intn(2) == 0 {
		return bounds[rng.Intn(len(bounds))]
	}
	return draw()
}

// randPacket draws a packet the wire can carry: any op on any channel,
// a payload of 0…MaxPacketPayload bytes with or without Data, and Src,
// Dst and ReqLen often at their bounds. dst, when non-nil, pins Dst
// (a routed path needs a real destination).
func randPacket(rng *sim.RNG, dst *flit.PortID) *flit.Packet {
	ids := []flit.PortID{0, 1, flit.MaxPortID - 1, flit.MaxPortID}
	port := func() flit.PortID { return flit.PortID(rng.Intn(int(flit.MaxPortID) + 1)) }
	p := &flit.Packet{
		Chan:   flit.Channel(rng.Intn(flit.NumChannels)),
		Op:     ops[rng.Intn(len(ops))],
		Src:    pick(rng, ids, port),
		Dst:    pick(rng, ids, port),
		Tag:    uint16(rng.Uint64()),
		Addr:   rng.Uint64(),
		ReqLen: pick(rng, []uint32{0, 1, flit.MaxReqLen - 1, flit.MaxReqLen}, func() uint32 { return uint32(rng.Intn(flit.MaxReqLen + 1)) }),
		Hops:   uint8(rng.Uint64()),
		Size: pick(rng, []uint32{0, 1, 39, 40, 41, 63, 64, 65, 103, 104, 105, 223, 224, 225, link.MaxPacketPayload},
			func() uint32 { return uint32(rng.Intn(link.MaxPacketPayload + 1)) }),
	}
	if dst != nil {
		p.Dst = *dst
	}
	if rng.Intn(2) == 0 {
		p.Data = make([]byte, p.Size)
		for i := range p.Data {
			p.Data[i] = byte(rng.Uint64())
		}
	}
	return p
}

// onWire is what the byte codec says a receiver of p sees.
func onWire(t *testing.T, m flit.Mode, p *flit.Packet) *flit.Packet {
	t.Helper()
	flits, err := flit.Encode(m, p, 0)
	if err != nil {
		t.Fatalf("encode %v: %v", p, err)
	}
	q, err := flit.Decode(m, flits)
	if err != nil {
		t.Fatalf("decode %v: %v", p, err)
	}
	return q
}

// payload is the bytes a receiver reads from p: nil Data stands for
// Size zero bytes (see flit.Packet).
func payload(p *flit.Packet) []byte {
	if p.Data == nil {
		return make([]byte, p.Size)
	}
	return p.Data
}

// checkSame compares a delivered packet with its wire image field by
// field; hops is the number of switches the packet crossed, each of
// which counts itself in Hops.
func checkSame(got, want *flit.Packet, hops uint8) error {
	switch {
	case got.Chan != want.Chan, got.Op != want.Op, got.Src != want.Src, got.Dst != want.Dst,
		got.Tag != want.Tag, got.Addr != want.Addr, got.Size != want.Size, got.ReqLen != want.ReqLen:
		return fmt.Errorf("header %+v, wire says %+v", got, want)
	case got.Hops != want.Hops+hops:
		return fmt.Errorf("hops %d, wire says %d + %d switches", got.Hops, want.Hops, hops)
	case !bytes.Equal(payload(got), payload(want)):
		return fmt.Errorf("payload of %v differs from the wire bytes", got)
	}
	return nil
}

// wireRig is one path under test: packets enter at in and leave at the
// sink installed on out.
type wireRig struct {
	mode    flit.Mode
	in, out *link.Port
	inEng   *sim.Engine
	dst     *flit.PortID // pinned destination on routed paths
	hops    uint8
	run     func()
}

// checkPath sends n random packets through r and checks every delivery
// against the wire image computed before the send. The packets and
// their images are built up front and only read while the simulation
// runs, so on a sharded path the sender's and receiver's goroutines
// share nothing but the packets themselves.
func checkPath(t *testing.T, r wireRig, seed uint64, n int) {
	t.Helper()
	rng := sim.NewRNG(seed)
	sent := make([]*flit.Packet, n)
	want := make(map[*flit.Packet]*flit.Packet, n)
	for i := range sent {
		sent[i] = randPacket(rng, r.dst)
		want[sent[i]] = onWire(t, r.mode, sent[i])
	}
	var errs []error
	seen := make(map[*flit.Packet]bool, n)
	r.out.SetSink(link.SinkFunc(func(pkt *flit.Packet, release func()) {
		release()
		w, ok := want[pkt]
		switch {
		case !ok:
			errs = append(errs, fmt.Errorf("delivered %v is not a packet that was sent", pkt))
		case seen[pkt]:
			errs = append(errs, fmt.Errorf("%v delivered twice", pkt))
		default:
			seen[pkt] = true
			if err := checkSame(pkt, w, r.hops); err != nil {
				errs = append(errs, err)
			}
		}
	}))
	gap := sim.NewRNG(seed + 1)
	r.inEng.Go("sender", func(p *sim.Proc) {
		for _, pkt := range sent {
			r.in.Send(pkt)
			p.Sleep(sim.Time(gap.Intn(40)) * sim.Nanosecond)
		}
	})
	r.run()
	for i, err := range errs {
		if i == 5 {
			t.Errorf("... %d more", len(errs)-i)
			break
		}
		t.Error(err)
	}
	if len(seen) != n {
		t.Fatalf("delivered %d of %d packets", len(seen), n)
	}
}

func retrying(cfg link.Config) link.Config {
	cfg.RetryEnabled = true
	cfg.Phys.BER = 0.05 // one flit in twenty is dropped and replayed
	return cfg
}

// TestLinkDeliversWireImage: one link, both flit modes, with and
// without link-level retry under bit errors.
func TestLinkDeliversWireImage(t *testing.T) {
	for _, m := range []flit.Mode{flit.Mode68, flit.Mode256} {
		for _, retry := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/retry=%v", m, retry), func(t *testing.T) {
				cfg := link.DefaultConfig()
				cfg.Mode = m
				if retry {
					cfg = retrying(cfg)
				}
				eng := sim.NewEngine()
				l, err := link.New(eng, "wire", cfg)
				if err != nil {
					t.Fatal(err)
				}
				l.A().SetSink(link.SinkFunc(func(_ *flit.Packet, release func()) { release() }))
				checkPath(t, wireRig{mode: m, in: l.A(), out: l.B(), inEng: eng, run: eng.Run}, 11, 600)
				if retry && l.B().CRCErrors.Value() == 0 {
					t.Fatal("no flit was corrupted: the retry path went untested")
				}
			})
		}
	}
}

// TestSwitchPathDeliversWireImage: two switches between sender and
// receiver, serial and with the switch-to-switch link cut across two
// shards (plain and retrying). Each switch forwards the packet it
// received, so the receiver's copy must show both hops and nothing
// else changed.
func TestSwitchPathDeliversWireImage(t *testing.T) {
	for _, tc := range []struct {
		name    string
		sharded bool
		retry   bool
	}{{"serial", false, false}, {"cross", true, false}, {"cross-retry", true, true}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := link.DefaultConfig()
			isl := cfg
			if tc.retry {
				isl = retrying(isl)
			}
			var b *fabric.Builder
			var co *sim.Coordinator
			if tc.sharded {
				co = sim.NewCoordinator(2, isl.Phys.Propagation)
				b = fabric.NewShardedBuilder(fabric.Sharding{Coord: co, DomainOf: func(i int) int { return i }})
			} else {
				b = fabric.NewBuilder(sim.NewEngine())
			}
			s0 := b.AddSwitch("s0", fabric.DefaultSwitchConfig())
			s1 := b.AddSwitch("s1", fabric.DefaultSwitchConfig())
			if err := b.ConnectSwitches(s0, s1, isl); err != nil {
				t.Fatal(err)
			}
			src, err := b.AttachEndpoint(s0, "src", fabric.RoleHost, cfg)
			if err != nil {
				t.Fatal(err)
			}
			dst, err := b.AttachEndpoint(s1, "dst", fabric.RoleFAM, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.Discover(); err != nil {
				t.Fatal(err)
			}
			src.Port.SetSink(link.SinkFunc(func(_ *flit.Packet, release func()) { release() }))
			run := src.Eng.Run
			if co != nil {
				run = co.Run
			}
			checkPath(t, wireRig{mode: cfg.Mode, in: src.Port, out: dst.Port, inEng: src.Eng,
				dst: &dst.ID, hops: 2, run: run}, 23, 400)
			if co != nil && co.Messages() == 0 {
				t.Fatal("no message crossed the shard boundary")
			}
		})
	}
}
