package flit

import (
	"bytes"
	"errors"
	"testing"
)

// The seed corpora live in testdata/fuzz/<FuzzName>/, which plain
// `go test` replays; `make fuzz-smoke` explores beyond them.

func fuzzMode(wide bool) Mode {
	if wide {
		return Mode256
	}
	return Mode68
}

// flitsOf cuts raw into flits of m's payload size (the last one may be
// short, as arbitrary input may be). sealed gives each flit its correct
// CRC so decoding gets past the checksum to the header and length
// checks; otherwise every CRC is zero.
func flitsOf(m Mode, raw []byte, sealed bool) []*Flit {
	var out []*Flit
	per := m.PayloadBytes()
	for lo := 0; lo < len(raw); lo += per {
		chunk := raw[lo:min(lo+per, len(raw))]
		f := &Flit{Seq: uint32(len(out)), Payload: chunk}
		if sealed {
			f.CRC = CRC16(chunk)
		}
		out = append(out, f)
	}
	if len(out) > 0 {
		out[len(out)-1].Last = true
	}
	return out
}

// concat joins the payload bytes of a flit sequence.
func concat(flits []*Flit) []byte {
	var b []byte
	for _, f := range flits {
		b = append(b, f.Payload...)
	}
	return b
}

// FuzzDecode: arbitrary flit bytes never panic the decoder, every
// rejection is one of the package's sentinel errors, and whatever it
// accepts is a sendable packet that re-encodes to the same header and
// payload bytes it was decoded from.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{}, false, true)
	f.Add(make([]byte, headerSize), true, true)
	f.Fuzz(func(t *testing.T, raw []byte, wide, sealed bool) {
		if len(raw) > 1<<16 {
			raw = raw[:1<<16]
		}
		m := fuzzMode(wide)
		p, err := Decode(m, flitsOf(m, raw, sealed))
		if err != nil {
			for _, s := range []error{ErrCRC, ErrTruncated, ErrBadPortID, ErrSizeBounds, ErrReqLen, ErrDataLen} {
				if errors.Is(err, s) {
					return
				}
			}
			t.Fatalf("decode failed with a non-sentinel error: %v", err)
		}
		if err := p.Check(); err != nil {
			t.Fatalf("decoded packet %v is not sendable: %v", p, err)
		}
		again, err := Encode(m, p, 0)
		if err != nil {
			t.Fatalf("re-encode of %v: %v", p, err)
		}
		n := headerSize + int(p.Size)
		if got := concat(again)[:n]; !bytes.Equal(got, raw[:n]) {
			t.Fatalf("%v re-encodes to different bytes:\n got %x\nwant %x", p, got, raw[:n])
		}
	})
}

// FuzzRoundTrip: any valid packet survives the byte codec unchanged,
// field by field, in either flit mode. A packet without Data reads back
// as Size zero bytes, which is what nil Data stands for.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint8(ChMem), uint8(OpMemWr), uint16(1), uint16(2), uint16(7), uint64(0x1000),
		uint16(64), uint32(0), uint8(0), []byte{0xAB}, true, false)
	f.Fuzz(func(t *testing.T, ch, op uint8, src, dst, tag uint16, addr uint64,
		size uint16, reqLen uint32, hops uint8, fill []byte, withData, wide bool) {
		p := &Packet{
			Chan:   Channel(ch % NumChannels),
			Op:     Op(op % uint8(numOps)),
			Src:    PortID(src) % (MaxPortID + 1),
			Dst:    PortID(dst) % (MaxPortID + 1),
			Tag:    tag,
			Addr:   addr,
			Size:   uint32(size) % 8193,
			ReqLen: reqLen & MaxReqLen,
			Hops:   hops,
		}
		want := make([]byte, p.Size)
		if len(fill) > 0 {
			for i := range want {
				want[i] = fill[i%len(fill)]
			}
		}
		if withData {
			p.Data = bytes.Clone(want)
		}
		m := fuzzMode(wide)
		flits, err := Encode(m, p, 0)
		if err != nil {
			t.Fatalf("encode of valid packet %v: %v", p, err)
		}
		q, err := Decode(m, flits)
		if err != nil {
			t.Fatalf("decode of %v: %v", p, err)
		}
		if q.Chan != p.Chan || q.Op != p.Op || q.Src != p.Src || q.Dst != p.Dst || q.Tag != p.Tag ||
			q.Addr != p.Addr || q.Size != p.Size || q.ReqLen != p.ReqLen || q.Hops != p.Hops {
			t.Fatalf("round trip changed the header: sent %+v, got %+v", p, q)
		}
		if !withData {
			clear(want)
		}
		if !bytes.Equal(q.Data, want) || (q.Data == nil) != (p.Size == 0) {
			t.Fatalf("round trip changed the payload of %v", p)
		}
	})
}
