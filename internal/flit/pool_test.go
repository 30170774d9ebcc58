package flit

import (
	"bytes"
	"testing"
)

// TestPoolRefcount: two holders, two releases; the third panics. The
// flit counts as outstanding until its last release.
func TestPoolRefcount(t *testing.T) {
	pl := new(Pool)
	f := pl.Get()
	f.Retain()
	pl.Release(f)
	if pl.free != nil || pl.Outstanding() != 1 {
		t.Fatalf("flit recycled while a holder remained (%d outstanding)", pl.Outstanding())
	}
	pl.Release(f)
	if pl.free != f || pl.Outstanding() != 0 {
		t.Fatalf("flit not recycled after last release (%d outstanding)", pl.Outstanding())
	}
	g := pl.Get()
	if g != f {
		t.Fatal("pool did not hand back the recycled flit")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("over-release did not panic")
		}
	}()
	pl.Release(g)
	pl.Release(g)
}

// TestPoolReuseIsClean: a recycled descriptor comes back blank — no
// stale sequence number or last flag, and no packet pointer. The free
// list must not pin the packet of the flit's previous life either.
func TestPoolReuseIsClean(t *testing.T) {
	pl := new(Pool)
	f := pl.Get()
	f.Seq, f.Last, f.Pkt = 41, true, &Packet{Chan: ChMem, Op: OpMemWr, Size: 64}
	pl.Release(f)
	if f.Pkt != nil {
		t.Fatal("parked flit still pins its packet")
	}
	g := pl.Get()
	if g != f {
		t.Fatal("expected the recycled flit back")
	}
	if g.Seq != 0 || g.Last || g.Pkt != nil || g.Payload != nil {
		t.Fatalf("recycled flit not blank: seq=%d last=%v pkt=%v payload=%d bytes",
			g.Seq, g.Last, g.Pkt, len(g.Payload))
	}
}

// TestPoolReleaseOfCodecFlitPanics: a flit built by Encode never came
// from a pool; releasing it is an ownership bug.
func TestPoolReleaseOfCodecFlitPanics(t *testing.T) {
	flits, err := Encode(Mode68, &Packet{Chan: ChMem, Op: OpMemRd, Src: 1, Dst: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	mustPanic(t, "over-released", func() { new(Pool).Release(flits[0]) })
}

// TestPoolZeroAllocSteadyState: once warm, minting descriptors for a
// packet and releasing them allocates nothing — the flits recycle, and
// the packet they point at is never copied.
func TestPoolZeroAllocSteadyState(t *testing.T) {
	pl := new(Pool)
	p := &Packet{Chan: ChIO, Op: OpIOWr, Src: 1, Dst: 2, Size: 512, Data: make([]byte, 512)}
	n := Mode68.FlitsFor(p.Size)
	buf := make([]*Flit, 0, n)
	cycle := func() {
		buf = buf[:0]
		for i := 0; i < n; i++ {
			f := pl.Get()
			f.Seq, f.Last, f.Pkt = uint32(i), i == n-1, p
			buf = append(buf, f)
		}
		for _, f := range buf {
			pl.Release(f)
		}
	}
	cycle() // warm the free list
	if a := testing.AllocsPerRun(200, cycle); a != 0 {
		t.Fatalf("descriptor mint/release allocates %.1f per packet, want 0", a)
	}
}

// mustPanic runs fn and fails the test unless it panics with a message
// containing want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want panic containing %q", want)
		}
		if s, ok := r.(string); !ok || !bytes.Contains([]byte(s), []byte(want)) {
			t.Fatalf("panic %v; want message containing %q", r, want)
		}
	}()
	fn()
}

// TestPoolDoubleReleasePanics: releasing a flit that is already sitting
// in the free list must fail immediately and say so, not wait until the
// next Get recycles it — after which the stale Release would
// double-insert it and silently cycle the free list.
func TestPoolDoubleReleasePanics(t *testing.T) {
	pl := new(Pool)
	f := pl.Get()
	pl.Release(f)
	mustPanic(t, "double release", func() { pl.Release(f) })
}

// TestPoolRetainAfterFreePanics: a stale holder retaining a recycled
// flit would, on its eventual Release, push a live flit into the free
// list while another owner held it — exactly the free-list corruption
// the refcount exists to prevent. It must panic at the retain.
func TestPoolRetainAfterFreePanics(t *testing.T) {
	pl := new(Pool)
	f := pl.Get()
	pl.Release(f)
	mustPanic(t, "use after free", func() { f.Retain() })
}

// TestPoolForeignReleasePanics: with per-side pools on cross-shard
// links, releasing a flit into a pool that did not mint it would
// corrupt both free lists.
func TestPoolForeignReleasePanics(t *testing.T) {
	a := new(Pool)
	b := new(Pool)
	f := a.Get()
	mustPanic(t, "foreign pool", func() { b.Release(f) })
}

// TestPoolRecycledFlitIsReusable: the poolFree sentinel must be fully
// reversible — a recycled flit handed out again behaves like new.
func TestPoolRecycledFlitIsReusable(t *testing.T) {
	pl := new(Pool)
	f := pl.Get()
	pl.Release(f)
	g := pl.Get()
	if g != f {
		t.Fatal("expected the recycled flit back")
	}
	g.Retain()
	pl.Release(g)
	pl.Release(g)
	if pl.free != g {
		t.Fatal("recycled flit did not recycle again")
	}
}
