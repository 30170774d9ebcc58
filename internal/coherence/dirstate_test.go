package coherence

import (
	"testing"

	"fcc/internal/fabric"
	"fcc/internal/fault"
	"fcc/internal/host"
	"fcc/internal/link"
	"fcc/internal/mem"
	"fcc/internal/sim"
)

// These tests pin the directory's state machine transition by
// transition (via StateOf), so the open-addressed table and sharer
// bitmask land against an explicit spec rather than only the
// workload-level tests in coherence_test.go.

// TestDirStateSharedToExclusiveUpgrade walks uncached -> exclusive ->
// shared(2) -> exclusive: a sole reader gets E, a second reader
// downgrades it to S, and a sharer's write upgrades the line back to
// exclusive after invalidating the other sharer.
func TestDirStateSharedToExclusiveUpgrade(t *testing.T) {
	eng, cs, dir := ccRig(t, 2, DefaultClientConfig())
	const addr = 0x400
	eng.Go("driver", func(p *sim.Proc) {
		if st := dir.StateOf(addr); st != "uncached" {
			t.Errorf("initial state %s, want uncached", st)
		}
		cs[0].Read64P(p, addr)
		if st := dir.StateOf(addr); st != "exclusive" {
			t.Errorf("after sole read: %s, want exclusive", st)
		}
		cs[1].Read64P(p, addr)
		if st := dir.StateOf(addr); st != "shared(2)" {
			t.Errorf("after second read: %s, want shared(2)", st)
		}
		cs[0].Write64P(p, addr, 99)
		if st := dir.StateOf(addr); st != "exclusive" {
			t.Errorf("after S->M upgrade: %s, want exclusive", st)
		}
		// The former sharer's copy must be gone: its next read misses
		// and observes the upgraded write.
		if got := cs[1].Read64P(p, addr); got != 99 {
			t.Errorf("former sharer read %d after upgrade, want 99", got)
		}
	})
	eng.Run()
	if cs[0].Upgrades.Value() == 0 {
		t.Error("S->M transition not counted as an upgrade round trip")
	}
}

// TestDirStateInvalidationWithMultipleSharers builds shared(3) and then
// writes from one sharer: the directory must snoop-invalidate both
// other sharers (sorted bitmask iteration), and every former sharer's
// re-read must miss and observe the new value.
func TestDirStateInvalidationWithMultipleSharers(t *testing.T) {
	eng, cs, dir := ccRig(t, 3, DefaultClientConfig())
	const addr = 0x500
	eng.Go("driver", func(p *sim.Proc) {
		for _, c := range cs {
			c.Read64P(p, addr)
		}
		if st := dir.StateOf(addr); st != "shared(3)" {
			t.Errorf("after three reads: %s, want shared(3)", st)
		}
		cs[2].Write64P(p, addr, 7)
		if st := dir.StateOf(addr); st != "exclusive" {
			t.Errorf("after write: %s, want exclusive", st)
		}
		for i, c := range cs {
			if got := c.Read64P(p, addr); got != 7 {
				t.Errorf("client %d read %d after invalidation, want 7", i, got)
			}
		}
	})
	eng.Run()
	// Both non-writing sharers must have seen an invalidation snoop.
	if cs[0].SnoopsIn.Value() == 0 || cs[1].SnoopsIn.Value() == 0 {
		t.Errorf("snoops in: client0=%d client1=%d, want both > 0",
			cs[0].SnoopsIn.Value(), cs[1].SnoopsIn.Value())
	}
}

// TestDirStateReadmissionAfterFault drives a dirty line out of the
// directory via capacity eviction (exclusive -> writeback -> uncached,
// freeing the table entry), power-cycles the home FAM, and then
// re-reads the line: re-admission must allocate a fresh entry, return
// the written-back data from home, and grant exclusive again.
func TestDirStateReadmissionAfterFault(t *testing.T) {
	eng := sim.NewEngine()
	b := fabric.NewBuilder(eng)
	sw := b.AddSwitch("fs0", fabric.DefaultSwitchConfig())
	att, err := b.AttachEndpoint(sw, "h0", fabric.RoleHost, link.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := host.New(eng, att.Name, host.DefaultConfig(), att)
	fa, err := b.AttachEndpoint(sw, "fam0", fabric.RoleFAM, link.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fam := mem.NewFAM(eng, fa, mem.DefaultFAMConfig(1<<28))
	dir := NewDirectory(eng, fam)
	if err := b.Discover(); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultClientConfig()
	cfg.CapacityLines = 1 // any second line evicts the first
	cl := NewClient(eng, h, dir.ID(), cfg)

	const addrA, addrB = 0x600, 0x680
	eng.Go("fill", func(p *sim.Proc) {
		cl.Write64P(p, addrA, 5)
		if st := dir.StateOf(addrA); st != "exclusive" {
			t.Errorf("after write: %s, want exclusive", st)
		}
		// Reading B evicts dirty A from the 1-line cache; the eviction
		// writeback retires A's directory entry.
		cl.Read64P(p, addrB)
	})
	eng.Run()
	if st := dir.StateOf(addrA); st != "uncached" {
		t.Fatalf("after eviction writeback: %s, want uncached", st)
	}
	if cl.Evictions.Value() == 0 {
		t.Fatal("no eviction with a 1-line cache")
	}

	// Power-cycle the home device between the eviction and the re-read:
	// the epoch bump must not disturb retired directory state.
	fam.InjectFault(0, fault.Fault{Kind: fault.DeviceFail})
	fam.HealFault(0, fault.DeviceFail)

	eng.Go("readmit", func(p *sim.Proc) {
		if got := cl.Read64P(p, addrA); got != 5 {
			t.Errorf("re-admitted read %d, want 5 from home", got)
		}
		if st := dir.StateOf(addrA); st != "exclusive" {
			t.Errorf("after re-admission: %s, want exclusive", st)
		}
	})
	eng.Run()
}
