package link

import (
	"testing"

	"fcc/internal/fault"
	"fcc/internal/flit"
	"fcc/internal/sim"
)

// injectBoth applies f to both sides of l, as a scheduled fault does
// on a link whose sides share one engine.
func injectBoth(l *Link, f fault.Fault) error {
	if err := l.InjectFault(0, f); err != nil {
		return err
	}
	return l.InjectFault(1, f)
}

// healBoth clears the fault of kind k on both sides of l.
func healBoth(l *Link, k fault.Kind) error {
	if err := l.HealFault(0, k); err != nil {
		return err
	}
	return l.HealFault(1, k)
}

func TestLinkFlapPausesThenResumes(t *testing.T) {
	eng, l, _, sb := testLink(t, nil)
	heal := 10 * sim.Microsecond
	eng.After(0, func() {
		if err := injectBoth(l, fault.Fault{Kind: fault.LinkDown}); err != nil {
			t.Errorf("inject: %v", err)
		}
		l.A().Send(memPacket(1, 64))
	})
	eng.After(heal, func() {
		if err := healBoth(l, fault.LinkDown); err != nil {
			t.Errorf("heal: %v", err)
		}
	})
	eng.Run()
	if len(sb.got) != 1 {
		t.Fatalf("delivered %d packets across a flap, want 1 (lossless)", len(sb.got))
	}
	if sb.times[0] < heal {
		t.Fatalf("packet delivered at %v, before the link healed at %v", sb.times[0], heal)
	}
}

func TestLinkDownReportsFailedAt(t *testing.T) {
	eng, l, _, _ := testLink(t, nil)
	at := 3 * sim.Microsecond
	eng.After(at, func() { injectBoth(l, fault.Fault{Kind: fault.LinkDown}) })
	eng.Run()
	if !l.Down() {
		t.Fatal("link not down after LinkDown")
	}
	if l.FailedAt() != at {
		t.Fatalf("FailedAt = %v, want %v", l.FailedAt(), at)
	}
}

func TestLaneDegradeSlowsSerialization(t *testing.T) {
	deliver := func(factor int) sim.Time {
		eng, l, _, sb := testLink(t, nil)
		eng.After(0, func() {
			if factor > 1 {
				if err := injectBoth(l, fault.Fault{Kind: fault.LaneDegrade, Factor: factor}); err != nil {
					t.Errorf("inject: %v", err)
				}
			}
			l.A().Send(memPacket(1, 64))
		})
		eng.Run()
		if len(sb.got) != 1 {
			t.Fatalf("delivered %d packets, want 1", len(sb.got))
		}
		return sb.times[0]
	}
	full := deliver(1)
	quarter := deliver(4)
	// 64B+header = 2 flits = 2 serializations + 1 propagation; only the
	// serializations scale with the lane factor.
	cfg := DefaultConfig()
	ser := cfg.Phys.SerTime(cfg.Mode.WireBytes())
	if want := full + 3*2*ser; quarter != want {
		t.Fatalf("x4-degraded delivery at %v, want %v (full-width %v)", quarter, want, full)
	}
	// Healing restores full-width timing.
	eng, l, _, sb := testLink(t, nil)
	eng.After(0, func() {
		injectBoth(l, fault.Fault{Kind: fault.LaneDegrade, Factor: 4})
		healBoth(l, fault.LaneDegrade)
		l.A().Send(memPacket(1, 64))
	})
	eng.Run()
	if sb.times[0] != full {
		t.Fatalf("post-heal delivery at %v, want %v", sb.times[0], full)
	}
}

func TestCreditLeakStallsUntilHealed(t *testing.T) {
	eng, l, _, sb := testLink(t, nil)
	vc := int(flit.ChMem)
	leak := DefaultConfig().RxBufFlits[flit.ChMem] // drain the whole VC
	heal := 20 * sim.Microsecond
	eng.After(0, func() {
		if err := injectBoth(l, fault.Fault{Kind: fault.CreditLeak, VC: vc, Credits: leak}); err != nil {
			t.Errorf("inject: %v", err)
		}
		l.A().Send(memPacket(1, 64))
	})
	eng.After(heal, func() {
		if err := healBoth(l, fault.CreditLeak); err != nil {
			t.Errorf("heal: %v", err)
		}
	})
	eng.Run()
	if len(sb.got) != 1 {
		t.Fatalf("delivered %d packets across a credit leak, want 1", len(sb.got))
	}
	if sb.times[0] < heal {
		t.Fatalf("packet delivered at %v with zero credits (heal at %v)", sb.times[0], heal)
	}
	// Healing restored exactly the leaked credits: after the queue
	// drained, the transmit-side balance is back to the full buffer.
	if got := l.A().Credits(flit.ChMem); got != leak {
		t.Fatalf("post-heal credits = %d, want %d", got, leak)
	}
}

func TestLinkFaultValidation(t *testing.T) {
	_, l, _, _ := testLink(t, nil)
	if err := injectBoth(l, fault.Fault{Kind: fault.LaneDegrade, Factor: 1}); err == nil {
		t.Fatal("Factor 1 lane degrade accepted")
	}
	if err := injectBoth(l, fault.Fault{Kind: fault.CreditLeak, VC: 99, Credits: 1}); err == nil {
		t.Fatal("out-of-range VC accepted")
	}
	if err := injectBoth(l, fault.Fault{Kind: fault.SwitchCrash}); err == nil {
		t.Fatal("unsupported kind accepted")
	}
	if l.Supports(fault.SwitchCrash) {
		t.Fatal("link claims to support switch-crash")
	}
}
