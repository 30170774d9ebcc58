package coherence

import (
	"testing"

	"fcc/internal/fabric"
	"fcc/internal/host"
	"fcc/internal/link"
	"fcc/internal/mem"
	"fcc/internal/sim"
)

// TestDirectoryReadMissAllocCeiling pins the end-to-end read-miss
// allocation diet: client lineOp, directory dirOp, FAM famOp, DRAM
// dramOp, and the link-layer pools must all recycle, leaving only the
// objects that escape by design (the caller's future and data copy,
// the request and grant packets, which cross the switch without a
// copy, and the home DRAM read buffer that the grant hands off). The
// ceiling of 10 per miss (9.44 measured) catches a regression back to
// a per-hop packet copy (19.44) or to per-request closures (~75).
func TestDirectoryReadMissAllocCeiling(t *testing.T) {
	eng := sim.NewEngine()
	bd := fabric.NewBuilder(eng)
	sw := bd.AddSwitch("fs0", fabric.DefaultSwitchConfig())
	ha, _ := bd.AttachEndpoint(sw, "h", fabric.RoleHost, link.DefaultConfig())
	h := host.New(eng, "h", host.DefaultConfig(), ha)
	fa, _ := bd.AttachEndpoint(sw, "f", fabric.RoleFAM, link.DefaultConfig())
	fam := mem.NewFAM(eng, fa, mem.DefaultFAMConfig(1<<30))
	dir := NewDirectory(eng, fam)
	if err := bd.Discover(); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultClientConfig()
	cfg.CapacityLines = 8 // force misses and steady eviction traffic
	cl := NewClient(eng, h, dir.ID(), cfg)

	addr := uint64(0)
	next := func() uint64 {
		addr += 64
		return addr % (10000 * 64)
	}

	// Warm every pool on the path, including the eviction/writeback ops
	// the capacity-8 client generates once it fills.
	for round := 0; round < 8; round++ {
		for i := 0; i < 64; i++ {
			cl.Read(next())
		}
		eng.Run()
	}

	n := testing.AllocsPerRun(20, func() {
		for i := 0; i < 16; i++ {
			cl.Read(next())
		}
		eng.Run()
	})
	perOp := n / 16
	t.Logf("read miss: %.2f allocs per miss", perOp)
	if perOp > 10 {
		t.Fatalf("read miss allocates %.2f per miss in steady state, want <= 10", perOp)
	}
}
