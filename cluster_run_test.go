package fcc

import (
	"fmt"
	"strings"
	"testing"

	"fcc/internal/fabric"
	"fcc/internal/sim"
)

// ringCluster builds a four-switch ring with one host per switch and a
// FAM, partitioned into the given number of failure domains.
func ringCluster(t *testing.T, shards int) *Cluster {
	t.Helper()
	c, err := New(Config{
		Hosts: 4, FAMs: 1, FAMCapacity: 1 << 24, Shards: shards,
		Topology: &fabric.TopoSpec{Kind: fabric.TopoRing, Groups: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// spawnReads starts a Proc on every host, on the host's own engine,
// that loads the given number of distinct FAM lines. It returns the
// per-host count of loads completed: each domain writes only its own
// hosts' entries, so parallel domains never share a counter.
func spawnReads(c *Cluster, reads int) []int {
	done := make([]int, len(c.Hosts))
	for i, h := range c.Hosts {
		h.Engine().Go(fmt.Sprintf("%s/reads", h.Name()), func(p *sim.Proc) {
			for k := 0; k < reads; k++ {
				h.Load64P(p, c.FAMBase(0)+uint64(i*reads+k)*64)
				done[i]++
			}
		})
	}
	return done
}

// allDone reports whether every host completed n loads.
func allDone(done []int, n int) bool {
	for _, d := range done {
		if d != n {
			return false
		}
	}
	return true
}

// TestClusterStop pins Stop at every shard count: a Proc that stops its
// engine after its 10th tick makes Run return there, with the other
// hosts' traffic in flight, and the next Run resumes it to the end.
func TestClusterStop(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c := ringCluster(t, shards)
			done := spawnReads(c, 5)
			eng := c.Hosts[0].Engine()
			ticks := 0
			eng.Go("ticker", func(p *sim.Proc) {
				for ticks < 100 {
					p.Sleep(sim.Microsecond)
					ticks++
					if ticks == 10 {
						eng.Stop()
					}
				}
			})
			c.Run()
			if ticks != 10 {
				t.Fatalf("first Run returned after %d ticks, want 10", ticks)
			}
			c.Run()
			if ticks != 100 || !allDone(done, 5) {
				t.Fatalf("second Run ended at %d ticks and %v reads per host, want 100 and 5 each", ticks, done)
			}
		})
	}
}

// TestClusterClockAfterRun pins the clock after Run to the serial
// reading — the time of the last event fired anywhere, which one engine
// driven directly reports — on every domain at every shard count, and
// RunFor to advancing every domain by exactly its argument.
func TestClusterClockAfterRun(t *testing.T) {
	ref := ringCluster(t, 1)
	spawnReads(ref, 5)
	ref.Eng.Run()
	want := ref.Eng.Now()
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c := ringCluster(t, shards)
			done := spawnReads(c, 5)
			c.Run()
			if !allDone(done, 5) {
				t.Fatalf("%v reads completed per host, want 5 each", done)
			}
			check := func(after string, want sim.Time) {
				t.Helper()
				if got := c.Eng.Now(); got != want {
					t.Fatalf("after %s Eng reads %v, want %v", after, got, want)
				}
				for i := 0; i < c.Coord.Shards(); i++ {
					if got := c.Coord.Engine(i).Now(); got != want {
						t.Fatalf("after %s domain %d reads %v, want %v", after, i, got, want)
					}
				}
			}
			check("Run", want)
			c.RunFor(5 * sim.Microsecond)
			check("RunFor(5us)", want+5*sim.Microsecond)
		})
	}
}

// TestClusterShardGuards pins the helpers that need one shared engine:
// on a sharded cluster they panic and name what to use instead; at
// Shards 0 and 1 they work, on a one-domain coordinator whose engine is
// Eng.
func TestClusterShardGuards(t *testing.T) {
	guards := []struct {
		name, replacement string
		call              func(c *Cluster) any
	}{
		{"Go", "Hosts[i].Engine().Go", func(c *Cluster) any { return c.Go("g", func(*sim.Proc) {}) }},
		{"NewETrans", "etrans.NewEngine", func(c *Cluster) any { return c.NewETrans(c.Hosts[0]) }},
		{"NewTaskRunner", "task.NewRunner", func(c *Cluster) any { return c.NewTaskRunner(c.Hosts[0], 1) }},
		{"NewInjector", "SchedulePlan", func(c *Cluster) any { return c.NewInjector(1) }},
	}
	for _, g := range guards {
		for _, shards := range []int{0, 1, 2} {
			t.Run(fmt.Sprintf("%s/shards=%d", g.name, shards), func(t *testing.T) {
				c := ringCluster(t, shards)
				if shards > 1 {
					defer func() {
						msg, _ := recover().(string)
						if !strings.Contains(msg, g.replacement) {
							t.Fatalf("panic %q does not name %s", msg, g.replacement)
						}
					}()
					g.call(c)
					t.Fatal("no panic on a sharded cluster")
				}
				if c.Coord.Shards() != 1 || c.Eng != c.Coord.Engine(0) {
					t.Fatalf("Coord has %d domains, Eng is domain 0's engine: %v", c.Coord.Shards(), c.Eng == c.Coord.Engine(0))
				}
				if g.call(c) == nil {
					t.Fatal("returned nil")
				}
				c.Run()
			})
		}
	}
}
