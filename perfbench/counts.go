package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"strings"

	"fcc"
	"fcc/internal/sim"
)

// counts are exact per-layer work counts, read from the public stats
// tree and cluster accessors.
type counts struct {
	events, windows, msgs                uint64
	flits, pkts, stallPicks              int64 // link: switch-side ports
	holStalls, noRoute                   int64 // fabric: switches
	l1Hits, l1Misses, l2Hits, l2Misses   int64 // host caches
	writebacks, mshrMerges               int64 // host
	dramReads, dramWrites                int64 // mem: host and FAM DRAM
	snoops                               int64 // coherence directories
	arbReserves, arbQueued               int64 // arbiter
	quotaStalls, walStalls               int64 // fabstore clients
	retries, timeouts, reqsSent, ackRecv int64 // txn endpoints
}

func collectCounts(c *fcc.Cluster, snap *sim.StatsSnapshot) counts {
	var n counts
	if c.Coord != nil {
		for i := 0; i < c.Coord.Shards(); i++ {
			n.events += c.Coord.Engine(i).Events()
		}
		n.windows, n.msgs = c.Coord.Windows(), c.Coord.Messages()
	} else {
		n.events = c.Eng.Events()
	}
	for _, h := range c.Hosts {
		l1h, l1m, l2h, l2m := h.CacheStats()
		n.l1Hits += l1h
		n.l1Misses += l1m
		n.l2Hits += l2h
		n.l2Misses += l2m
	}
	for _, node := range snap.Children {
		switch {
		case strings.HasPrefix(node.Name, "fs"):
			n.holStalls += sum(node, "hol_stalls")
			n.noRoute += sum(node, "no_route")
			n.flits += sum(node, "flits_tx")
			n.pkts += sum(node, "pkts_tx")
			n.stallPicks += sum(node, "stall_picks")
		case strings.HasPrefix(node.Name, "host"), strings.HasPrefix(node.Name, "fam"):
			if strings.HasPrefix(node.Name, "host") {
				n.writebacks += sum(node, "writebacks")
				n.mshrMerges += sum(node, "mshr_merges")
			}
			n.dramReads += sum(node, "reads")
			n.dramWrites += sum(node, "writes")
			n.retries += sum(node, "retries")
			n.timeouts += sum(node, "timeouts")
			n.reqsSent += sum(node, "reqs_sent")
			n.ackRecv += sum(node, "resps_recv")
		case strings.HasPrefix(node.Name, "dir"):
			n.snoops += sum(node, "snoops")
		case node.Name == "arbiter":
			n.arbReserves += sum(node, "reserves")
			n.arbQueued += sum(node, "queued")
		case node.Name == "fabstore":
			n.quotaStalls += sum(node, "quota_stalls")
			n.walStalls += sum(node, "wal_stalls")
		}
	}
	return n
}

// sum totals counter name over node and its descendants.
func sum(node *sim.StatsSnapshot, name string) int64 {
	v := node.Counters[name]
	for _, ch := range node.Children {
		v += sum(ch, name)
	}
	return v
}

// sub is the work done between two collections.
func (a counts) sub(b counts) counts {
	return counts{
		events: a.events - b.events, windows: a.windows - b.windows, msgs: a.msgs - b.msgs,
		flits: a.flits - b.flits, pkts: a.pkts - b.pkts, stallPicks: a.stallPicks - b.stallPicks,
		holStalls: a.holStalls - b.holStalls, noRoute: a.noRoute - b.noRoute,
		l1Hits: a.l1Hits - b.l1Hits, l1Misses: a.l1Misses - b.l1Misses,
		l2Hits: a.l2Hits - b.l2Hits, l2Misses: a.l2Misses - b.l2Misses,
		writebacks: a.writebacks - b.writebacks, mshrMerges: a.mshrMerges - b.mshrMerges,
		dramReads: a.dramReads - b.dramReads, dramWrites: a.dramWrites - b.dramWrites,
		snoops: a.snoops - b.snoops, arbReserves: a.arbReserves - b.arbReserves, arbQueued: a.arbQueued - b.arbQueued,
		quotaStalls: a.quotaStalls - b.quotaStalls, walStalls: a.walStalls - b.walStalls,
		retries: a.retries - b.retries, timeouts: a.timeouts - b.timeouts,
		reqsSent: a.reqsSent - b.reqsSent, ackRecv: a.ackRecv - b.ackRecv,
	}
}

// digest fingerprints a round's simulated result: the marshalled stats
// snapshot plus every latency sample the benchmark recorded. Same-seed
// rounds must agree on it exactly.
func digest(snap *sim.StatsSnapshot, o *outcome) (string, error) {
	raw, err := snap.MarshalJSONIndent()
	if err != nil {
		return "", fmt.Errorf("marshal stats snapshot: %w", err)
	}
	h := sha256.New()
	h.Write(raw)
	var b [8]byte
	for _, v := range []int64{o.attempted, o.committed, o.typed, o.shed, int64(o.simDur)} {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for _, t := range o.lat {
		binary.LittleEndian.PutUint64(b[:], uint64(t))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// quantile is the exact nearest-rank q-quantile of sorted ts.
func quantile(ts []sim.Time, q float64) sim.Time {
	if len(ts) == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(len(ts)))) - 1
	return ts[max(0, min(k, len(ts)-1))]
}

// median of xs (xs is copied, not reordered).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
