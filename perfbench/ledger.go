package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU ledger: a runtime/pprof CPU profile of the timed run phase,
// with every sample charged to one layer bucket. The buckets partition
// the samples, so they sum to the profiled total exactly.
//
// A sample is charged by walking its stack from the leaf: the first
// frame that is a scheduler function charges runtime.sched, the first
// that is an allocator or collector function charges runtime.gc, and
// the first frame inside fcc/internal/<layer> charges that layer.
// Helper frames on the way (memmove, map access, hashing) are thereby
// charged to the layer that called them. Samples reaching none of
// these charge other (the benchmark itself, the profiler, the rest).

// layers lists the ledger buckets in report order.
var layers = []string{
	"sim", "flit", "link", "fabric", "txn", "host", "mem",
	"coherence", "arbiter", "fabstore", "runtime.sched", "runtime.gc", "other",
}

// fccLayers are the fcc/internal modules with a bucket of their own.
var fccLayers = map[string]bool{
	"sim": true, "flit": true, "link": true, "fabric": true, "txn": true, "host": true,
	"mem": true, "coherence": true, "arbiter": true, "fabstore": true,
}

// schedFuncs are runtime functions of goroutine scheduling and parking:
// Proc handoff and coordinator barrier costs land here.
var schedFuncs = map[string]bool{
	"futex": true, "futexsleep": true, "futexwakeup": true, "findRunnable": true,
	"schedule": true, "park_m": true, "ready": true, "goready": true, "gopark": true,
	"casgstatus": true, "mcall": true, "gogo": true, "execute": true, "wakep": true,
	"startm": true, "stopm": true, "mPark": true, "notesleep": true, "notewakeup": true,
	"runqget": true, "runqput": true, "runqgrab": true, "runqsteal": true, "stealWork": true,
	"resetspinning": true, "handoffp": true, "osyield": true, "usleep": true,
	"procyield": true, "Gosched": true, "goschedImpl": true, "gosched_m": true,
	"chansend": true, "chansend1": true, "chanrecv": true, "chanrecv1": true,
	"chanrecv2": true, "selectgo": true, "goexit0": true, "goexit1": true, "newproc": true,
	"newproc1": true, "gfget": true, "gfput": true, "lock2": true, "unlock2": true,
	"semasleep": true, "semawakeup": true, "sysmon": true, "netpoll": true,
	"checkTimers": true, "acquirep": true, "releasep": true,
}

// gcPrefixes are runtime function prefixes of allocation and garbage
// collection.
var gcPrefixes = []string{
	"gc", "mallocgc", "newobject", "makeslice", "growslice", "makemap", "newarray",
	"(*mcache)", "(*mcentral)", "(*mheap)", "(*gcWork)", "(*mspan)", "(*sweepLocked)",
	"(*gcControllerState)", "(*gcCPULimiterState)", "sweepone", "bgsweep", "bgscavenge",
	"scanobject", "scanblock", "scanstack", "scanframeworker", "markroot", "greyobject",
	"wbBuf", "heapBits", "heapSetType", "findObject", "nextFreeFast", "memclrNoHeapPointersChunked",
	"GC",
}

// bucketOf charges a stack (leaf first) to one layer.
func bucketOf(stack []string) string {
	for _, fn := range stack {
		if rt, ok := strings.CutPrefix(fn, "runtime."); ok {
			if schedFuncs[rt] {
				return "runtime.sched"
			}
			for _, p := range gcPrefixes {
				if strings.HasPrefix(rt, p) {
					return "runtime.gc"
				}
			}
			continue
		}
		if rest, ok := strings.CutPrefix(fn, "fcc/internal/"); ok {
			mod := rest
			if i := strings.IndexAny(rest, "/."); i >= 0 {
				mod = rest[:i]
			}
			if fccLayers[mod] {
				return mod
			}
		}
	}
	return "other"
}

// ledger accumulates CPU nanoseconds per bucket across profiles.
type ledger struct {
	ns      map[string]int64
	total   int64
	samples int64
}

func newLedger() *ledger { return &ledger{ns: map[string]int64{}} }

// add charges every sample of one gzipped pprof CPU profile.
func (l *ledger) add(profile []byte) error {
	p, err := parseProfile(profile)
	if err != nil {
		return err
	}
	for _, s := range p.samples {
		stack := make([]string, 0, 16)
		for _, loc := range s.locs {
			stack = append(stack, p.locFuncs[loc]...)
		}
		b := bucketOf(stack)
		l.ns[b] += s.cpuNs
		l.total += s.cpuNs
		l.samples += s.count
	}
	return nil
}

// profile is the part of a pprof profile the ledger reads.
type profile struct {
	samples  []profSample
	locFuncs map[uint64][]string // location id -> function names, innermost first
}

type profSample struct {
	locs  []uint64 // leaf first
	count int64
	cpuNs int64
}

// parseProfile decodes the gzipped protocol buffer runtime/pprof
// writes (github.com/google/pprof/proto/profile.proto), keeping only
// samples, locations, functions and the string table.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{} // function id -> string index
		locLines  = map[uint64][]uint64{}
		samples   []profSample
		valueType []int64 // string index of each sample value's type
	)
	err = walkMessage(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			return walkMessage(b, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					valueType = append(valueType, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s profSample
			var vals []int64
			err := walkMessage(b, func(f int, v uint64, pb []byte) error {
				switch f {
				case 1:
					if pb != nil {
						return walkPacked(pb, func(x uint64) { s.locs = append(s.locs, x) })
					}
					s.locs = append(s.locs, v)
				case 2:
					if pb != nil {
						return walkPacked(pb, func(x uint64) { vals = append(vals, int64(x)) })
					}
					vals = append(vals, int64(v))
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) != 2 {
				return fmt.Errorf("cpu profile: sample has %d values, want 2 (samples, cpu ns)", len(vals))
			}
			s.count, s.cpuNs = vals[0], vals[1]
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkMessage(b, func(f int, v uint64, lb []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walkMessage(lb, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locLines[id] = fns
		case 5: // function
			var id uint64
			var name int64
			err := walkMessage(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(valueType) != 2 || int(valueType[1]) >= len(strs) || strs[valueType[1]] != "cpu" {
		return nil, errors.New("cpu profile: not a CPU profile (want sample types samples/count, cpu/nanoseconds)")
	}
	p := &profile{samples: samples, locFuncs: map[uint64][]string{}}
	for _, s := range samples {
		for _, loc := range s.locs {
			if _, done := p.locFuncs[loc]; done {
				continue
			}
			var names []string
			for _, fn := range locLines[loc] {
				if i := funcName[fn]; int(i) < len(strs) {
					names = append(names, strs[i])
				}
			}
			p.locFuncs[loc] = names
		}
	}
	return p, nil
}

// walkMessage calls fn for each field of a protobuf message: varint
// fields pass their value, length-delimited fields their bytes.
func walkMessage(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("cpu profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("cpu profile: bad varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("cpu profile: bad length")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, data); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("cpu profile: short fixed64")
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errors.New("cpu profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("cpu profile: wire type %d", wire)
		}
	}
	return nil
}

func walkPacked(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("cpu profile: bad packed varint")
		}
		fn(v)
		b = b[n:]
	}
	return nil
}
