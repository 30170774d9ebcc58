// Command perfbench is the simulator's benchmark: three workloads run
// against the public fcc API, timed from outside in host seconds, with
// their simulated outputs checked and fingerprinted. See README.md for
// the workloads, the metric glossary and the layer map.
//
//	perfbench --workload kv-oltp --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end set; with --trace 1 the timed runs go
// under the CPU profiler and the metrics are the per-layer set. The
// line before it is the run's context (machine, Go version, seed,
// calibration probe, snapshot digest). A failed correctness check
// prints correct=false and exits 1.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"syscall"
	"time"
)

// A run first times setup-only builds, at least minSetups of them and
// more while they take under setupShare of the run (up to maxSetups).
// setup_s and the setup spans come from their median, so set-up is
// measured under the same heap state every time rather than after a
// round's garbage, and a fast set-up gets many samples.
const (
	minSetups  = 20
	maxSetups  = 400
	setupShare = 0.1
)

// minRounds is the least number of timed rounds a run makes.
const minRounds = 3

func main() {
	name := flag.String("workload", "", "kv-oltp, mem-stream or dc-sharded")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "host seconds to measure for")
	trace := flag.Int("trace", 0, "1 = per-layer run under the CPU profiler")
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := measure(w, config{seed: *seed, seconds: *seconds, trace: *trace == 1, size: 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	ctx, err := json.Marshal(map[string]any{"context": res.context})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(ctx))
	fmt.Println(string(out))
	if !res.result.Correct {
		for _, e := range res.errors {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
		}
		os.Exit(1)
	}
}

type config struct {
	seed    uint64
	seconds float64
	trace   bool
	size    float64
	// rounds, when positive, fixes the number of timed rounds and
	// setup samples instead of filling seconds.
	rounds int
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type report struct {
	result  result
	context map[string]any
	errors  []string
}

// spans times the setup phases of one build, in order.
type spans struct {
	last                time.Time
	build, store, spawn time.Duration
}

func newSpans() *spans {
	return &spans{last: time.Now()} //fcclint:allow detban host wall clock is what the benchmark measures
}

// lap returns the time since the previous lap (or since newSpans).
func (s *spans) lap() time.Duration {
	now := time.Now() //fcclint:allow detban host wall clock is what the benchmark measures
	d := now.Sub(s.last)
	s.last = now
	return d
}

func (s *spans) total() time.Duration { return s.build + s.store + s.spawn }

// round is one timed execution of a workload.
type round struct {
	run, verify time.Duration
	allocBytes  uint64
	out         *outcome
	work        counts
	digest      string
}

func (r *round) opsPerSec() float64 { return float64(r.out.committed) / r.run.Seconds() }

// runRound builds a fresh cluster, runs it to completion and checks
// its outputs. With led set, the timed run goes under the CPU profiler
// and its samples are charged to led.
func runRound(w workload, cfg config, led *ledger) (*round, error) {
	runtime.GC()
	r := &round{}
	j, err := w.build(cfg.seed, cfg.size, newSpans())
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", w.name, err)
	}
	j.warm()
	c := j.cluster()
	before := collectCounts(c, j.stats().Snapshot())

	var prof bytes.Buffer
	if led != nil {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("start cpu profile: %w", err)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now() //fcclint:allow detban host wall clock is what the benchmark measures
	c.Run()
	r.run = time.Since(t0) //fcclint:allow detban host wall clock is what the benchmark measures
	runtime.ReadMemStats(&m1)
	if led != nil {
		pprof.StopCPUProfile()
		if err := led.add(prof.Bytes()); err != nil {
			return nil, err
		}
	}
	r.allocBytes = m1.TotalAlloc - m0.TotalAlloc

	t1 := time.Now() //fcclint:allow detban host wall clock is what the benchmark measures
	if r.out, err = j.finish(); err != nil {
		return nil, err
	}
	if r.out.committed == 0 {
		return nil, fmt.Errorf("%s: no operation committed", w.name)
	}
	snap := j.stats().Snapshot()
	r.work = collectCounts(c, snap).sub(before)
	if r.digest, err = digest(snap, r.out); err != nil {
		return nil, err
	}
	r.verify = time.Since(t1) //fcclint:allow detban host wall clock is what the benchmark measures
	return r, nil
}

// measure runs the calibration probe, the setup samples and the timed
// rounds of one workload, and reduces them to the report.
func measure(w workload, cfg config) (*report, error) {
	start := time.Now() //fcclint:allow detban host wall clock is what the benchmark measures
	calib := calibrate()

	var setups []*spans
	minS, maxS := minSetups, maxSetups
	if cfg.rounds > 0 {
		minS, maxS = cfg.rounds, cfg.rounds
	}
	// Two untimed builds first, so the samples do not include the
	// first-use costs of code and heap.
	for i := -2; i < maxS; i++ {
		if i >= minS && time.Since(start).Seconds() >= setupShare*cfg.seconds { //fcclint:allow detban host wall clock is what the benchmark measures
			break
		}
		runtime.GC()
		sp := newSpans()
		if _, err := w.build(cfg.seed, cfg.size, sp); err != nil {
			return nil, fmt.Errorf("%s: build: %w", w.name, err)
		}
		if i >= 0 {
			setups = append(setups, sp)
		}
	}

	var led *ledger
	if cfg.trace {
		led = newLedger()
	}
	rep := &report{}
	var rounds []*round
	for {
		r, err := runRound(w, cfg, led)
		if err != nil {
			// A failed check is reported as an incorrect result, not a
			// crash, so the caller still sees what was attempted.
			rep.errors = append(rep.errors, err.Error())
			break
		}
		rounds = append(rounds, r)
		if len(rounds) > 1 {
			r.out.lat = nil // round 0 carries the latency metrics
		}
		if r.digest != rounds[0].digest {
			rep.errors = append(rep.errors, fmt.Sprintf(
				"%s: round %d snapshot digest %s differs from round 0's %s under the same seed",
				w.name, len(rounds)-1, r.digest, rounds[0].digest))
			break
		}
		if cfg.rounds > 0 {
			if len(rounds) == cfg.rounds {
				break
			}
		} else if len(rounds) >= minRounds &&
			time.Since(start).Seconds() >= cfg.seconds { //fcclint:allow detban host wall clock is what the benchmark measures
			break
		}
	}

	rep.result = result{Correct: len(rep.errors) == 0, Metrics: map[string]metric{}}
	for _, r := range rounds {
		rep.result.Attempted += r.out.attempted
		rep.result.Failed += r.out.failed()
	}
	if len(rounds) == 0 {
		rep.result.Attempted = 1 // the round that failed
		rep.result.Failed = 1
		rep.context = map[string]any{"workload": w.name, "seed": cfg.seed}
		return rep, nil
	}
	r0 := rounds[0]
	lat := slices.Clone(r0.out.lat)
	slices.Sort(lat)
	if len(lat) < 1000 && cfg.size >= 1 {
		rep.errors = append(rep.errors, fmt.Sprintf("%s: %d latency samples, want at least 1000", w.name, len(lat)))
		rep.result.Correct = false
	}

	// Setup: the sample with the median total, so its spans sum to it.
	slices.SortFunc(setups, func(a, b *spans) int { return int(a.total() - b.total()) })
	medSetup := setups[len(setups)/2]

	var opsPerSec, allocPerOp, runS, verifyS []float64
	for _, r := range rounds {
		opsPerSec = append(opsPerSec, r.opsPerSec())
		allocPerOp = append(allocPerOp, float64(r.allocBytes)/float64(r.out.committed))
		runS = append(runS, r.run.Seconds())
		verifyS = append(verifyS, r.verify.Seconds())
	}
	o := r0.out
	m := rep.result.Metrics
	set := func(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }
	ops := float64(o.committed)
	if !cfg.trace {
		set("ops_per_s", median(opsPerSec), "op/s")
		set("setup_s", medSetup.total().Seconds(), "s")
		set("alloc_bytes_per_op", median(allocPerOp), "B/op")
		set("max_rss_mb", maxRSSMB(), "MB")
		set("commit_ratio", ops/float64(o.attempted), "ratio")
		set("sim_p99_us", quantile(lat, 0.99).Microseconds(), "sim_us")
		set("sim_mops", ops/o.simDur.Seconds()/1e6, "sim_Mop/s")
	} else {
		wk := r0.work
		profOps := 0.0
		for _, r := range rounds {
			profOps += float64(r.out.committed)
		}
		for _, l := range layers {
			set(l+".ns_per_op", float64(led.ns[l])/profOps, "ns/op")
		}
		set("profile.ns_per_op", float64(led.total)/profOps, "ns/op")
		set("profile.samples", float64(led.samples), "count")
		set("trace.ops_per_s", median(opsPerSec), "op/s")
		set("setup.build_s", medSetup.build.Seconds(), "s")
		set("setup.store_s", medSetup.store.Seconds(), "s")
		set("setup.spawn_s", medSetup.spawn.Seconds(), "s")
		set("run_s", median(runS), "s")
		set("verify_s", median(verifyS), "s")
		set("error_rate", float64(o.failed())/float64(o.attempted), "ratio")
		set("sim.p50_us", quantile(lat, 0.50).Microseconds(), "sim_us")
		set("sim.lat_samples", float64(len(lat)), "count")
		set("sim.events_per_op", float64(wk.events)/ops, "event/op")
		set("sim.ns_per_event", median(runS)*1e9/float64(wk.events), "ns/event")
		set("sim.coord_windows_per_op", float64(wk.windows)/ops, "window/op")
		set("sim.coord_msgs_per_op", float64(wk.msgs)/ops, "msg/op")
		set("link.flits_per_op", float64(wk.flits)/ops, "flit/op")
		set("link.pkts_per_op", float64(wk.pkts)/ops, "pkt/op")
		set("link.stall_picks_per_kop", 1e3*float64(wk.stallPicks)/ops, "count/kop")
		set("fabric.hol_stalls_per_kop", 1e3*float64(wk.holStalls)/ops, "count/kop")
		set("fabric.no_route", float64(wk.noRoute), "count")
		set("host.l1_miss_ratio", ratio(wk.l1Misses, wk.l1Hits+wk.l1Misses), "ratio")
		set("host.l2_miss_ratio", ratio(wk.l2Misses, wk.l2Hits+wk.l2Misses), "ratio")
		set("host.writebacks_per_kop", 1e3*float64(wk.writebacks)/ops, "count/kop")
		set("host.mshr_merges_per_kop", 1e3*float64(wk.mshrMerges)/ops, "count/kop")
		set("mem.dram_reads_per_op", float64(wk.dramReads)/ops, "count/op")
		set("mem.dram_writes_per_op", float64(wk.dramWrites)/ops, "count/op")
		set("coherence.snoops_per_kop", 1e3*float64(wk.snoops)/ops, "count/kop")
		set("arbiter.queued_ratio", ratio(wk.arbQueued, wk.arbReserves), "ratio")
		set("fabstore.quota_stalls_per_kop", 1e3*float64(wk.quotaStalls)/ops, "count/kop")
		set("fabstore.wal_stalls_per_kop", 1e3*float64(wk.walStalls)/ops, "count/kop")
		set("txn.retries_per_kop", 1e3*float64(wk.retries)/ops, "count/kop")
		set("txn.timeouts_per_kop", 1e3*float64(wk.timeouts)/ops, "count/kop")
		set("txn.useful_ratio", ratio(wk.ackRecv, wk.reqsSent), "ratio")
		set("calib.engine_ns_per_event", calib.engineNsPerEvent, "ns/event")
		set("calib.crc16_ns_per_kb", calib.crcNsPerKB, "ns/KB")
	}

	rep.context = map[string]any{
		"workload":        w.name,
		"seed":            cfg.seed,
		"trace":           cfg.trace,
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"nproc":           runtime.NumCPU(),
		"go":              runtime.Version(),
		"cpu":             cpuModel(),
		"shards":          w.shards,
		"rounds":          len(rounds),
		"setups":          len(setups),
		"digest":          r0.digest,
		"lat_samples":     len(lat),
		"round_ops_per_s": opsPerSec,
		"setup_s_samples": setupTotals(setups),
		"calibration": map[string]float64{
			"engine_ns_per_event": calib.engineNsPerEvent,
			"crc16_ns_per_kb":     calib.crcNsPerKB,
		},
	}
	return rep, nil
}

func setupTotals(ss []*spans) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.total().Seconds()
	}
	return out
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// maxRSSMB is this process's peak resident set, in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuModel is the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
