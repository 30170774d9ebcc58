package sim

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Stats is a registry of named metrics owned by a model component.
// Registries nest (Child), so a whole cluster's metrics form a tree that
// can be dumped for an experiment report or exported as a machine-
// readable Snapshot. Metrics may be created by the registry (Counter,
// Histogram) or owned by a component and attached afterwards (Register,
// RegisterHistogram) — the latter is how every fabric component's
// existing counters join the fabric-wide tree without changing their
// hot-path call sites.
type Stats struct {
	name     string
	counters map[string]*Counter
	hists    map[string]*Histogram
	gauges   map[string]func() int64
	sums     map[string]func() int64
	merges   map[string]func() *Histogram
	children []*Stats
	order    []string
}

// NewStats returns an empty registry with the given name.
func NewStats(name string) *Stats {
	return &Stats{
		name:     name,
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
		gauges:   make(map[string]func() int64),
		sums:     make(map[string]func() int64),
		merges:   make(map[string]func() *Histogram),
	}
}

// Name reports the registry's name.
func (s *Stats) Name() string { return s.name }

// Child creates (and records) a nested registry.
func (s *Stats) Child(name string) *Stats {
	c := NewStats(name)
	s.children = append(s.children, c)
	return c
}

// Counter returns the named counter, creating it on first use.
func (s *Stats) Counter(name string) *Counter {
	if c, ok := s.counters[name]; ok {
		return c
	}
	c := &Counter{}
	s.counters[name] = c
	s.order = append(s.order, "c:"+name)
	return c
}

// Register attaches a component-owned counter under the given name.
func (s *Stats) Register(name string, c *Counter) {
	if _, ok := s.counters[name]; ok || s.sums[name] != nil {
		panic("sim: duplicate counter registration: " + s.name + "/" + name)
	}
	s.counters[name] = c
	s.order = append(s.order, "c:"+name)
}

// Histogram returns the named histogram, creating it on first use.
func (s *Stats) Histogram(name string) *Histogram {
	if h, ok := s.hists[name]; ok {
		return h
	}
	h := NewHistogram()
	s.hists[name] = h
	s.order = append(s.order, "h:"+name)
	return h
}

// RegisterHistogram attaches a component-owned histogram.
func (s *Stats) RegisterHistogram(name string, h *Histogram) {
	if _, ok := s.hists[name]; ok || s.merges[name] != nil {
		panic("sim: duplicate histogram registration: " + s.name + "/" + name)
	}
	s.hists[name] = h
	s.order = append(s.order, "h:"+name)
}

// Gauge registers a sampled instantaneous value (queue depth, credit
// balance, buffer occupancy). fn is evaluated at Dump/Snapshot time.
func (s *Stats) Gauge(name string, fn func() int64) {
	if _, ok := s.gauges[name]; ok {
		panic("sim: duplicate gauge registration: " + s.name + "/" + name)
	}
	s.gauges[name] = fn
	s.order = append(s.order, "g:"+name)
}

// CounterFunc registers a counter kept in parts — one per failure
// domain, say — whose total fn reports at Dump/Snapshot time. It
// exports as a counter, not a gauge.
func (s *Stats) CounterFunc(name string, fn func() int64) {
	if _, ok := s.counters[name]; ok || s.sums[name] != nil {
		panic("sim: duplicate counter registration: " + s.name + "/" + name)
	}
	s.sums[name] = fn
	s.order = append(s.order, "C:"+name)
}

// HistogramFunc registers a histogram kept in parts, which fn merges
// into one at Dump/Snapshot time.
func (s *Stats) HistogramFunc(name string, fn func() *Histogram) {
	if _, ok := s.hists[name]; ok || s.merges[name] != nil {
		panic("sim: duplicate histogram registration: " + s.name + "/" + name)
	}
	s.merges[name] = fn
	s.order = append(s.order, "H:"+name)
}

// value reports a counter's value, whether registered as one or kept
// in parts.
func (s *Stats) value(key string) int64 {
	if key[0] == 'C' {
		return s.sums[key[2:]]()
	}
	return s.counters[key[2:]].Value()
}

// hist reports a histogram, whether registered as one or kept in parts.
func (s *Stats) hist(key string) *Histogram {
	if key[0] == 'H' {
		return s.merges[key[2:]]()
	}
	return s.hists[key[2:]]
}

// Dump renders the registry tree as indented text.
func (s *Stats) Dump() string {
	var b strings.Builder
	s.dump(&b, 0)
	return b.String()
}

func (s *Stats) dump(b *strings.Builder, depth int) {
	ind := strings.Repeat("  ", depth)
	fmt.Fprintf(b, "%s%s:\n", ind, s.name)
	for _, key := range s.order {
		kind, name := key[:2], key[2:]
		switch kind {
		case "c:", "C:":
			fmt.Fprintf(b, "%s  %s = %d\n", ind, name, s.value(key))
		case "g:":
			fmt.Fprintf(b, "%s  %s = %d\n", ind, name, s.gauges[name]())
		case "h:", "H:":
			h := s.hist(key)
			if h.Count() == 0 {
				continue
			}
			fmt.Fprintf(b, "%s  %s: n=%d mean=%.1f p50=%.1f p99=%.1f max=%.1f\n",
				ind, name, h.Count(), h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.Max())
		}
	}
	for _, c := range s.children {
		c.dump(b, depth+1)
	}
}

// Counter is a monotonically adjustable integer metric.
type Counter struct{ v int64 }

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.v += d }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v++ }

// Value reports the current count.
func (c *Counter) Value() int64 { return c.v }

// Histogram bucket geometry: buckets grow geometrically by 2^(1/16)
// (≈4.4% wide), so reporting a bucket's geometric midpoint bounds the
// relative quantile error at 2^(1/32)-1 ≈ 2.2% — well under the 5%
// budget the calibration experiments tolerate — while a full simulation
// run needs only a few hundred occupied buckets regardless of sample
// count.
const (
	histSubBuckets = 16
	histInvLog     = histSubBuckets // index = floor(log2(|v|) * histSubBuckets)
)

// Histogram records float64 samples in O(1) memory: exact count, sum,
// min and max, plus log-scale bucket counts that answer quantiles within
// bucket resolution. Long simulations can observe billions of samples
// without per-sample retention.
type Histogram struct {
	count int64
	sum   float64
	sumSq float64
	min   float64
	max   float64

	zeros int64         // samples exactly 0
	pos   map[int]int64 // bucket index -> count, v > 0
	neg   map[int]int64 // bucket index of |v| -> count, v < 0

	posKeys, negKeys []int // cached sorted bucket indexes
	sorted           bool
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{pos: make(map[int]int64), neg: make(map[int]int64)}
}

func histIdx(abs float64) int {
	return int(math.Floor(math.Log2(abs) * histInvLog))
}

// histRep is the geometric midpoint of bucket i (for positive values).
func histRep(i int) float64 {
	return math.Exp2((float64(i) + 0.5) / histSubBuckets)
}

// Observe records one sample. NaN and ±Inf are ignored (they would
// poison sum and min/max and have no meaningful bucket).
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.sumSq += v * v
	switch {
	case v == 0:
		h.zeros++
	case v > 0:
		h.pos[histIdx(v)]++
		h.sorted = false
	default:
		h.neg[histIdx(-v)]++
		h.sorted = false
	}
}

// ObserveTime records a duration sample in nanoseconds.
func (h *Histogram) ObserveTime(t Time) { h.Observe(t.Nanoseconds()) }

// Merge folds every sample of o into h (o is unchanged). Buckets add
// exactly, so quantiles of the merged histogram equal those of a
// histogram that observed both sample streams directly — this is how
// per-shard latency histograms (which must stay engine-private for
// determinism) combine into one fabric-wide tail after the run. Bucket
// keys are visited in sorted order, so the merge itself is
// deterministic.
func (h *Histogram) Merge(o *Histogram) {
	if o.count == 0 {
		return
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if h.count == 0 || o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
	h.sumSq += o.sumSq
	h.zeros += o.zeros
	o.ensureSorted()
	for _, i := range o.posKeys {
		h.pos[i] += o.pos[i]
	}
	for _, i := range o.negKeys {
		h.neg[i] += o.neg[i]
	}
	h.sorted = false
}

// Count reports the number of samples.
func (h *Histogram) Count() int { return int(h.count) }

// Sum reports the sum of all samples.
func (h *Histogram) Sum() float64 { return h.sum }

// Buckets reports the number of occupied buckets — the histogram's
// actual memory footprint, independent of sample count.
func (h *Histogram) Buckets() int { return len(h.pos) + len(h.neg) }

// Mean reports the sample mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Max reports the largest sample exactly (0 when empty).
func (h *Histogram) Max() float64 { return h.max }

// Min reports the smallest sample exactly (0 when empty).
func (h *Histogram) Min() float64 { return h.min }

// Quantile reports the q-quantile (0 <= q <= 1) by nearest rank over
// the bucket counts. The result is the containing bucket's geometric
// midpoint, clamped to the exact [Min, Max] envelope, so the relative
// error is bounded by the bucket width. Out-of-range q clamps to the
// nearest end; a NaN q (e.g. a quantile computed from another empty
// histogram) returns 0 rather than hitting the implementation-defined
// float-to-int conversion.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 || math.IsNaN(q) {
		return 0
	}
	if q <= 0 {
		return h.min // exact, not the lowest bucket's midpoint
	}
	if q >= 1 {
		return h.max
	}
	rank := int64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	h.ensureSorted()
	return h.clamp(h.valueAtRank(rank))
}

func (h *Histogram) clamp(v float64) float64 {
	if v < h.min {
		return h.min
	}
	if v > h.max {
		return h.max
	}
	return v
}

// valueAtRank walks buckets in ascending value order: negatives from
// most negative (largest |v| bucket) up, then zeros, then positives.
func (h *Histogram) valueAtRank(rank int64) float64 {
	var seen int64
	for i := len(h.negKeys) - 1; i >= 0; i-- {
		k := h.negKeys[i]
		seen += h.neg[k]
		if seen >= rank {
			return -histRep(k)
		}
	}
	seen += h.zeros
	if seen >= rank {
		return 0
	}
	for _, k := range h.posKeys {
		seen += h.pos[k]
		if seen >= rank {
			return histRep(k)
		}
	}
	return h.max
}

// Stddev reports the population standard deviation (exact, from the
// running sum of squares).
func (h *Histogram) Stddev() float64 {
	if h.count == 0 {
		return 0
	}
	mean := h.Mean()
	v := h.sumSq/float64(h.count) - mean*mean
	if v < 0 { // floating-point cancellation on near-constant samples
		v = 0
	}
	return math.Sqrt(v)
}

func (h *Histogram) ensureSorted() {
	if h.sorted {
		return
	}
	h.posKeys = h.posKeys[:0]
	for k := range h.pos {
		h.posKeys = append(h.posKeys, k)
	}
	sort.Ints(h.posKeys)
	h.negKeys = h.negKeys[:0]
	for k := range h.neg {
		h.negKeys = append(h.negKeys, k)
	}
	sort.Ints(h.negKeys)
	h.sorted = true
}
