package sim

import "encoding/json"

// SnapshotSchemaVersion identifies the JSON layout of StatsSnapshot.
// Bump it whenever a field is renamed, removed, or changes meaning, so
// downstream consumers (BENCH_*.json trajectories, dashboards) can
// detect incompatible exports instead of misreading them.
//
// v2: cluster exports grew the "fault" (injector blast-radius counters)
// and "manager" (failure detection / route-around) subtrees.
//
// v3: histograms export "p999" (FabStore's tail-latency contract is
// stated at p99/p999), and cluster exports may carry a "fabstore"
// subtree (per-client committed/typed-error counters, per-endpoint
// retries/timeouts feeding the zero-unaccounted audit, latency
// histograms).
const SnapshotSchemaVersion = 3

// StatsSnapshot is the machine-readable form of a Stats tree at one
// instant. Maps marshal with sorted keys, and children preserve
// construction order, so equal trees produce byte-identical JSON —
// snapshots are diffable and golden-testable.
type StatsSnapshot struct {
	// Schema is set to SnapshotSchemaVersion on the root node only.
	Schema     int                     `json:"schema,omitempty"`
	Name       string                  `json:"name"`
	Counters   map[string]int64        `json:"counters,omitempty"`
	Gauges     map[string]int64        `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
	Children   []*StatsSnapshot        `json:"children,omitempty"`
}

// HistSnapshot summarizes one histogram: exact count/sum/min/max/mean/
// stddev plus quantiles at bucket resolution.
type HistSnapshot struct {
	Count  int64   `json:"count"`
	Sum    float64 `json:"sum"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Mean   float64 `json:"mean"`
	Stddev float64 `json:"stddev"`
	P50    float64 `json:"p50"`
	P90    float64 `json:"p90"`
	P99    float64 `json:"p99"`
	P999   float64 `json:"p999"`
}

// SnapshotHistogram captures a histogram's summary.
func SnapshotHistogram(h *Histogram) HistSnapshot {
	return HistSnapshot{
		Count:  int64(h.Count()),
		Sum:    h.Sum(),
		Min:    h.Min(),
		Max:    h.Max(),
		Mean:   h.Mean(),
		Stddev: h.Stddev(),
		P50:    h.Quantile(0.50),
		P90:    h.Quantile(0.90),
		P99:    h.Quantile(0.99),
		P999:   h.Quantile(0.999),
	}
}

// Snapshot captures the whole tree. The root carries the schema version.
func (s *Stats) Snapshot() *StatsSnapshot {
	snap := s.snapshot()
	snap.Schema = SnapshotSchemaVersion
	return snap
}

func (s *Stats) snapshot() *StatsSnapshot {
	snap := &StatsSnapshot{Name: s.name}
	for _, key := range s.order {
		kind, name := key[:2], key[2:]
		switch kind {
		case "c:", "C:":
			if snap.Counters == nil {
				snap.Counters = make(map[string]int64)
			}
			snap.Counters[name] = s.value(key)
		case "g:":
			if snap.Gauges == nil {
				snap.Gauges = make(map[string]int64)
			}
			snap.Gauges[name] = s.gauges[name]()
		case "h:", "H:":
			h := s.hist(key)
			if h.Count() == 0 {
				continue // empty histograms add noise, not information
			}
			if snap.Histograms == nil {
				snap.Histograms = make(map[string]HistSnapshot)
			}
			snap.Histograms[name] = SnapshotHistogram(h)
		}
	}
	for _, c := range s.children {
		snap.Children = append(snap.Children, c.snapshot())
	}
	return snap
}

// MarshalJSONIndent renders the snapshot as stable, indented JSON.
func (s *StatsSnapshot) MarshalJSONIndent() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}
