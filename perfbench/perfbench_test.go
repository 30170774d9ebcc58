package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fcc/internal/lint"
)

// spec is the part of BENCHMARK.json the tests check output against.
type spec struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return s
}

// tiny runs a workload at a small fraction of its size for two rounds.
func tiny(t *testing.T, w workload, seed uint64, trace bool) *report {
	t.Helper()
	size := 0.05
	if w.name == "dc-sharded" {
		size = 0.1
	}
	rep, err := measure(w, config{seed: seed, size: size, rounds: 2, trace: trace})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.result.Correct {
		t.Fatalf("%s: correctness checks failed: %v", w.name, rep.errors)
	}
	return rep
}

func checkEmitted(t *testing.T, w string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	for _, m := range want {
		v, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not emitted", w, m.Name)
		case v.Unit != m.Unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w, m.Name, v.Unit, m.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s: metric %s = %v", w, m.Name, v.Value)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: emitted %d metrics, BENCHMARK.json lists %d", w, len(got), len(want))
	}
}

// simulated are the model outputs that must repeat bit for bit under
// one seed.
var simulated = []string{"sim_p99_us", "sim_mops", "commit_ratio"}

func TestWorkloadsTiny(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if s.Workloads[i].Name != w.name {
			t.Fatalf("workload %d is %s here, %s in BENCHMARK.json", i, w.name, s.Workloads[i].Name)
		}
		t.Run(w.name, func(t *testing.T) {
			a := tiny(t, w, 7, false)
			checkEmitted(t, w.name, a.result.Metrics, s.EndToEnd)
			if a.result.Attempted < 1 {
				t.Errorf("attempted = %d", a.result.Attempted)
			}

			b := tiny(t, w, 7, false)
			if a.context["digest"] != b.context["digest"] {
				t.Errorf("same seed, digests %v and %v", a.context["digest"], b.context["digest"])
			}
			for _, m := range simulated {
				if a.result.Metrics[m] != b.result.Metrics[m] {
					t.Errorf("same seed, %s = %v then %v", m, a.result.Metrics[m].Value, b.result.Metrics[m].Value)
				}
			}
			if c := tiny(t, w, 8, false); c.context["digest"] == a.context["digest"] {
				t.Errorf("seeds 7 and 8 give the same digest %v", a.context["digest"])
			}

			tr := tiny(t, w, 7, true)
			checkEmitted(t, w.name, tr.result.Metrics, s.PerLayer)
			var bucketSum float64
			for _, l := range layers {
				bucketSum += tr.result.Metrics[l+".ns_per_op"].Value
			}
			total := tr.result.Metrics["profile.ns_per_op"].Value
			if math.Abs(bucketSum-total) > 1e-9*math.Max(1, total) {
				t.Errorf("ledger buckets sum to %v ns/op, profile total is %v", bucketSum, total)
			}
			m := tr.result.Metrics
			setup := m["setup.build_s"].Value + m["setup.store_s"].Value + m["setup.spawn_s"].Value
			if setup <= 0 {
				t.Errorf("setup spans sum to %v s", setup)
			}
		})
	}
}

func TestBucketOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"fcc/internal/flit.CRC16", "fcc/internal/link.(*Port).Send"}, "flit"},
		{[]string{"runtime.memmove", "fcc/internal/host.(*Host).fill"}, "host"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "fcc/internal/flit.(*Pool).Encode"}, "runtime.gc"},
		{[]string{"runtime.futex", "runtime.stopm", "runtime.findRunnable", "runtime.schedule"}, "runtime.sched"},
		{[]string{"fcc/internal/fabstore/workload.(*Pattern).Next"}, "fabstore"},
		{[]string{"fcc/internal/phys.Serialize", "fcc/internal/link.(*Port).tx"}, "link"},
		{[]string{"main.runRound", "main.main"}, "other"},
	} {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestLintClean holds this module to the repository's fcclint rules
// and allowlist. The module is nested, so the root module's lint test
// does not reach it.
func TestLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the module; skipped in -short")
	}
	pkgs, err := lint.Load(".", "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	allow, err := lint.ParseAllowlist(filepath.Join("..", ".fcclint.allow"))
	if err != nil {
		t.Fatal(err)
	}
	var msgs []string
	for _, d := range lint.Run(pkgs, lint.Analyzers(), allow) {
		msgs = append(msgs, d.String())
	}
	if len(msgs) > 0 {
		t.Fatalf("fcclint violations:\n%s", strings.Join(msgs, "\n"))
	}
}
