package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// Smoke mode: every workload at a tiny length and input size, untraced
// and traced. Every metric must be reported with its unit, and no
// operation may fail or disagree with its reference.
func TestSmoke(t *testing.T) {
	ownNames := map[string][]string{
		"profile":   {"profile_run_ms"},
		"coldstart": {"coldstart_p50_ms", "coldstart_p90_ms"},
		"fleet":     {"session_p50_ms", "session_p90_ms", "scrape_p50_ms", "scrape_p90_ms"},
	}
	for name, run := range workloads {
		for _, trace := range []bool{false, true} {
			o, err := run(config{seed: 7, duration: 300 * time.Millisecond, trace: trace, small: true})
			if err != nil {
				t.Fatalf("%s (trace=%v): %v", name, trace, err)
			}
			if o.attempted < 1 || o.failed != 0 {
				t.Errorf("%s (trace=%v): %d of %d operations failed, want error_rate 0", name, trace, o.failed, o.attempted)
			}
			r := report(o, trace)
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s (trace=%v): %d metrics, want %d", name, trace, len(r.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s (trace=%v): metric %s = %+v, want unit %q", name, trace, m.name, got, m.unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.name, got.Value)
				}
			}
			printed := map[string]bool{}
			for _, n := range o.named {
				printed[n.name] = n.unit != ""
			}
			for _, n := range ownNames[name] {
				if !printed[n] {
					t.Errorf("%s (trace=%v): %s not printed with a unit", name, trace, n)
				}
			}
			if trace && r.Metrics["trace.overhead_pct"].Value == 0 {
				t.Errorf("%s: trace.overhead_pct not measured", name)
			}
		}
	}
}

// BENCHMARK.json at the repository root must list exactly the
// workloads and metrics the program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	for _, c := range []struct {
		json []metric
		defs []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, the program reports %d", len(c.json), len(c.defs))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("BENCHMARK.json metric %d = %s/%s, program reports %s/%s", i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}
