package monitor

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/governor"
	"repro/internal/obs"
)

// checkExposition validates Prometheus text-exposition conformance
// line by line — HELP and TYPE precede a family's samples, counters end
// in _total, no duplicate series, parseable values — and returns the
// series map (metric name + rendered labels → value) for cross-scrape
// assertions.
func checkExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	helpSeen := map[string]bool{}
	typeSeen := map[string]string{}
	series := map[string]float64{}
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			f := strings.Fields(line)
			if len(f) < 4 {
				t.Errorf("line %d: HELP without help text: %q", ln+1, line)
			}
			helpSeen[f[2]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			name, typ := f[2], f[3]
			if !helpSeen[name] {
				t.Errorf("line %d: TYPE %s before its HELP", ln+1, name)
			}
			if typ != "counter" && typ != "gauge" {
				t.Errorf("line %d: unexpected type %q", ln+1, typ)
			}
			if typ == "counter" && !strings.HasSuffix(name, "_total") {
				t.Errorf("line %d: counter %s lacks _total suffix", ln+1, name)
			}
			if _, dup := typeSeen[name]; dup {
				t.Errorf("line %d: duplicate TYPE for %s", ln+1, name)
			}
			typeSeen[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		if typeSeen[name] == "" {
			t.Errorf("line %d: sample for %s before its TYPE", ln+1, name)
		}
		sp := strings.LastIndex(line, " ")
		if sp < 0 {
			t.Fatalf("line %d: malformed sample: %q", ln+1, line)
		}
		key := line[:sp]
		if strings.Contains(key, "{") && !strings.HasSuffix(key, "}") {
			t.Errorf("line %d: unbalanced label braces: %q", ln+1, line)
		}
		val, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Errorf("line %d: unparseable value: %q", ln+1, line)
		}
		if _, dup := series[key]; dup {
			t.Errorf("line %d: duplicate series %s", ln+1, key)
		}
		series[key] = val
	}
	return series
}

// one is the label set of a fleet of one: the session `cinnamon
// -listen` registers for its run (see fleetOfOne).
const one = `session="s1",tool="inline",victim="a.out",backend=`

// fleetOfOne registers col as the only session of a fleet, the way
// `cinnamon -listen` serves its run, with the given series (may be nil).
func fleetOfOne(t *testing.T, col *obs.Collector, backend string, series *obs.Series) (*Fleet, *FleetSession) {
	t.Helper()
	f := NewFleet()
	sess, err := f.Add(SessionLabels{Session: "s1", Tool: "inline", Victim: "a.out", Backend: backend}, col, series)
	if err != nil {
		t.Fatal(err)
	}
	return f, sess
}

// scrape renders a fleet-of-one exposition of col and validates it.
func scrape(t *testing.T, col *obs.Collector, backend string) (string, map[string]float64) {
	t.Helper()
	f, _ := fleetOfOne(t, col, backend, nil)
	return fleetScrape(t, f)
}

func TestMetricsExpositionConformance(t *testing.T) {
	col := obs.New(obs.Options{TraceCap: 2})
	a := col.RegisterProbe(obs.ProbeMeta{Label: "before inst @7:3", Trigger: obs.TriggerBefore, Mechanism: obs.MechCleanCall})
	b := col.RegisterProbe(obs.ProbeMeta{Label: "before inst @7:3", Trigger: obs.TriggerBefore, Mechanism: obs.MechCleanCall})
	e := col.RegisterProbe(obs.ProbeMeta{Label: "edge check", Trigger: obs.TriggerEdge, Mechanism: obs.MechInlinedCall})
	col.MutateBuild(func(s *obs.BuildStats) { s.ActionsPlaced = 2; s.CleanCalls = 2; s.InlinedCalls = 1 })
	col.Fire(a, 10, 0x100)
	col.Fire(b, 10, 0x104)
	col.Fire(e, 4, 0x200)
	col.Fire(obs.NoProbe, 7, 0x300)

	text, series := scrape(t, col, "pin")

	// Same-label placements aggregate into one series.
	key := `cinnamon_probe_fires_total{` + one + `"pin",probe="before inst @7:3",trigger="before",mechanism="clean-call"}`
	if series[key] != 2 {
		t.Fatalf("aggregated fires = %v, want 2\n%s", series[key], text)
	}
	if series[`cinnamon_probe_cycles_total{`+one+`"pin",probe="edge check",trigger="edge",mechanism="inlined-call"}`] != 4 {
		t.Fatalf("edge cycles missing\n%s", text)
	}
	if series[`cinnamon_untracked_fires_total{`+one+`"pin"}`] != 1 ||
		series[`cinnamon_untracked_cycles_total{`+one+`"pin"}`] != 7 {
		t.Fatalf("untracked bucket not exported\n%s", text)
	}
	if series[`cinnamon_build_clean_calls{`+one+`"pin"}`] != 2 {
		t.Fatalf("build stats not exported\n%s", text)
	}
	if _, ok := series[`cinnamon_trace_subscribers{`+one+`"pin"}`]; !ok {
		t.Fatalf("subscriber gauge missing\n%s", text)
	}
}

func TestMetricsLabelEscaping(t *testing.T) {
	col := obs.New(obs.Options{})
	id := col.RegisterProbe(obs.ProbeMeta{
		Label:     "odd\"label\\with\nnewline",
		Trigger:   obs.TriggerBefore,
		Mechanism: obs.MechSnippet,
	})
	col.Fire(id, 1, 0)

	text, series := scrape(t, col, "dyninst")

	want := `cinnamon_probe_fires_total{` + one + `"dyninst",probe="odd\"label\\with\nnewline",trigger="before",mechanism="snippet"}`
	if series[want] != 1 {
		t.Fatalf("escaped series not found; exposition:\n%s", text)
	}
	if strings.Contains(text, "odd\"label") || strings.Count(text, "\nnewline") > 0 {
		t.Fatalf("raw unescaped label leaked into exposition:\n%s", text)
	}
}

func TestMetricsMonotoneAcrossScrapes(t *testing.T) {
	col := obs.New(obs.Options{TraceCap: 2})
	id := col.RegisterProbe(obs.ProbeMeta{Label: "hot", Trigger: obs.TriggerBefore, Mechanism: obs.MechCleanCall})
	f, _ := fleetOfOne(t, col, "vm", nil)

	col.Fire(id, 3, 0x10)
	_, first := fleetScrape(t, f)

	for i := 0; i < 100; i++ {
		col.Fire(id, 3, 0x10)
	}
	col.NoteTranslation(50)
	_, second := fleetScrape(t, f)

	for key, v1 := range first {
		if !strings.Contains(key, "_total") {
			continue
		}
		if v2, ok := second[key]; !ok || v2 < v1 {
			t.Errorf("counter %s went %v -> %v (missing or decreased)", key, v1, v2)
		}
	}
	key := `cinnamon_probe_fires_total{` + one + `"vm",probe="hot",trigger="before",mechanism="clean-call"}`
	if first[key] != 1 || second[key] != 101 {
		t.Fatalf("fires %v -> %v, want 1 -> 101", first[key], second[key])
	}
	if second[`cinnamon_translated_blocks_total{`+one+`"vm"}`] != 1 {
		t.Fatalf("translation counter not exported")
	}
	if second[`cinnamon_translation_cycles_total{`+one+`"vm"}`] != 50 {
		t.Fatalf("translation cycles not exported")
	}
}

// Every exposition family appears, with its type, in a governed
// fleet-of-one scrape (and the governor families only for a governed
// session).
func TestFleetOfOneEmitsUnionOfFamilies(t *testing.T) {
	col := obs.New(obs.Options{TraceCap: 2})
	id := col.RegisterProbe(obs.ProbeMeta{Label: "hot", Trigger: obs.TriggerBefore, Mechanism: obs.MechCleanCall})
	col.Fire(id, 3, 0x10)
	f, sess := fleetOfOne(t, col, "pin", nil)

	govFams := map[string]string{
		"cinnamon_governor_budget":          "gauge",
		"cinnamon_governor_paces_total":     "counter",
		"cinnamon_governor_overhead":        "gauge",
		"cinnamon_governor_cum_overhead":    "gauge",
		"cinnamon_governor_decisions_total": "counter",
		"cinnamon_governor_ejected_probes":  "gauge",
	}
	text, _ := fleetScrape(t, f)
	for name := range govFams {
		if strings.Contains(text, name) {
			t.Fatalf("ungoverned session exposes %s\n%s", name, text)
		}
	}

	g, err := governor.New(governor.Config{Budget: 0.05, Collector: col})
	if err != nil {
		t.Fatal(err)
	}
	sess.SetGovernor(g)
	text, series := fleetScrape(t, f)
	want := map[string]string{
		"cinnamon_probe_fires_total":              "counter",
		"cinnamon_probe_skips_total":              "counter",
		"cinnamon_probe_cycles_total":             "counter",
		"cinnamon_untracked_fires_total":          "counter",
		"cinnamon_untracked_cycles_total":         "counter",
		"cinnamon_untracked_skips_total":          "counter",
		"cinnamon_build_actions_placed":           "gauge",
		"cinnamon_build_static_filtered":          "gauge",
		"cinnamon_build_rules_emitted":            "gauge",
		"cinnamon_build_clean_calls":              "gauge",
		"cinnamon_build_inlined_calls":            "gauge",
		"cinnamon_build_snippets":                 "gauge",
		"cinnamon_translated_blocks_total":        "counter",
		"cinnamon_translation_cycles_total":       "counter",
		"cinnamon_trace_dropped_total":            "counter",
		"cinnamon_trace_subscribers":              "gauge",
		"cinnamon_trace_subscriber_dropped_total": "counter",
	}
	for name, typ := range govFams {
		want[name] = typ
	}
	for name, typ := range want {
		if !strings.Contains(text, "# TYPE "+name+" "+typ+"\n") {
			t.Errorf("family %s (%s) missing\n%s", name, typ, text)
		}
	}
	if series[`cinnamon_governor_budget{`+one+`"pin"}`] != 0.05 {
		t.Fatalf("governor budget sample missing\n%s", text)
	}
}
