// Command perfbench is the repository's benchmark: three workloads that
// load the Cinnamon pipeline the way its users do, check every output
// against an independent reference, and print end-to-end metrics
// (untraced runs) or per-layer metrics (traced runs). See README.md.
//
//	bash perfbench/run.sh --workload profile --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// The lines before it repeat every metric under the name the workload
// documents, plus the environment record.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef is one reported metric: its name and unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, the same four on every
// workload (see README.md for what op_ms means on each).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"op_ms", "ms"},
	{"op_p90_ms", "ms"},
}

// perLayer are the metrics of a traced run. Every workload prints all
// of them; a layer a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"lexer.us", "us"},
	{"parser.us", "us"},
	{"sem.us", "us"},
	{"compile.us", "us"},
	{"lexer.tokens", "count"},
	{"asm.us", "us"},
	{"obj.load_us", "us"},
	{"cfg.build_us", "us"},
	{"cfg.blocks", "count"},
	{"backend.instrument_us.janus", "us"},
	{"backend.instrument_us.pin", "us"},
	{"backend.instrument_us.dyninst", "us"},
	{"placement.rules", "count"},
	{"placement.wheres_hoisted", "count"},
	{"placement.counters_promoted", "count"},
	{"placement.probes_coalesced", "count"},
	{"vm.exec_ms", "ms"},
	{"vm.insts", "count"},
	{"vm.baseline_ns_per_inst", "ns"},
	{"probe.fires", "count"},
	{"probe.ns_per_fire", "ns"},
	{"probe.allocs_per_fire", "count"},
	{"probe.bytes_per_fire", "B"},
	{"probe.sim_overhead_pct", "%"},
	{"artifacts.hits", "count"},
	{"artifacts.misses", "count"},
	{"artifacts.hit_ratio", "ratio"},
	{"fleet.queue_wait_ms_p50", "ms"},
	{"fleet.queue_wait_ms_p90", "ms"},
	{"fleet.run_ms_p50", "ms"},
	{"fleet.run_ms_p90", "ms"},
	{"fleet.restarts", "count"},
	{"fleet.backlog_max", "count"},
	{"governor.decisions", "count"},
	{"governor.paces", "count"},
	{"obs.snapshot_us", "us"},
	{"monitor.render_us", "us"},
	{"monitor.http_us", "us"},
	{"monitor.scrape_bytes", "B"},
	{"monitor.series", "count"},
	{"loadgen.late_ms_p90", "ms"},
	{"trace.overhead_pct", "%"},
}

// config is one invocation's workload parameters.
type config struct {
	seed     uint64
	duration time.Duration
	trace    bool
	// small shrinks every input set to a handful of items, for the
	// package's smoke tests.
	small bool
}

// named is one metric under the workload's own name (for example
// session_p50_ms), printed on the human-readable lines.
type named struct {
	name, unit string
	value      float64
}

// outcome is what a workload run measured.
type outcome struct {
	attempted, failed int
	// setup holds the duration of every set-up repetition.
	setup []time.Duration
	// opMs and opP90Ms are the workload's headline latencies.
	opMs, opP90Ms float64
	// layer holds per-layer metrics (traced runs only).
	layer map[string]float64
	// named lists the workload-specific names of its end-to-end
	// metrics (and, traced, extra layer figures).
	named []named
	// tr holds the traced run's spans.
	tr *tracer
}

// setupReps is how many times a workload performs its set-up; setup_s
// is the median.
const setupReps = 5

// timeSetup runs fn reps times and returns every duration.
func timeSetup(reps int, fn func() error) ([]time.Duration, error) {
	var ds []time.Duration
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		ds = append(ds, time.Since(t0))
	}
	return ds, nil
}

var workloads = map[string]func(config) (*outcome, error){
	"profile":   runProfile,
	"coldstart": runColdstart,
	"fleet":     runFleet,
}

// envRecord is the environment every result is recorded with.
type envRecord struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func environment(workload string, seed uint64, seconds int, trace bool) envRecord {
	e := envRecord{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		NumCPU: runtime.NumCPU(), CPUModel: "unknown",
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// The build stamps the commit when the sources are a git checkout;
	// an exported tree has none.
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			e.Commit = rev
			if dirty {
				e.Commit += "+modified"
			}
		}
	}
	return e
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report assembles the final result line from an outcome.
func report(o *outcome, trace bool) result {
	r := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	if trace {
		for _, m := range perLayer {
			r.Metrics[m.name] = metricValue{o.layer[m.name], m.unit}
		}
		return r
	}
	var setup []float64
	for _, d := range o.setup {
		setup = append(setup, d.Seconds())
	}
	values := map[string]float64{
		"setup_s":     median(setup),
		"peak_rss_mb": peakRSSMB(),
		"op_ms":       o.opMs,
		"op_p90_ms":   o.opP90Ms,
	}
	for _, m := range endToEnd {
		r.Metrics[m.name] = metricValue{values[m.name], m.unit}
	}
	return r
}

func main() {
	workload := flag.String("workload", "", "workload to run: profile, coldstart or fleet")
	seed := flag.Uint64("seed", 1, "workload seed: picks every generated input")
	seconds := flag.Int("seconds", 20, "measurement length in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	calibrate := flag.Bool("calibrate", false, "fleet only: measure session capacity with a saturated queue and exit")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload profile|coldstart|fleet --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if *calibrate {
		if *workload != "fleet" {
			fmt.Fprintln(os.Stderr, "perfbench: --calibrate applies to the fleet workload")
			os.Exit(2)
		}
		if err := calibrateFleet(*seed); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	env := environment(*workload, *seed, *seconds, *trace == 1)
	cfg := config{seed: *seed, duration: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	o, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	res := report(o, cfg.trace)

	envJSON, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envJSON)
	if cfg.trace {
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", *workload, *seed))
		if err := o.tr.write(path, env); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		} else {
			fmt.Printf("spans %s\n", path)
		}
	} else {
		fmt.Printf("%-28s %14.4f %s\n", "setup_s", res.Metrics["setup_s"].Value, "s")
		fmt.Printf("%-28s %14.4f %s\n", "peak_rss_mb", res.Metrics["peak_rss_mb"].Value, "MB")
	}
	fmt.Printf("%-28s %14.4f %s\n", "error_rate", ratio(float64(o.failed), float64(o.attempted)), "ratio")
	for _, n := range o.named {
		fmt.Printf("%-28s %14.4f %s\n", n.name, n.value, n.unit)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-30s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
