// Command perfpairs measures a change against a base revision with the
// repository benchmark (perfbench/run.sh). It checks out both revisions
// in git worktrees under a scratch directory, runs the benchmark on
// them in alternating pairs (the side that runs first swaps every
// pair), and prints one JSON entry: perfbench's environment record of
// each side and, per seed and per metric, every sample, the medians,
// p10 and p90, the base IQR, the pairs the change won and a verdict
// against the metric's bound in BENCHMARK.json. Each run lasts the
// run_seconds that BENCHMARK.json sets. The worktrees are removed at the
// end.
//
// Run from the repository root:
//
//	go run ./scripts/perfpairs -base HEAD~1 -change HEAD -workload profile \
//	    -seeds 1,7 -pairs 10 [-trace 0] [-label text] [-append BENCH_perf.json]
//
// With -append the entry is appended to the JSON array in that file
// (created if missing) instead of printed.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// specFile declares the benchmark: its run length and metric bounds.
const specFile = "BENCHMARK.json"

// spec is the part of specFile perfpairs reads.
type spec struct {
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string   `json:"name"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// runResult is the last line of a perfbench run.
type runResult struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// sideName names the two revisions in the output, indexed by side.
var sideName = [2]string{"base", "change"}

// Verdicts of a metric.
const (
	improved    = "improved"
	withinBound = "within bound"
	worse       = "worse"
	unresolved  = "unresolved"
	noBound     = "no bound"
)

// summary is one metric of one seed.
type summary struct {
	Unit         string    `json:"unit"`
	Better       string    `json:"better"`
	Bound        *float64  `json:"bound,omitempty"`
	Base         []float64 `json:"base"`
	Change       []float64 `json:"change"`
	BaseMedian   float64   `json:"base_median"`
	ChangeMedian float64   `json:"change_median"`
	BaseP10      float64   `json:"base_p10"`
	BaseP90      float64   `json:"base_p90"`
	ChangeP10    float64   `json:"change_p10"`
	ChangeP90    float64   `json:"change_p90"`
	BaseIQR      float64   `json:"base_iqr"`
	DeltaPct     float64   `json:"delta_pct"`
	Spread       float64   `json:"spread"`
	Wins         int       `json:"wins"`
	Verdict      string    `json:"verdict"`
}

// seedEntry is every pair of one seed.
type seedEntry struct {
	Seed      uint64              `json:"seed"`
	Pairs     int                 `json:"pairs"`
	Attempted [2]int              `json:"attempted"` // base, change
	Failed    [2]int              `json:"failed"`    // base, change
	Metrics   map[string]*summary `json:"metrics"`
}

// entry is one invocation's output.
type entry struct {
	Label    string                     `json:"label,omitempty"`
	Workload string                     `json:"workload"`
	Trace    bool                       `json:"trace"`
	Seconds  int                        `json:"seconds"`
	Base     string                     `json:"base"`
	Change   string                     `json:"change"`
	Env      map[string]json.RawMessage `json:"env"`
	Seeds    []seedEntry                `json:"seeds"`
}

// quantile is the q-quantile of sorted xs, interpolating linearly
// between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// relWidth is the p10–p90 width of a side relative to its median.
func relWidth(p10, p90, median float64) float64 {
	if p90 == p10 {
		return 0
	}
	if median == 0 {
		return math.Inf(1)
	}
	return (p90 - p10) / math.Abs(median)
}

// summarize computes a metric's statistics from paired samples (base[i]
// and change[i] ran as pair i) and its verdict, given the operations
// each side failed (base, change) over those pairs:
//
//   - improved: the change median beats the base median by more than
//     the base IQR, the change wins at least nine tenths of the pairs
//     (ties count for neither side), and the change failed no more
//     operations than the base;
//   - worse: the change median is worse than the base median by more
//     than the bound, relative to the base median;
//   - unresolved: the p10–p90 width of either side, relative to its
//     median, exceeds the bound, and some change run is no better than
//     some base run;
//   - within bound: none of these;
//   - no bound: not improved, and the metric has no bound.
func summarize(base, change []float64, better string, bound *float64, failed [2]int) *summary {
	s := &summary{Better: better, Bound: bound, Base: base, Change: change}
	sb, sc := sorted(base), sorted(change)
	s.BaseMedian, s.ChangeMedian = quantile(sb, 0.5), quantile(sc, 0.5)
	s.BaseP10, s.BaseP90 = quantile(sb, 0.1), quantile(sb, 0.9)
	s.ChangeP10, s.ChangeP90 = quantile(sc, 0.1), quantile(sc, 0.9)
	s.BaseIQR = quantile(sb, 0.75) - quantile(sb, 0.25)
	if s.BaseMedian != 0 {
		s.DeltaPct = 100 * (s.ChangeMedian - s.BaseMedian) / math.Abs(s.BaseMedian)
	}
	s.Spread = max(relWidth(s.BaseP10, s.BaseP90, s.BaseMedian), relWidth(s.ChangeP10, s.ChangeP90, s.ChangeMedian))
	sign := 1.0 // gain > 0 is better
	if better == "higher" {
		sign = -1
	}
	for i := range base {
		if sign*(base[i]-change[i]) > 0 {
			s.Wins++
		}
	}
	gain := sign * (s.BaseMedian - s.ChangeMedian)
	// Every change run beats every base run: the spread cannot hide
	// the direction.
	separated := sc[len(sc)-1] < sb[0]
	if sign < 0 {
		separated = sc[0] > sb[len(sb)-1]
	}
	switch {
	case gain > s.BaseIQR && 10*s.Wins >= 9*len(base) && failed[1] <= failed[0]:
		s.Verdict = improved
	case bound == nil:
		s.Verdict = noBound
	case -gain > *bound*math.Abs(s.BaseMedian):
		s.Verdict = worse
	case s.Spread > *bound && !separated:
		s.Verdict = unresolved
	default:
		s.Verdict = withinBound
	}
	return s
}

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// config is one invocation's flags.
type config struct {
	base, change, workload, seeds string
	pairs, trace                  int
	scratch, label, appendTo      string
}

func main() {
	var c config
	flag.StringVar(&c.base, "base", "", "base revision (required)")
	flag.StringVar(&c.change, "change", "", "changed revision (required)")
	flag.StringVar(&c.workload, "workload", "profile", "perfbench workload: profile, coldstart or fleet")
	flag.StringVar(&c.seeds, "seeds", "1", "comma-separated perfbench seeds")
	flag.IntVar(&c.pairs, "pairs", 10, "alternating pairs per seed")
	flag.IntVar(&c.trace, "trace", 0, "perfbench --trace (0 or 1)")
	flag.StringVar(&c.scratch, "scratch", "", "directory for the worktrees (default: a new temporary directory)")
	flag.StringVar(&c.label, "label", "", "free text recorded with the entry")
	flag.StringVar(&c.appendTo, "append", "", "append the entry to the JSON array in this file instead of printing it")
	flag.Parse()
	if c.base == "" || c.change == "" || c.pairs < 1 || (c.trace != 0 && c.trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	// An interrupt stops the running benchmark and still removes the
	// worktrees.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, c); err != nil {
		fmt.Fprintf(os.Stderr, "perfpairs: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, c config) (err error) {
	var sp spec
	data, err := os.ReadFile(specFile)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, &sp); err != nil {
		return fmt.Errorf("%s: %w", specFile, err)
	}
	if sp.RunSeconds < 1 {
		return fmt.Errorf("%s: run_seconds %d", specFile, sp.RunSeconds)
	}
	var seeds []uint64
	for _, f := range strings.Split(c.seeds, ",") {
		s, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return fmt.Errorf("-seeds: %w", err)
		}
		seeds = append(seeds, s)
	}
	scratch := c.scratch
	if scratch == "" {
		if scratch, err = os.MkdirTemp("", "perfpairs"); err != nil {
			return err
		}
		// Runs last, once the worktrees inside are removed; a failure
		// only leaves an empty directory behind.
		defer os.Remove(scratch)
	}
	e := &entry{Label: c.label, Workload: c.workload, Trace: c.trace == 1, Seconds: sp.RunSeconds, Env: map[string]json.RawMessage{}}
	revs := [2]string{c.base, c.change}
	var dirs [2]string
	for side, rev := range revs {
		sha, err := git("rev-parse", "--verify", rev+"^{commit}")
		if err != nil {
			return err
		}
		dir := filepath.Join(scratch, fmt.Sprintf("%s-%s", sideName[side], sha[:12]))
		if _, err := git("worktree", "add", "--detach", dir, sha); err != nil {
			return err
		}
		defer func() {
			if _, rmErr := git("worktree", "remove", "--force", dir); rmErr != nil && err == nil {
				err = rmErr
			}
		}()
		revs[side], dirs[side] = sha, dir
	}
	e.Base, e.Change = revs[0], revs[1]

	args := func(seed uint64, secs int) []string {
		return []string{"perfbench/run.sh", "--workload", c.workload, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.Itoa(secs), "--trace", strconv.Itoa(c.trace)}
	}
	// One short discarded run per side builds the benchmark and warms
	// its build cache, so no measured run pays for compilation.
	for side, dir := range dirs {
		if _, _, err := bench(ctx, dir, args(seeds[0], 1)); err != nil {
			return fmt.Errorf("%s warm-up: %w", revs[side], err)
		}
	}

	metrics := sp.EndToEnd
	if c.trace == 1 {
		metrics = sp.PerLayer
	}
	for _, seed := range seeds {
		se := seedEntry{Seed: seed, Pairs: c.pairs, Metrics: map[string]*summary{}}
		samples := [2]map[string][]float64{{}, {}}
		units := map[string]string{}
		for p := 0; p < c.pairs; p++ {
			order := [2]int{0, 1}
			if p%2 == 1 {
				order = [2]int{1, 0}
			}
			for _, side := range order {
				res, env, err := bench(ctx, dirs[side], args(seed, sp.RunSeconds))
				if err != nil {
					return fmt.Errorf("%s seed %d pair %d: %w", revs[side], seed, p, err)
				}
				if _, ok := e.Env[sideName[side]]; !ok {
					e.Env[sideName[side]] = env
				}
				se.Attempted[side] += res.Attempted
				se.Failed[side] += res.Failed
				for _, m := range metrics {
					mv, ok := res.Metrics[m.Name]
					if !ok {
						return fmt.Errorf("%s seed %d: metric %s missing", revs[side], seed, m.Name)
					}
					samples[side][m.Name] = append(samples[side][m.Name], mv.Value)
					units[m.Name] = mv.Unit
				}
				fmt.Fprintf(os.Stderr, "perfpairs: seed %d pair %d/%d %s failed=%d\n", seed, p+1, c.pairs,
					sideName[side], res.Failed)
			}
		}
		for _, m := range metrics {
			s := summarize(samples[0][m.Name], samples[1][m.Name], m.Better, m.Bound, se.Failed)
			s.Unit = units[m.Name]
			se.Metrics[m.Name] = s
		}
		e.Seeds = append(e.Seeds, se)
	}
	return write(e, c.appendTo)
}

// bench runs perfbench in dir and returns its result line and its
// environment record.
func bench(ctx context.Context, dir string, args []string) (*runResult, json.RawMessage, error) {
	cmd := exec.CommandContext(ctx, "bash", args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	// The benchmark runs in a process group of its own, so that
	// cancelling also stops the build run.sh may have started.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, err
	}
	var env json.RawMessage
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "env "); ok {
			env = json.RawMessage(rest)
		}
		if line != "" {
			last = line
		}
	}
	var res runResult
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, nil, fmt.Errorf("result line %q: %w", last, err)
	}
	if env == nil {
		return nil, nil, errors.New("no environment record")
	}
	return &res, env, nil
}

// write prints e, or appends it to the JSON array in path.
func write(e *entry, path string) error {
	if path == "" {
		out, err := json.MarshalIndent(e, "", "  ")
		if err != nil {
			return err
		}
		_, err = fmt.Printf("%s\n", out)
		return err
	}
	var all []json.RawMessage
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
	case err != nil:
		return err
	default:
		if err := json.Unmarshal(data, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	raw, err := json.Marshal(e)
	if err != nil {
		return err
	}
	all = append(all, raw)
	out, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

func git(args ...string) (string, error) {
	out, err := exec.Command("git", args...).Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return "", fmt.Errorf("git %s: %v: %s", strings.Join(args, " "), err, bytes.TrimSpace(ee.Stderr))
		}
		return "", fmt.Errorf("git %s: %w", strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}
