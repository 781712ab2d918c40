package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strings"
	"time"

	"repro/internal/core/backend"
	"repro/internal/fleet"
	"repro/internal/governor"
	"repro/internal/monitor"
	"repro/internal/obj"
	"repro/internal/obs"
	"repro/internal/progs"
	"repro/internal/vm"
	"repro/internal/workload"
)

// The fleet workload is cinnamond under steady traffic: a real
// fleet.Scheduler and FleetServer on loopback. One client submits
// sessions open loop over POST /sessions at a fixed rate; a second
// scrapes /metrics open loop at a fixed interval. Session writers and
// scrape readers share the collectors, so a change that speeds one by
// slowing the other shows in the same run. monitor.Fleet never retires
// sessions, so the session count is fixed by the run length, which
// keeps the /metrics size comparable between runs.

const (
	// fleetWorkers is the scheduler's pool size (capped at the CPU
	// count).
	fleetWorkers = 2
	// fleetRate is the session arrival rate: about 60% of the capacity
	// `perfbench --workload fleet --calibrate` measured with two
	// workers on a 2-core Intel Xeon (README.md).
	fleetRate = 11.6
	// fleetScrapeEvery is the /metrics scrape interval.
	fleetScrapeEvery = 100 * time.Millisecond
	// fleetBudget is the governor budget of the governed share of the
	// mix.
	fleetBudget = "5%"
)

// fleetJob is one entry of the session mix.
type fleetJob struct {
	tool, victim, backend, budget string
	// loop is the victim loop count, chosen per pair so that every
	// session runs for about the same time (100 ms on the calibration
	// machine): a mix of equal sessions keeps the latency percentiles
	// about queueing and service, not about which pairs were drawn.
	loop int
}

// fleetMix is the session mix: tools on loopable victims, mostly on
// Janus, the Figure 13 tool also on Pin and Dyninst, and 4 of 14
// entries governed at a 5% budget. Each run submits whole rounds of
// the mix in a seeded order, so every pair repeats and the artifact
// cache warms, while the work per run is the same for every seed.
var fleetMix = []fleetJob{
	{progs.ForwardCFI, "loopy", backend.Janus, "", 8000},
	{progs.ShadowStack, "loopy", backend.Janus, "", 7200},
	{progs.OpcodeMix, "loopy", backend.Janus, fleetBudget, 7200},
	{progs.OpcodeMix, "spin", backend.Janus, fleetBudget, 60000},
	{progs.ForwardCFI, "spin", backend.Janus, "", 60000},
	{progs.ShadowStack, "spin", backend.Janus, "", 52000},
	{progs.InstCountBB, "spin", backend.Pin, "", 72000},
	{progs.InstCountBB, "spin", backend.Dyninst, "", 72000},
	{progs.UseAfterFree, "spin", backend.Janus, "", 64000},
	{progs.LoopCoverage, "spin", backend.Janus, fleetBudget, 48000},
	{progs.ShadowStack, "uaf_clean", backend.Janus, "", 22000},
	{progs.ForwardCFI, "stack_clean", backend.Janus, "", 32000},
	{progs.ShadowStack, "indirect_clean", backend.Janus, "", 28000},
	{progs.OpcodeMix, "uaf_bug", backend.Janus, fleetBudget, 120000},
}

// fleetRef is a session's expected result.
type fleetRef struct {
	cycles, insts, fires, probeCycles uint64
}

// fleetReference runs a job on the reference tiers (interpreted VM,
// tree-walking actions), governed like the session when it has a
// budget (the governor is deterministic across tiers).
func fleetReference(j fleetJob) (fleetRef, error) {
	mod, err := workload.LoopedVictim(j.victim, j.loop)
	if err != nil {
		return fleetRef{}, err
	}
	prog, err := linkTarget([]*obj.Module{mod}, nil, 0, 0)
	if err != nil {
		return fleetRef{}, err
	}
	tool, _, err := compileTool(progs.MustSource(j.tool), nil, 0, 0)
	if err != nil {
		return fleetRef{}, err
	}
	col := obs.New(obs.Options{})
	opts := backend.Options{Out: io.Discard, AppOut: io.Discard, Obs: col, VMMode: vm.ExecInterpreted, Interpret: true}
	if j.budget != "" {
		frac, err := governor.ParseBudget(j.budget)
		if err != nil {
			return fleetRef{}, err
		}
		gov, err := governor.New(governor.Config{Budget: frac, Collector: col})
		if err != nil {
			return fleetRef{}, err
		}
		opts.Adaptive, opts.OnMachine = true, gov.Attach
	}
	res, err := backend.Run(tool, prog, j.backend, opts)
	if err != nil {
		return fleetRef{}, err
	}
	s := col.Snapshot(j.backend)
	return fleetRef{res.Cycles, res.Insts, s.TotalFires, s.ProbeCycles}, nil
}

// daemon is one booted scheduler + server.
type daemon struct {
	sched *fleet.Scheduler
	srv   *monitor.FleetServer
	base  string
}

func bootDaemon(queue int) (*daemon, error) {
	workers := fleetWorkers
	if n := runtime.NumCPU(); n < workers {
		workers = n
	}
	sched := fleet.NewScheduler(fleet.Config{Workers: workers, Queue: queue})
	srv := monitor.NewFleetServer(monitor.FleetConfig{
		Fleet:     sched.Fleet(),
		Ready:     sched.Accepting,
		Submit:    sched.SubmitJSON,
		Artifacts: sched.ArtifactStats,
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = sched.Drain(ctx)
		return nil, err
	}
	return &daemon{sched: sched, srv: srv, base: "http://" + addr}, nil
}

// stop drains the scheduler and shuts the server down, waiting for
// both.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = d.sched.Drain(ctx)
	_ = d.srv.Shutdown(ctx)
}

func newClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
	}
}

// submit posts one job and returns the admitted session's ID.
func submit(client *http.Client, base string, j fleetJob) (string, error) {
	body, err := json.Marshal(fleet.JobSpec{Tool: j.tool, Victim: j.victim, Backend: j.backend, Budget: j.budget, Loop: j.loop})
	if err != nil {
		return "", err
	}
	resp, err := client.Post(base+"/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("POST /sessions: %s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	var out struct {
		Session string `json:"session"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		return "", err
	}
	return out.Session, nil
}

func get(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return data, nil
}

// waitSettled waits until every admitted session reached a terminal
// state.
func waitSettled(d *daemon, limit time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	return d.sched.Wait(ctx)
}

// fleetSetup is the timed set-up: boot the daemon, wait until it is
// ready, serve one session to completion, and stop it.
func fleetSetup() error {
	d, err := bootDaemon(8)
	if err != nil {
		return err
	}
	defer d.stop()
	client := newClient()
	defer client.CloseIdleConnections()
	if _, err := get(client, d.base+"/healthz/ready"); err != nil {
		return err
	}
	if _, err := submit(client, d.base, fleetMix[0]); err != nil {
		return err
	}
	return waitSettled(d, time.Minute)
}

// scrapeStats is what the scraping client measured.
type scrapeStats struct {
	latency, request, render, snapshot, bytes, series, late []float64
	backlogMax                                              float64
	attempted, failed                                       int
}

// checkRollups verifies on one scrape body that every fleet rollup is
// exactly the sum of the per-session series it rolls up.
func checkRollups(samples map[string]float64) error {
	for _, fam := range []string{"fires", "skips", "cycles"} {
		var sum float64
		prefix := "cinnamon_session_" + fam + "_total{"
		for k, v := range samples {
			if strings.HasPrefix(k, prefix) {
				sum += v
			}
		}
		if got := samples["cinnamon_fleet_"+fam+"_total"]; got != sum {
			return fmt.Errorf("cinnamon_fleet_%s_total = %v, sum of sessions = %v", fam, got, sum)
		}
	}
	return nil
}

// scrapeLoop scrapes /metrics every fleetScrapeEvery from start until
// stop closes. Traced, it also times the in-process render and the
// collector snapshots after each scrape.
func scrapeLoop(d *daemon, start time.Time, stop <-chan struct{}, tr *tracer, opBase int64) *scrapeStats {
	st := &scrapeStats{}
	client := newClient()
	defer client.CloseIdleConnections()
	for j := 0; ; j++ {
		due := start.Add(time.Duration(j) * fleetScrapeEvery)
		select {
		case <-stop:
			return st
		case <-time.After(time.Until(due)):
		}
		sent := time.Now()
		st.late = append(st.late, ms(sent.Sub(due)))
		body, err := get(client, d.base+"/metrics")
		done := time.Now()
		st.attempted++
		if err != nil {
			st.failed++
			reportMismatch("scrape", err, nil, nil)
			continue
		}
		samples := monitor.ParseSamples(string(body))
		if err := checkRollups(samples); err != nil {
			st.failed++
			reportMismatch("scrape rollups", err, nil, nil)
			continue
		}
		st.latency = append(st.latency, ms(done.Sub(due)))
		st.request = append(st.request, us(done.Sub(sent)))
		st.bytes = append(st.bytes, float64(len(body)))
		st.series = append(st.series, float64(len(samples)))
		st.backlogMax = max(st.backlogMax, samples[`cinnamon_fleet_sessions{state="queued"}`])
		if tr == nil {
			continue
		}
		op := opBase + int64(j)
		root := tr.add(op, 0, "fleet.scrape", due, done)
		tr.add(op, root, "http.metrics", sent, done)
		t0 := time.Now()
		monitor.WriteFleetMetrics(io.Discard, d.sched.Fleet())
		st.render = append(st.render, us(time.Since(t0)))
		t0 = time.Now()
		for _, s := range d.sched.Fleet().Sessions() {
			s.Collector().Snapshot(s.Labels().Backend)
		}
		st.snapshot = append(st.snapshot, us(time.Since(t0)))
	}
}

// fleetSessions is the run's session count: whole rounds of the mix,
// as close to fleetRate × duration as rounds allow.
func fleetSessions(d time.Duration, rounds int) int {
	if rounds > 0 {
		return rounds * len(fleetMix)
	}
	n := int(fleetRate*d.Seconds()/float64(len(fleetMix)) + 0.5)
	return max(n, 1) * len(fleetMix)
}

func runFleet(cfg config) (*outcome, error) {
	mix, rounds := fleetMix, 0
	if cfg.small {
		// One short round: every pair at a fortieth of its loop count.
		mix, rounds = make([]fleetJob, len(fleetMix)), 1
		for i, j := range fleetMix {
			j.loop /= 40
			mix[i] = j
		}
	}
	o := &outcome{}
	var err error
	o.setup, err = timeSetup(setupReps, fleetSetup)
	if err != nil {
		return nil, err
	}
	refs := make(map[fleetJob]fleetRef)
	for _, j := range mix {
		if refs[j], err = fleetReference(j); err != nil {
			return nil, fmt.Errorf("reference %v: %w", j, err)
		}
	}
	n := fleetSessions(cfg.duration, rounds)
	jobs := make([]fleetJob, 0, n)
	for r := 0; len(jobs) < n; r++ {
		for _, i := range shuffle(len(mix), splitmix(cfg.seed, uint64(r))) {
			jobs = append(jobs, mix[i])
		}
	}
	if cfg.trace {
		o.tr = newTracer()
	}

	d, err := bootDaemon(n + 8)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	client := newClient()
	defer client.CloseIdleConnections()
	if _, err := get(client, d.base+"/healthz/ready"); err != nil {
		return nil, err
	}

	interval := time.Duration(math.Round(float64(time.Second) / fleetRate))
	start := time.Now().Add(20 * time.Millisecond)
	stopScrapes := make(chan struct{})
	scrapes := make(chan *scrapeStats, 1)
	go func() { scrapes <- scrapeLoop(d, start, stopScrapes, o.tr, int64(n)) }()

	type submitted struct {
		id        string
		job       fleetJob
		due, sent time.Time
		resp      time.Time
	}
	subs := make([]submitted, 0, n)
	var late []float64
	for k, j := range jobs {
		due := start.Add(time.Duration(k) * interval)
		time.Sleep(time.Until(due))
		sent := time.Now()
		late = append(late, ms(sent.Sub(due)))
		id, err := submit(client, d.base, j)
		o.attempted++
		if err != nil {
			o.failed++
			reportMismatch("submit", err, nil, nil)
			continue
		}
		subs = append(subs, submitted{id, j, due, sent, time.Now()})
	}
	settleErr := waitSettled(d, 2*time.Minute)
	close(stopScrapes)
	sc := <-scrapes
	if settleErr != nil {
		return nil, fmt.Errorf("sessions did not settle: %w", settleErr)
	}
	o.attempted += sc.attempted
	o.failed += sc.failed

	data, err := get(client, d.base+"/sessions")
	if err != nil {
		return nil, err
	}
	var infos []monitor.SessionInfo
	if err := json.Unmarshal(data, &infos); err != nil {
		return nil, fmt.Errorf("GET /sessions: %w", err)
	}
	byID := make(map[string]monitor.SessionInfo, len(infos))
	for _, in := range infos {
		byID[in.Session] = in
	}
	var lat, latTraced, wait, run []float64
	restarts := 0
	for k, s := range subs {
		in, ok := byID[s.id]
		ref := refs[s.job]
		got := fleetRef{in.Cycles, in.Insts, in.Fires, in.ProbeCycles}
		if !ok || in.State != monitor.SessionDone || got != ref {
			o.failed++
			reportMismatch(fmt.Sprintf("session %s (%v) %s %s", s.id, s.job, in.State, in.Error), nil, got, ref)
			continue
		}
		restarts += in.Attempts - 1
		l := ms(in.FinishedAt.Sub(s.due))
		wait = append(wait, ms(in.StartedAt.Sub(in.EnqueuedAt)))
		run = append(run, ms(in.FinishedAt.Sub(in.StartedAt)))
		if !cfg.trace || k%2 == 0 {
			lat = append(lat, l)
			continue
		}
		latTraced = append(latTraced, l)
		op := int64(k)
		root := o.tr.add(op, 0, "fleet.session", s.due, in.FinishedAt)
		o.tr.add(op, root, "http.submit", s.sent, s.resp)
		o.tr.add(op, root, "fleet.queue", in.EnqueuedAt, in.StartedAt)
		o.tr.add(op, root, "fleet.run", in.StartedAt, in.FinishedAt)
	}

	o.opMs, o.opP90Ms = median(lat), quantile(lat, 0.9)
	o.named = []named{
		{"session_p50_ms", "ms", o.opMs},
		{"session_p90_ms", "ms", o.opP90Ms},
		{"scrape_p50_ms", "ms", median(sc.latency)},
		{"scrape_p90_ms", "ms", quantile(sc.latency, 0.9)},
		{"fleet.sessions", "count", float64(len(jobs))},
		{"fleet.scrapes", "count", float64(sc.attempted)},
	}
	if !cfg.trace {
		return o, nil
	}
	l := spanLayers(o.tr)
	o.layer = l
	if c := d.sched.Artifacts(); c != nil {
		st := c.Stats()
		l["artifacts.hits"] = float64(st.Hits())
		l["artifacts.misses"] = float64(st.Misses())
		l["artifacts.hit_ratio"] = ratio(float64(st.Hits()), float64(st.Hits()+st.Misses()))
	}
	l["fleet.queue_wait_ms_p50"] = median(wait)
	l["fleet.queue_wait_ms_p90"] = quantile(wait, 0.9)
	l["fleet.run_ms_p50"] = median(run)
	l["fleet.run_ms_p90"] = quantile(run, 0.9)
	l["fleet.restarts"] = float64(restarts)
	l["fleet.backlog_max"] = sc.backlogMax
	for _, s := range d.sched.Fleet().Sessions() {
		if g := s.Governor(); g != nil {
			st := g.State()
			l["governor.decisions"] += float64(len(st.Decisions))
			l["governor.paces"] += float64(st.Paces)
		}
	}
	l["obs.snapshot_us"] = median(sc.snapshot)
	l["monitor.render_us"] = median(sc.render)
	l["monitor.http_us"] = median(sc.request) - median(sc.render)
	l["monitor.scrape_bytes"] = median(sc.bytes)
	l["monitor.series"] = median(sc.series)
	l["loadgen.late_ms_p90"] = quantile(late, 0.9)
	l["trace.overhead_pct"] = pctDelta(median(latTraced), median(lat))
	o.named = append(o.named,
		named{"loadgen.scrape_late_ms_p90", "ms", quantile(sc.late, 0.9)},
	)
	return o, nil
}

// calibrateRounds is how many rounds of the mix calibration submits.
const calibrateRounds = 10

// calibrateFleet measures the daemon's session capacity under the
// workload's scrape traffic: calibrateRounds rounds of the mix
// submitted at once (a saturated queue), sessions completed per second
// from the first submit to the last finish.
func calibrateFleet(seed uint64) error {
	n := calibrateRounds * len(fleetMix)
	d, err := bootDaemon(n + 8)
	if err != nil {
		return err
	}
	defer d.stop()
	client := newClient()
	defer client.CloseIdleConnections()
	stopScrapes := make(chan struct{})
	scrapes := make(chan *scrapeStats, 1)
	go func() { scrapes <- scrapeLoop(d, time.Now(), stopScrapes, nil, 0) }()
	defer func() {
		close(stopScrapes)
		<-scrapes
	}()
	var first time.Time
	for r := 0; r < calibrateRounds; r++ {
		for _, i := range shuffle(len(fleetMix), splitmix(seed, uint64(r))) {
			if first.IsZero() {
				first = time.Now()
			}
			if _, err := submit(client, d.base, fleetMix[i]); err != nil {
				return err
			}
		}
	}
	if err := waitSettled(d, 5*time.Minute); err != nil {
		return err
	}
	var last time.Time
	for _, s := range d.sched.Fleet().Sessions() {
		if in := s.Info(); in.FinishedAt.After(last) {
			last = in.FinishedAt
		}
	}
	capacity := float64(n) / last.Sub(first).Seconds()
	fmt.Printf("fleet capacity: %d sessions in %.2fs = %.2f sessions/s; 60%% = %.2f sessions/s\n",
		n, last.Sub(first).Seconds(), capacity, 0.6*capacity)
	return nil
}
