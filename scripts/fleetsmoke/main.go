// Command fleetsmoke is the CI smoke test for the monitoring server,
// driven the way an operator drives it — real binaries, real flags,
// real HTTP — so a wiring regression in cmd/cinnamond or cmd/cinnamon
// fails CI even if every package test passes. It runs two phases:
//
//   - daemon: builds cinnamond, boots it on an ephemeral port, submits 8
//     sessions over the real POST /sessions API, waits for them to
//     settle, scrapes /metrics and asserts the fleet rollups are exactly
//     the sum of the per-session series, checks the lifecycle and
//     readiness endpoints, asserts the shared artifact cache surfaced
//     hits/misses in /metrics and cold/warm build sources in /sessions,
//     and finally SIGTERMs the daemon and verifies it drains and exits
//     cleanly.
//   - single run: builds cinnamon and starts a live-monitored session
//     (looping victim, -listen on an ephemeral port), which serves its
//     run as session s1 of a fleet of one; scrapes /healthz and
//     /metrics, reads one event off the SSE /trace stream, reads
//     /sessions/s1/stats, then kills the session and verifies it dies
//     cleanly.
//
// Run from the repository root (scripts/ci.sh does):
//
//	go run ./scripts/fleetsmoke
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const sessions = 8

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "fleetsmoke: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("fleetsmoke: OK")
}

func run() error {
	tmp, err := os.MkdirTemp("", "fleetsmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	if err := daemonPhase(tmp); err != nil {
		return fmt.Errorf("cinnamond: %w", err)
	}
	if err := singleRunPhase(tmp); err != nil {
		return fmt.Errorf("cinnamon -listen: %w", err)
	}
	return nil
}

// start builds the command package pkg into dir, starts it with args
// and returns the process plus the base URL it announced on stderr
// after marker.
func start(dir, pkg, marker string, args ...string) (*exec.Cmd, string, error) {
	bin := filepath.Join(dir, filepath.Base(pkg))
	if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
		return nil, "", fmt.Errorf("build %s: %v\n%s", pkg, err, out)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = io.Discard
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, "", err
	}
	if err := cmd.Start(); err != nil {
		return nil, "", err
	}
	addr, err := scanAddr(stderr, marker)
	if err != nil {
		cmd.Process.Kill()
		cmd.Wait()
		return nil, "", err
	}
	return cmd, "http://" + addr, nil
}

// daemonPhase drives cinnamond through submission, settling, scraping
// and a SIGTERM drain.
func daemonPhase(tmp string) error {
	cmd, base, err := start(tmp, "./cmd/cinnamond", "fleet monitor listening on http://",
		"-listen=127.0.0.1:0", "-workers=4", "-interval=100ms", "-drain-timeout=10s")
	if err != nil {
		return err
	}
	defer cmd.Process.Kill()

	if err := expectStatus(base+"/healthz/live", http.StatusOK); err != nil {
		return err
	}
	if err := expectStatus(base+"/healthz/ready", http.StatusOK); err != nil {
		return err
	}

	// Submit the sessions over the real API: a mix of tools, one
	// governed, all on the load-harness victim.
	tools := []string{"instcount_basic", "opcodemix", "loopcoverage"}
	for i := 0; i < sessions; i++ {
		job := fmt.Sprintf(`{"tool":"%s","victim":"spin","backend":"janus","loop":3000}`, tools[i%len(tools)])
		if i == sessions-1 {
			job = `{"tool":"instcount_basic","victim":"spin","loop":3000,"budget":"5%"}`
		}
		resp, err := http.Post(base+"/sessions", "application/json", strings.NewReader(job))
		if err != nil {
			return fmt.Errorf("POST /sessions: %w", err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			return fmt.Errorf("POST /sessions: status %d: %s", resp.StatusCode, body)
		}
	}
	// A bad job must be rejected with a useful status.
	resp, err := http.Post(base+"/sessions", "application/json", strings.NewReader(`{"tool":"nope","victim":"spin"}`))
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		return fmt.Errorf("bad job: status %d, want 400", resp.StatusCode)
	}

	// Wait for every session to settle done.
	deadline := time.Now().Add(60 * time.Second)
	for {
		infos, err := getSessions(base)
		if err != nil {
			return err
		}
		done := 0
		for _, info := range infos {
			switch info.State {
			case "done":
				done++
			case "failed", "canceled":
				return fmt.Errorf("session %s settled %s: %s", info.Session, info.State, info.Error)
			}
		}
		if len(infos) == sessions && done == sessions {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("sessions never settled: %+v", infos)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// Scrape and assert rollup exactness: the fleet counter must equal
	// the sum of the per-session series, to the digit.
	metrics, err := get(base + "/metrics")
	if err != nil {
		return err
	}
	series := parseSamples(metrics)
	var sum float64
	nSess := 0
	for key, v := range series {
		if strings.HasPrefix(key, "cinnamon_session_fires_total{") {
			sum += v
			nSess++
		}
	}
	fleetTotal := series["cinnamon_fleet_fires_total"]
	if nSess != sessions {
		return fmt.Errorf("/metrics shows %d session series, want %d:\n%s", nSess, sessions, metrics)
	}
	if fleetTotal == 0 || math.Abs(fleetTotal-sum) > 0 {
		return fmt.Errorf("fleet rollup %v != session sum %v", fleetTotal, sum)
	}
	if !strings.Contains(metrics, `session="s1"`) || !strings.Contains(metrics, `victim="spin"`) {
		return fmt.Errorf("/metrics missing session labels:\n%s", metrics)
	}
	// The governed session exposes its budget.
	if series[`cinnamon_governor_budget{session="s8",tool="instcount_basic",victim="spin",backend="janus"}`] != 0.05 {
		return fmt.Errorf("governed session budget missing from /metrics")
	}
	// The shared artifact cache exposes its counters: the 8-session mix
	// over 3 tools must have recorded both misses (first builds) and
	// hits (reuse), and the cache must hold the tools it compiled.
	if series[`cinnamon_artifact_misses_total{kind="tool"}`] == 0 {
		return fmt.Errorf("cinnamon_artifact_misses_total{kind=\"tool\"} is zero after the churn:\n%s", metrics)
	}
	if series[`cinnamon_artifact_hits_total{kind="tool"}`] == 0 || series[`cinnamon_artifact_hits_total{kind="victim"}`] == 0 {
		return fmt.Errorf("cinnamon_artifact_hits_total shows no reuse after the churn:\n%s", metrics)
	}
	if series[`cinnamon_artifact_entries{kind="tool"}`] < 1 || series[`cinnamon_artifact_entries{kind="victim"}`] < 1 {
		return fmt.Errorf("cinnamon_artifact_entries families missing from /metrics:\n%s", metrics)
	}

	// Warm-start lifecycle: with every artifact now cached, a duplicate
	// of session s1 must report build_source "warm" in /sessions, while
	// s1 itself (first to build its tool) stays "cold".
	resp, err = http.Post(base+"/sessions", "application/json",
		strings.NewReader(`{"tool":"instcount_basic","victim":"spin","backend":"janus","loop":3000}`))
	if err != nil {
		return fmt.Errorf("POST /sessions (warm duplicate): %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("warm duplicate: status %d, want 202", resp.StatusCode)
	}
	deadline = time.Now().Add(60 * time.Second)
	for {
		infos, err := getSessions(base)
		if err != nil {
			return err
		}
		var s1, dup *sessionInfo
		for i := range infos {
			switch infos[i].Session {
			case "s1":
				s1 = &infos[i]
			case fmt.Sprintf("s%d", sessions+1):
				dup = &infos[i]
			}
		}
		if dup != nil && dup.State == "done" {
			if dup.BuildSource != "warm" {
				return fmt.Errorf("duplicate session build_source = %q, want \"warm\"", dup.BuildSource)
			}
			if s1 == nil || s1.BuildSource != "cold" {
				return fmt.Errorf("session s1 build_source = %+v, want \"cold\"", s1)
			}
			break
		}
		if dup != nil && (dup.State == "failed" || dup.State == "canceled") {
			return fmt.Errorf("duplicate session settled %s: %s", dup.State, dup.Error)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("duplicate session never settled")
		}
		time.Sleep(100 * time.Millisecond)
	}

	// SIGTERM: the daemon must flip readiness, drain and exit cleanly.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	waitDone := make(chan error, 1)
	go func() { waitDone <- cmd.Wait() }()
	select {
	case err := <-waitDone:
		if err != nil {
			return fmt.Errorf("cinnamond exited with: %v", err)
		}
	case <-time.After(30 * time.Second):
		return fmt.Errorf("cinnamond did not exit within 30s of SIGTERM")
	}
	return nil
}

// singleRunPhase drives one live-monitored cinnamon run: a fleet of one.
func singleRunPhase(tmp string) error {
	// A long-looping victim so the session outlives the smoke checks.
	cmd, base, err := start(tmp, "./cmd/cinnamon", "monitor listening on http://",
		"-backend=pin", "-target=victim:uaf_bug",
		"-listen=127.0.0.1:0", "-interval=100ms", "-loop=2000000",
		"@useafterfree")
	if err != nil {
		return err
	}
	defer cmd.Process.Kill()

	body, err := get(base + "/healthz")
	if err != nil {
		return err
	}
	if !strings.Contains(body, "ok") {
		return fmt.Errorf("/healthz: got %q, want ok", body)
	}
	// The monitor comes up before the instrumented run starts, so the
	// first scrapes may predate probe registration; poll until the run
	// is visibly firing.
	deadline := time.Now().Add(30 * time.Second)
	var metrics string
	for {
		metrics, err = get(base + "/metrics")
		if err != nil {
			return err
		}
		if strings.Contains(metrics, "# TYPE cinnamon_probe_fires_total counter") {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("/metrics never showed probe fires:\n%s", metrics)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !strings.Contains(metrics, `session="s1"`) || !strings.Contains(metrics, `backend="pin"`) {
		return fmt.Errorf("/metrics missing the session s1 labels:\n%s", metrics)
	}

	if err := readOneSSEEvent(base + "/trace"); err != nil {
		return err
	}

	body, err = get(base + "/sessions/s1/stats")
	if err != nil {
		return err
	}
	var stats struct {
		Backend    string `json:"backend"`
		TotalFires uint64 `json:"total_fires"`
	}
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		return fmt.Errorf("/sessions/s1/stats: %v (%s)", err, body)
	}
	if stats.Backend != "pin" || stats.TotalFires == 0 {
		return fmt.Errorf("/sessions/s1/stats = %+v, want a firing pin session", stats)
	}

	// Clean shutdown: the process must die on signal, not hang on the
	// monitor server.
	if err := cmd.Process.Kill(); err != nil {
		return err
	}
	done := make(chan struct{})
	go func() { cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		return fmt.Errorf("session did not exit within 10s of kill")
	}
	return nil
}

type sessionInfo struct {
	Session     string `json:"session"`
	State       string `json:"state"`
	Error       string `json:"error"`
	BuildSource string `json:"build_source"`
}

func getSessions(base string) ([]sessionInfo, error) {
	body, err := get(base + "/sessions")
	if err != nil {
		return nil, err
	}
	var infos []sessionInfo
	if err := json.Unmarshal([]byte(body), &infos); err != nil {
		return nil, fmt.Errorf("GET /sessions: %v (%s)", err, body)
	}
	return infos, nil
}

// parseSamples extracts series -> value from text exposition (the same
// shape monitor.ParseSamples implements; duplicated here so the smoke
// binary stays a pure HTTP client of the daemon).
func parseSamples(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// scanAddr reads a process's stderr until it announces its bound
// address after marker.
func scanAddr(stderr io.Reader, marker string) (string, error) {
	type res struct {
		addr string
		err  error
	}
	ch := make(chan res, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, marker); i >= 0 {
				ch <- res{addr: strings.TrimSpace(line[i+len(marker):])}
				// Keep draining so the process never blocks on stderr.
				for sc.Scan() {
				}
				return
			}
		}
		ch <- res{err: fmt.Errorf("address never announced (stderr closed)")}
	}()
	select {
	case r := <-ch:
		return r.addr, r.err
	case <-time.After(30 * time.Second):
		return "", fmt.Errorf("timed out waiting for the monitor address")
	}
}

func get(url string) (string, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return "", fmt.Errorf("GET %s: %w", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("GET %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(b), nil
}

func expectStatus(url string, want int) error {
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	resp.Body.Close()
	if resp.StatusCode != want {
		return fmt.Errorf("GET %s: status %d, want %d", url, resp.StatusCode, want)
	}
	return nil
}

// readOneSSEEvent connects to the SSE stream and waits for one complete
// event (a probe firing or a heartbeat — either proves the stream is
// alive and framed correctly).
func readOneSSEEvent(url string) error {
	client := &http.Client{Timeout: 15 * time.Second} // bounds the body read too
	resp, err := client.Get(url)
	if err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		return fmt.Errorf("%s: Content-Type %q, want text/event-stream", url, ct)
	}
	sc := bufio.NewScanner(resp.Body)
	name := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
		case line == "" && name != "":
			if name != "fire" && name != "heartbeat" {
				return fmt.Errorf("unexpected SSE event %q", name)
			}
			return nil
		}
	}
	return fmt.Errorf("%s: no SSE event (%v)", url, sc.Err())
}
