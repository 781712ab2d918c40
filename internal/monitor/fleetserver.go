// Package monitor serves live observability for instrumented runs over
// HTTP, backed by the concurrent-safe read path of internal/obs, so a
// run never blocks on an observer. A Fleet registers sessions — each
// with its own collector, interval series and optional overhead
// governor — and a FleetServer serves them: the cinnamond daemon's
// many scheduled jobs, or the single run of `cinnamon -listen`, which
// is a fleet of one (session s1).
//
// Endpoints:
//
//	GET  /metrics                 Prometheus text exposition: every
//	                              session under session/tool/victim/
//	                              backend labels, plus exact
//	                              cinnamon_fleet_* rollups
//	GET  /series                  every session's interval series plus
//	                              the running sessions' summed last rates
//	GET  /sessions                lifecycle of every session
//	                              (?session=ID for one)
//	POST /sessions                submit a job to the scheduler
//	GET  /sessions/{id}/stats     the session's full obs.Stats snapshot
//	                              (governor state embedded when governed)
//	GET  /sessions/{id}/governor  the session's overhead-governor state:
//	                              budget, window overheads, per-probe
//	                              strides, the decision log
//	POST /sessions/{id}/governor  a control command
//	                              ({"probe":N,"action":"rearm"}),
//	                              mailboxed and applied at the governor's
//	                              next pace point on the run goroutine
//	GET  /trace                   SSE stream of every session's firing
//	                              events, tagged with the session, with
//	                              heartbeats carrying the stream's drop
//	                              count (slow clients lose events, never
//	                              stall a run)
//	GET  /healthz                 liveness (alias of /healthz/live)
//	GET  /healthz/live            liveness: the process serves HTTP
//	GET  /healthz/ready           readiness: 503 while draining
package monitor

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/governor"
	"repro/internal/obs"
)

// FleetConfig parameterizes a FleetServer.
type FleetConfig struct {
	// Fleet is the session registry being served. Required.
	Fleet *Fleet
	// Ready reports whether the session scheduler is accepting work;
	// /healthz/ready turns 503 when it returns false (the drain window).
	// nil means always ready.
	Ready func() bool
	// Submit handles a POST /sessions job body and returns the
	// JSON-encodable response (the scheduler injects itself here so
	// monitor never imports internal/fleet). nil disables submission:
	// POST answers 405.
	Submit func(body []byte) (any, error)
	// Heartbeat is the SSE keep-alive period (default 1s). The /trace
	// multiplexer also discovers newly registered sessions on this tick.
	Heartbeat time.Duration
	// TraceBuf is the per-tap and merged-stream channel depth (default
	// 256). Events a slow consumer cannot take are dropped at the
	// session's collector and accounted.
	TraceBuf int
	// Artifacts, when non-nil, supplies the scheduler's artifact-cache
	// counters; /metrics then appends the cinnamon_artifact_* families
	// after the fleet document. nil omits them.
	Artifacts func() ArtifactStats
}

// Connection bounds of the HTTP server: a client that never finishes
// its request headers, or parks an idle keep-alive connection, is
// disconnected instead of holding a connection and its goroutine
// forever. There is deliberately no write timeout, because /trace
// streams for as long as its client listens.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// FleetServer serves a Fleet's sessions over HTTP (the endpoints are
// listed in the package documentation).
type FleetServer struct {
	cfg  FleetConfig
	srv  *http.Server
	quit chan struct{}
}

// NewFleetServer creates the aggregation server over the registry.
func NewFleetServer(cfg FleetConfig) *FleetServer {
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = time.Second
	}
	if cfg.TraceBuf <= 0 {
		cfg.TraceBuf = 256
	}
	return &FleetServer{cfg: cfg, quit: make(chan struct{})}
}

// Handler returns the fleet endpoint mux.
func (s *FleetServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/series", s.handleSeries)
	mux.HandleFunc("/sessions", s.handleSessions)
	mux.HandleFunc("GET /sessions/{id}/stats", s.handleStats)
	mux.HandleFunc("/sessions/{id}/governor", s.handleGovernor)
	mux.HandleFunc("/trace", s.handleTrace)
	mux.HandleFunc("/healthz", s.handleLive)
	mux.HandleFunc("/healthz/live", s.handleLive)
	mux.HandleFunc("/healthz/ready", s.handleReady)
	return mux
}

// Start binds addr (host:port; port 0 picks a free one) and serves in a
// background goroutine, returning the bound address. Shutdown must be
// called to stop.
func (s *FleetServer) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("monitor: listen %s: %w", addr, err)
	}
	s.srv = &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	go func() { _ = s.srv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Shutdown stops the server: streaming handlers are released and
// in-flight requests drain, bounded by ctx. Only valid after Start.
func (s *FleetServer) Shutdown(ctx context.Context) error {
	close(s.quit)
	return s.srv.Shutdown(ctx)
}

func (s *FleetServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WriteFleetMetrics(w, s.cfg.Fleet)
	if s.cfg.Artifacts != nil {
		writeArtifactMetrics(w, s.cfg.Artifacts())
	}
}

// SessionSeries is one session's interval series in the fleet /series
// document.
type SessionSeries struct {
	SessionLabels
	State  SessionState    `json:"state"`
	Series *obs.SeriesDump `json:"series"`
}

// FleetSeriesDump is the fleet /series document: every session's dump
// plus the merged most-recent rates.
type FleetSeriesDump struct {
	Sessions []SessionSeries `json:"sessions"`
	// Last sums the most recent point of every running session's
	// series: the fleet's current aggregate rates. Finished sessions
	// keep their series but no longer contribute.
	Last obs.Rate `json:"last"`
}

func (s *FleetServer) handleSeries(w http.ResponseWriter, r *http.Request) {
	dump := FleetSeriesDump{Sessions: []SessionSeries{}}
	for _, sess := range s.cfg.Fleet.Sessions() {
		ser := sess.Series()
		if ser == nil {
			continue
		}
		state := sess.State()
		dump.Sessions = append(dump.Sessions, SessionSeries{
			SessionLabels: sess.Labels(),
			State:         state,
			Series:        ser.Dump(),
		})
		if p, ok := ser.Last(); ok && state == SessionRunning {
			dump.Last.Fires += p.Total.Fires
			dump.Last.Cycles += p.Total.Cycles
			dump.Last.FiresPerSec += p.Total.FiresPerSec
			dump.Last.CyclesPerSec += p.Total.CyclesPerSec
		}
	}
	writeJSON(w, http.StatusOK, dump)
}

// writeJSON answers with an indented JSON document.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// lookup resolves a session ID, answering 404 for an unknown one.
func (s *FleetServer) lookup(w http.ResponseWriter, id string) (*FleetSession, bool) {
	sess, ok := s.cfg.Fleet.Get(id)
	if !ok {
		http.Error(w, fmt.Sprintf("no session %q", id), http.StatusNotFound)
	}
	return sess, ok
}

// handleSessions serves the lifecycle view (GET; ?session=ID narrows to
// one) and job submission (POST, delegated to the scheduler).
func (s *FleetServer) handleSessions(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		if id := r.URL.Query().Get("session"); id != "" {
			if sess, ok := s.lookup(w, id); ok {
				writeJSON(w, http.StatusOK, sess.Info())
			}
			return
		}
		infos := []SessionInfo{}
		for _, sess := range s.cfg.Fleet.Sessions() {
			infos = append(infos, sess.Info())
		}
		writeJSON(w, http.StatusOK, infos)
	case http.MethodPost:
		if s.cfg.Submit == nil {
			http.Error(w, "session submission disabled", http.StatusMethodNotAllowed)
			return
		}
		if s.cfg.Ready != nil && !s.cfg.Ready() {
			http.Error(w, "draining: not accepting sessions", http.StatusServiceUnavailable)
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
		if err != nil {
			http.Error(w, fmt.Sprintf("bad body: %v", err), http.StatusBadRequest)
			return
		}
		resp, err := s.cfg.Submit(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, http.StatusAccepted, resp)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// handleStats serves one session's full obs.Stats snapshot, with its
// governor's state embedded when the session is governed.
func (s *FleetServer) handleStats(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(w, r.PathValue("id"))
	if !ok {
		return
	}
	snap := sess.Collector().Snapshot(sess.Labels().Backend)
	if g := sess.Governor(); g != nil {
		snap.Governor = g.State()
	}
	w.Header().Set("Content-Type", "application/json")
	_ = snap.WriteJSON(w)
}

// handleGovernor serves one session's overhead governor: GET returns
// its state (budget, window overheads, per-probe strides and the
// replayable decision log), POST mailboxes a control command — the
// mutation itself happens at the governor's next pace point, on the run
// goroutine, where adaptive-probe control is legal.
func (s *FleetServer) handleGovernor(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(w, r.PathValue("id"))
	if !ok {
		return
	}
	g := sess.Governor()
	if g == nil {
		http.Error(w, "session has no governor (run with a budget)", http.StatusNotFound)
		return
	}
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, g.State())
	case http.MethodPost:
		var cmd governor.Command
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&cmd); err != nil {
			http.Error(w, fmt.Sprintf("bad command: %v", err), http.StatusBadRequest)
			return
		}
		switch cmd.Action {
		case "rearm", "eject", "stride":
		default:
			http.Error(w, fmt.Sprintf("bad action %q (want rearm, eject or stride)", cmd.Action), http.StatusBadRequest)
			return
		}
		g.Enqueue(cmd)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"queued"}`)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (s *FleetServer) handleLive(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *FleetServer) handleReady(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	ready := true
	select {
	case <-s.quit:
		ready = false
	default:
		if s.cfg.Ready != nil {
			ready = s.cfg.Ready()
		}
	}
	if !ready {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

// FleetTraceEvent is one multiplexed /trace event: the firing plus the
// session it came from.
type FleetTraceEvent struct {
	Session string `json:"session"`
	obs.TraceEvent
}

// fleetHeartbeat rides on the multiplexed stream's keep-alives: how
// many sessions are tapped and how many events this subscriber has
// missed across them, monotone for the life of the stream.
type fleetHeartbeat struct {
	Sessions int    `json:"sessions"`
	Dropped  uint64 `json:"dropped"`
}

// handleTrace multiplexes every session's firing stream into one SSE
// stream. Each session gets a bounded tap (obs.Subscribe) pumped into a
// shared merge channel; events carry the session label. Sessions
// registered after the stream opened are tapped at the next heartbeat
// tick. A slow client backs up the pumps, never a run: the collector's
// non-blocking send drops what a full tap cannot take, and counts it,
// so every lost event shows in the heartbeat and in the session's
// cinnamon_trace_subscriber_dropped_total.
func (s *FleetServer) handleTrace(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}

	type tap struct {
		col *obs.Collector
		sub *obs.Subscription
		ch  chan obs.TraceEvent
	}
	merged := make(chan FleetTraceEvent, s.cfg.TraceBuf)
	stop := make(chan struct{})
	taps := map[string]*tap{} // touched only by this handler goroutine

	attach := func() {
		for _, sess := range s.cfg.Fleet.Sessions() {
			id := sess.Labels().Session
			if _, seen := taps[id]; seen {
				continue
			}
			t := &tap{col: sess.Collector(), ch: make(chan obs.TraceEvent, s.cfg.TraceBuf)}
			t.sub = t.col.Subscribe(t.ch)
			taps[id] = t
			go func(id string, t *tap) {
				for {
					select {
					case <-stop:
						return
					case ev := <-t.ch:
						select {
						case merged <- FleetTraceEvent{Session: id, TraceEvent: ev}:
						case <-stop:
							return
						}
					}
				}
			}(id, t)
		}
	}
	defer func() {
		close(stop)
		for _, t := range taps {
			t.col.Unsubscribe(t.sub)
		}
	}()
	attach()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	tick := time.NewTicker(s.cfg.Heartbeat)
	defer tick.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-r.Context().Done():
			return
		case ev := <-merged:
			data, _ := json.Marshal(ev)
			fmt.Fprintf(w, "event: fire\ndata: %s\n\n", data)
			flusher.Flush()
		case <-tick.C:
			attach()
			var dropped uint64
			for _, t := range taps {
				dropped += t.sub.Dropped()
			}
			data, _ := json.Marshal(fleetHeartbeat{Sessions: len(taps), Dropped: dropped})
			fmt.Fprintf(w, "event: heartbeat\ndata: %s\n\n", data)
			flusher.Flush()
		}
	}
}
