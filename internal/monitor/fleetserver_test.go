package monitor

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// A fleet of one serves its run's live state: liveness, the session's
// stats snapshot, its series, and conformant monotone scrapes.
func TestEndpointsServeLiveState(t *testing.T) {
	col := obs.New(obs.Options{TraceCap: 8})
	id := col.RegisterProbe(obs.ProbeMeta{Label: "hot", Trigger: obs.TriggerBefore, Mechanism: obs.MechCleanCall})
	series := obs.NewSeries(col, "vm", obs.SeriesOptions{Interval: time.Second})
	f, sess := fleetOfOne(t, col, "vm", series)
	sess.Start()
	ts := httptest.NewServer(NewFleetServer(FleetConfig{Fleet: f}).Handler())
	defer ts.Close()

	if code, body := get(t, ts.URL+"/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	col.Fire(id, 5, 0x40)
	code, body := get(t, ts.URL+"/sessions/s1/stats")
	if code != 200 {
		t.Fatalf("/sessions/s1/stats = %d", code)
	}
	var stats obs.Stats
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatalf("/sessions/s1/stats not JSON: %v", err)
	}
	if stats.Backend != "vm" || stats.TotalFires != 1 || len(stats.Probes) != 1 {
		t.Fatalf("/sessions/s1/stats = %+v", stats)
	}

	// The series endpoint reflects sampler points (driven manually here;
	// the session's owner starts the ticker in live use).
	series.Sample(time.Second)
	code, body = get(t, ts.URL+"/series")
	if code != 200 {
		t.Fatalf("/series = %d", code)
	}
	var dump FleetSeriesDump
	if err := json.Unmarshal([]byte(body), &dump); err != nil {
		t.Fatalf("/series not JSON: %v", err)
	}
	if len(dump.Sessions) != 1 {
		t.Fatalf("/series = %+v", dump)
	}
	if d := dump.Sessions[0].Series; d.Backend != "vm" || len(d.Points) != 1 || d.Points[0].Total.Fires != 1 {
		t.Fatalf("/series session = %+v", d)
	}
	if dump.Last.Fires != 1 {
		t.Fatalf("/series last = %+v, want the running session's point", dump.Last)
	}

	// Two /metrics scrapes with activity in between: conformant and
	// monotone at the HTTP level.
	_, m1 := get(t, ts.URL+"/metrics")
	first := checkExposition(t, m1)
	for i := 0; i < 10; i++ {
		col.Fire(id, 5, 0x40)
	}
	_, m2 := get(t, ts.URL+"/metrics")
	second := checkExposition(t, m2)
	for key, v1 := range first {
		if strings.Contains(key, "_total") && second[key] < v1 {
			t.Errorf("counter %s decreased across scrapes: %v -> %v", key, v1, second[key])
		}
	}
	key := `cinnamon_probe_fires_total{` + one + `"vm",probe="hot",trigger="before",mechanism="clean-call"}`
	if second[key] != first[key]+10 {
		t.Fatalf("scrape delta = %v -> %v, want +10", first[key], second[key])
	}
}

// sseEvent is one parsed SSE frame.
type sseEvent struct {
	name, data string
}

func readSSE(t *testing.T, r *bufio.Reader) sseEvent {
	t.Helper()
	var ev sseEvent
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("SSE stream ended: %v", err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			ev.name = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			ev.data = line[len("data: "):]
		case line == "":
			if ev.name != "" || ev.data != "" {
				return ev
			}
		}
	}
}

func TestTraceSSEStreamsEventsAndAccountsDrops(t *testing.T) {
	col := obs.New(obs.Options{TraceCap: 8})
	id := col.RegisterProbe(obs.ProbeMeta{Label: "hot", Trigger: obs.TriggerBefore, Mechanism: obs.MechInlinedCall})
	f, _ := fleetOfOne(t, col, "vm", nil)
	// A one-event buffer plus a fast heartbeat makes slow-client drops
	// both quick to provoke and quick to observe.
	s := NewFleetServer(FleetConfig{Fleet: f, TraceBuf: 1, Heartbeat: 10 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	br := bufio.NewReader(resp.Body)

	// Wait for the handler's subscription to attach.
	deadline := time.Now().Add(5 * time.Second)
	for col.Subscribers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscription never attached")
		}
		time.Sleep(time.Millisecond)
	}

	// Fire until the one-slot buffer demonstrably overflowed. The run
	// side never blocks: this loop is the VM's hot path standing in.
	fired := 0
	for col.SubscriberDrops() == 0 {
		col.Fire(id, 2, uint64(fired))
		fired++
		if fired > 1_000_000 {
			t.Fatal("no drops after 1M fires with a 1-buffer subscriber")
		}
	}

	// The stream must deliver real fire events and a heartbeat whose
	// drop count surfaces the overflow.
	sawFire := false
	var hb fleetHeartbeat
	for i := 0; i < 1000; i++ {
		ev := readSSE(t, br)
		switch ev.name {
		case "fire":
			var te FleetTraceEvent
			if err := json.Unmarshal([]byte(ev.data), &te); err != nil {
				t.Fatalf("fire event not JSON: %q", ev.data)
			}
			if te.Session != "s1" || te.Probe != 1 || te.Cost != 2 {
				t.Fatalf("fire event = %+v", te)
			}
			sawFire = true
		case "heartbeat":
			if err := json.Unmarshal([]byte(ev.data), &hb); err != nil {
				t.Fatalf("heartbeat not JSON: %q", ev.data)
			}
			if sawFire && hb.Dropped >= 1 {
				if hb.Sessions != 1 || col.Subscribers() != 1 {
					t.Fatalf("heartbeat sessions = %d, collector subscribers = %d, want 1 and 1",
						hb.Sessions, col.Subscribers())
				}
				// Disconnect; the handler must unsubscribe and fold its
				// drops into the collector's monotone total.
				resp.Body.Close()
				deadline := time.Now().Add(5 * time.Second)
				for col.Subscribers() != 0 {
					if time.Now().After(deadline) {
						t.Fatal("handler never unsubscribed after disconnect")
					}
					time.Sleep(time.Millisecond)
				}
				if col.SubscriberDrops() < hb.Dropped {
					t.Fatalf("retired drops %d < last heartbeat %d", col.SubscriberDrops(), hb.Dropped)
				}
				return
			}
		}
	}
	t.Fatalf("never observed fire + heartbeat-with-drops (sawFire=%v, last hb=%+v)", sawFire, hb)
}

func TestStartServesAndShutdownReleasesStreams(t *testing.T) {
	col := obs.New(obs.Options{TraceCap: 8})
	col.RegisterProbe(obs.ProbeMeta{Label: "p", Trigger: obs.TriggerBefore, Mechanism: obs.MechCleanCall})
	series := obs.NewSeries(col, "vm", obs.SeriesOptions{Interval: 10 * time.Millisecond})
	f, _ := fleetOfOne(t, col, "vm", series)
	s := NewFleetServer(FleetConfig{Fleet: f, Heartbeat: 10 * time.Millisecond})

	// The session's owner runs its sampler; the server only reads it.
	series.Start()
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr

	if code, body := get(t, base+"/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	// Hold an SSE stream open across shutdown: Shutdown must release the
	// handler (via the quit channel) rather than hanging on the drain.
	resp, err := http.Get(base + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	readSSE(t, bufio.NewReader(resp.Body)) // at least one heartbeat flows

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.Shutdown(ctx) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(4 * time.Second):
		t.Fatal("Shutdown hung on the open SSE stream")
	}

	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("server still serving after Shutdown")
	}
	// The sampler took its final point and stopped.
	series.Stop()
	if len(series.Points()) == 0 {
		t.Fatal("series has no points after a 10ms-interval run")
	}
}

// The started server bounds connections that stall before or between
// requests, and leaves responses unbounded so /trace can stream.
func TestStartBoundsStalledConnections(t *testing.T) {
	s := NewFleetServer(FleetConfig{Fleet: NewFleet()})
	if _, err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	if s.srv.ReadHeaderTimeout <= 0 || s.srv.IdleTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout=%v IdleTimeout=%v, want both bounded", s.srv.ReadHeaderTimeout, s.srv.IdleTimeout)
	}
	if s.srv.WriteTimeout != 0 {
		t.Errorf("WriteTimeout=%v would cut /trace streams", s.srv.WriteTimeout)
	}
}
