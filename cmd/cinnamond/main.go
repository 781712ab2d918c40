// Command cinnamond is the fleet-scale monitoring daemon: a long-lived
// process that schedules concurrent victim×tool sessions over a bounded
// worker pool and serves the aggregated fleet view over HTTP.
//
//	cinnamond -listen 127.0.0.1:9137 -workers 8
//	cinnamond -manifest fleet.json -workers 32 -drain-timeout 10s
//	curl -s -X POST localhost:9137/sessions \
//	     -d '{"tool":"instcount_basic","victim":"spin","backend":"janus","loop":200000}'
//	curl -s localhost:9137/metrics | grep cinnamon_fleet_fires_total
//
// Every session gets its own sharded collector, interval series and
// (optionally) overhead governor; /metrics exposes every session under
// session/tool/victim/backend labels plus cinnamon_fleet_* rollups that
// are exactly the sum of the per-session series, and
// /sessions/{id}/stats and /sessions/{id}/governor inspect and steer one
// session. SIGTERM and SIGINT
// drain gracefully: admission stops (/healthz/ready turns 503), queued
// sessions are canceled, running sessions finish or are cooperatively
// cancelled at the -drain-timeout deadline, then the listener closes.
// See docs/FLEET.md.
package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/monitor"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

func main() {
	reg, opts := fleet.CLIFlags()
	reg.FS.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: cinnamond [flags]")
		reg.Usage(os.Stderr)
	}
	_ = reg.FS.Parse(os.Args[1:])
	if reg.FS.NArg() != 0 {
		reg.FS.Usage()
		os.Exit(1)
	}

	sched := fleet.NewScheduler(fleet.Config{
		Workers:         *opts.Workers,
		Queue:           *opts.Queue,
		Interval:        *opts.Interval,
		DefaultLoop:     *opts.Loop,
		NoArtifactCache: !*opts.ArtifactCache,
	})
	fcfg := monitor.FleetConfig{
		Fleet:    sched.Fleet(),
		Ready:    sched.Accepting,
		Submit:   sched.SubmitJSON,
		TraceBuf: *opts.TraceBuf,
	}
	if sched.Artifacts() != nil {
		fcfg.Artifacts = sched.ArtifactStats
	}
	srv := monitor.NewFleetServer(fcfg)
	addr, err := srv.Start(*opts.Listen)
	if err != nil {
		fail("cinnamond: %v", err)
	}
	// The announce line is the smoke-test handshake (scripts/fleetsmoke
	// scans stderr for it); keep its shape stable.
	fmt.Fprintf(os.Stderr, "cinnamond: fleet monitor listening on http://%s\n", addr)

	if *opts.Manifest != "" {
		data, err := os.ReadFile(*opts.Manifest)
		if err != nil {
			fail("cinnamond: %v", err)
		}
		specs, err := fleet.ParseManifest(data)
		if err != nil {
			fail("cinnamond: %v", err)
		}
		for i, spec := range specs {
			sess, err := sched.Submit(spec)
			if err != nil {
				fail("cinnamond: manifest job %d: %v", i, err)
			}
			fmt.Fprintf(os.Stderr, "cinnamond: queued %s: %s on %s (%s)\n",
				sess.Labels().Session, sess.Labels().Tool, sess.Labels().Victim, sess.Labels().Backend)
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Fprintf(os.Stderr, "cinnamond: draining (deadline %s)\n", *opts.DrainTimeout)

	ctx, cancel := context.WithTimeout(context.Background(), *opts.DrainTimeout)
	drainErr := sched.Drain(ctx)
	cancel()

	shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
	_ = srv.Shutdown(shutCtx)
	shutCancel()

	counts := sched.Fleet().StateCounts()
	fmt.Fprintf(os.Stderr, "cinnamond: drained: %d done, %d failed, %d canceled\n",
		counts[monitor.SessionDone], counts[monitor.SessionFailed], counts[monitor.SessionCanceled])
	if drainErr != nil {
		fmt.Fprintf(os.Stderr, "cinnamond: drain deadline hit: %v\n", drainErr)
	}
}
