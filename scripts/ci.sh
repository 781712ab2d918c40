#!/bin/sh
# Tier-1 gate: everything must pass before a change lands.
#
#   vet        static checks
#   gofmt      every Go file in the tree is gofmt-formatted
#   build      every package compiles
#   race test  full suite under the race detector (the bench sweeps run
#              their (benchmark x framework) cells on a worker pool, so
#              this also exercises the parallel harness for races)
#   bench      one smoke iteration of every table/figure benchmark at a
#              reduced workload scale, plus one iteration of every
#              go-test benchmark in the tree (bench-rot guard)
#   docs       package-doc + documentation-suite gate (scripts/pkgdoc),
#              the generated CLI reference (docs/CLI.md must match the
#              flag registry byte for byte), the doc-example compile
#              gate (every fenced .cin block in the docs compiles),
#              and one -stats CLI smoke run
#   governor   one reduced-scale run of the overhead-budget experiment
#              (experiments -exp=governor): the governor must bring
#              three action-heavy tools under 5% and 1% budgets
#   fleet      monitoring-server smoke (scripts/fleetsmoke): cinnamond
#              booted on an ephemeral port, 8 sessions submitted over
#              the real POST /sessions API, /metrics scraped and the
#              cinnamon_fleet_* rollups asserted exactly equal to the
#              per-session sums, then SIGTERM and a clean drain; then a
#              looping victim under cinnamon -listen (a fleet of one),
#              scraped over real HTTP (/healthz, /metrics, one SSE
#              event, /sessions/s1/stats) and killed cleanly
#   perfbench  the benchmark module (perfbench/, its own Go module, so
#              the root build never compiles it): vet plus its smoke
#              and BENCHMARK.json-consistency tests
#   conform    differential conformance sweep (cmd/conformance): 200
#              seeded generated (program, victim) pairs cross-checked
#              over all three backends and both execution tiers; any
#              divergence the oracle cannot classify as one of the
#              paper's legal divergences fails the gate. The checked-in
#              regression corpus replays inside `go test` above.
#   perf       the CINNAMON_PERF_GATE gates, last, after every
#              correctness step. Probe dispatch (non-race; see
#              internal/vm/obs_test.go and translate_test.go): disabled
#              path vs the pre-observability loop, enabled path vs
#              plain-counter accounting, the translated VM tier vs the
#              interpreter on the probe-free hot-block workload, the
#              action-inlining layer vs the no-inline translated tier
#              on an action-heavy workload (internal/bench/inline_test.go)
#              and the placement-IR passes; then the fleet gates
#              (internal/bench/fleet_test.go): 32 live sessions must
#              sustain millions of probe fires/sec with the /metrics p99
#              under budget, and a session joining a warm fleet (primed
#              artifact cache) must start >=5x faster than a cold one
set -eu

cd "$(dirname "$0")/.."

echo "==> go vet ./..."
go vet ./...

echo "==> gofmt -l ."
test -z "$(gofmt -l .)" || { gofmt -l .; exit 1; }

echo "==> go build ./..."
go build ./...

echo "==> go test -race ./..."
go test -race ./...

echo "==> bench smoke (CINNAMON_SCALE=0.1)"
CINNAMON_SCALE=0.1 go test -run '^$' -bench . -benchtime 1x .

echo "==> bench-rot smoke (all packages)"
CINNAMON_SCALE=0.1 go test -run '^$' -bench . -benchtime 1x ./... >/dev/null

echo "==> docs gate"
go run ./scripts/pkgdoc .

echo "==> CLI reference gate (docs/CLI.md vs flag registries)"
go test -run 'TestCLIDocCurrent|TestFlagTableComplete|TestDaemonFlagTableComplete' -count=1 ./cmd/cinnamon/

echo "==> doc-example compile gate (fenced .cin blocks)"
go test -run TestDocExamplesCompile -count=1 ./cinnamon/

echo "==> observability smoke (-stats -trace)"
go run ./cmd/cinnamon -backend=janus -target=victim:uaf_bug \
	-stats -trace=8 @useafterfree >/dev/null 2>&1

echo "==> governor bench smoke (budget sweep)"
go run ./cmd/experiments -exp=governor -benchmark=mcf -scale=0.2 >/dev/null

echo "==> monitoring-server smoke (cinnamond + cinnamon -listen)"
go run ./scripts/fleetsmoke

echo "==> benchmark module (perfbench vet + test)"
go -C perfbench vet ./...
go -C perfbench test -count=1 ./...

echo "==> differential conformance sweep (200 seeds)"
go run ./cmd/conformance -seeds 200 -budget 30s

# The perf gates run last, so that a gate failing on a noisy or small
# host cannot stop the correctness steps above from running.
echo "==> disabled-path dispatch perf gate"
CINNAMON_PERF_GATE=1 go test -run TestObsDisabledDispatchOverhead -count=1 ./internal/vm/

echo "==> enabled-path dispatch perf gate"
CINNAMON_PERF_GATE=1 go test -run TestObsEnabledDispatchOverhead -count=1 ./internal/vm/

echo "==> translated-tier dispatch perf gate"
CINNAMON_PERF_GATE=1 go test -run TestTranslatedDispatchSpeedup -count=1 ./internal/vm/

echo "==> action-inlining perf gate"
CINNAMON_PERF_GATE=1 go test -run TestInlinedActionSpeedup -count=1 ./internal/bench/

echo "==> placement-IR perf gate"
CINNAMON_PERF_GATE=1 go test -run TestIROptDispatchSpeedup -count=1 ./internal/core/placement/

echo "==> fleet snapshot-latency perf gate"
CINNAMON_PERF_GATE=1 go test -run TestFleetSnapshotLatencyGate -count=1 ./internal/bench/

echo "==> fleet warm-startup perf gate"
CINNAMON_PERF_GATE=1 go test -run TestFleetWarmStartupGate -count=1 ./internal/bench/

echo "CI OK"
