package obs

import (
	"sync"
	"time"
)

// The interval aggregator: periodic delta snapshots of a live Collector
// folded into a bounded time-series. Where Snapshot answers "what has
// happened so far", the series answers "what is happening *now*" —
// fires/sec and cycles/sec per probe and per dispatch mechanism over
// the last sampling interval — which is what a monitoring dashboard
// plots and what the /series endpoint of internal/monitor serves.

// Rate is one interval's activity: raw deltas plus per-second rates.
type Rate struct {
	// Fires and Cycles are the interval's deltas (not cumulative).
	Fires  uint64 `json:"fires"`
	Cycles uint64 `json:"cycles"`
	// FiresPerSec and CyclesPerSec normalize the deltas by the
	// interval's measured length.
	FiresPerSec  float64 `json:"fires_per_sec"`
	CyclesPerSec float64 `json:"cycles_per_sec"`
}

// ProbeRate is one probe's activity within an interval. Only probes
// that fired during the interval appear in a point.
type ProbeRate struct {
	// ID is the probe's 1-based slot index (Stats.Probes[ID-1]).
	ID ProbeID `json:"id"`
	// Label and Mechanism identify the probe (see ProbeMeta).
	Label     string `json:"label"`
	Mechanism string `json:"mechanism"`
	Rate
}

// Point is one sampling interval of the series.
type Point struct {
	// Seq numbers points from 0; it keeps increasing even after old
	// points are evicted from the bounded window.
	Seq int `json:"seq"`
	// ElapsedSec is the time since the series started, measured at the
	// end of the interval; IntervalSec is the interval's actual length
	// (ticker jitter makes it differ slightly from the configured one).
	ElapsedSec  float64 `json:"elapsed_sec"`
	IntervalSec float64 `json:"interval_sec"`
	// Total aggregates every firing of the interval, untracked included.
	Total Rate `json:"total"`
	// ByMechanism splits the interval by dispatch mechanism
	// ("clean-call", "inlined-call", "snippet", and "untracked" for the
	// untracked bucket). Mechanisms with no activity are omitted.
	ByMechanism map[string]Rate `json:"by_mechanism,omitempty"`
	// ByProbe lists the probes active in the interval, in slot order.
	ByProbe []ProbeRate `json:"by_probe,omitempty"`
}

// SeriesOptions parameterizes a Series.
type SeriesOptions struct {
	// Interval is the sampling period (default 1s).
	Interval time.Duration
	// Cap bounds the retained window (default 600 points); older points
	// are evicted, Dropped counts them.
	Cap int
}

// SeriesDump is the exported form of the series, served by /series.
type SeriesDump struct {
	// Backend names the framework of the monitored run.
	Backend string `json:"backend"`
	// IntervalSec is the configured sampling period.
	IntervalSec float64 `json:"interval_sec"`
	// Cap is the retained-window bound and Dropped the points evicted
	// from it; Points[0].Seq == Dropped always holds.
	Cap     int `json:"cap"`
	Dropped int `json:"dropped"`
	// Points is the retained window, oldest first.
	Points []Point `json:"points"`
}

// Series samples a Collector at a fixed interval into a bounded
// time-series of rate points. Start launches the sampling goroutine;
// tests can instead drive Sample directly. Safe for concurrent use:
// readers (Dump, Points) may run while the sampler appends.
type Series struct {
	col      *Collector
	backend  string
	interval time.Duration
	cap      int

	mu      sync.Mutex
	points  []Point
	dropped int
	seq     int
	// prev is the previous sample's cumulative state, the baseline the
	// next delta is computed against.
	prevFires   []uint64
	prevCycles  []uint64
	prevUnFires uint64
	prevUnCyc   uint64
	prevElapsed float64

	stop chan struct{}
	done chan struct{}
}

// NewSeries creates a Series over the collector. The series does not
// sample until Start (or Sample) is called.
func NewSeries(c *Collector, backendName string, o SeriesOptions) *Series {
	if o.Interval <= 0 {
		o.Interval = time.Second
	}
	if o.Cap <= 0 {
		o.Cap = 600
	}
	return &Series{
		col:      c,
		backend:  backendName,
		interval: o.Interval,
		cap:      o.Cap,
	}
}

// Interval returns the configured sampling period.
func (s *Series) Interval() time.Duration { return s.interval }

// Start launches the sampling goroutine. Stop must be called exactly
// once afterwards.
func (s *Series) Start() {
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	start := time.Now()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(s.interval)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				// One final sample so the tail of the run is not lost.
				s.Sample(time.Since(start))
				return
			case <-tick.C:
				s.Sample(time.Since(start))
			}
		}
	}()
}

// Stop halts the sampling goroutine (taking one last sample) and waits
// for it to exit. Only valid after Start.
func (s *Series) Stop() {
	close(s.stop)
	<-s.done
}

// Sample takes one delta snapshot at the given elapsed time since the
// series began and appends a Point. Called by the Start goroutine;
// exposed so tests and manual drivers can sample deterministically.
func (s *Series) Sample(elapsed time.Duration) {
	snap := s.col.Snapshot(s.backend)

	s.mu.Lock()
	defer s.mu.Unlock()

	el := elapsed.Seconds()
	dt := el - s.prevElapsed
	if dt <= 0 {
		// A zero-length interval has no meaningful rate; fall back to
		// the configured period so rates stay finite.
		dt = s.interval.Seconds()
	}

	p := Point{
		Seq:         s.seq,
		ElapsedSec:  el,
		IntervalSec: dt,
		ByMechanism: map[string]Rate{},
	}
	addRate := func(r *Rate, fires, cycles uint64) {
		r.Fires += fires
		r.Cycles += cycles
		r.FiresPerSec = float64(r.Fires) / dt
		r.CyclesPerSec = float64(r.Cycles) / dt
	}

	// Grow the baseline for probes registered since the last sample.
	for len(s.prevFires) < len(snap.Probes) {
		s.prevFires = append(s.prevFires, 0)
		s.prevCycles = append(s.prevCycles, 0)
	}
	for i, pr := range snap.Probes {
		df := pr.Fires - s.prevFires[i]
		dc := pr.Cycles - s.prevCycles[i]
		s.prevFires[i], s.prevCycles[i] = pr.Fires, pr.Cycles
		if df == 0 && dc == 0 {
			continue
		}
		addRate(&p.Total, df, dc)
		mech := p.ByMechanism[pr.Mechanism]
		addRate(&mech, df, dc)
		p.ByMechanism[pr.Mechanism] = mech
		row := ProbeRate{ID: pr.ID, Label: pr.Label, Mechanism: pr.Mechanism}
		addRate(&row.Rate, df, dc)
		p.ByProbe = append(p.ByProbe, row)
	}
	duf := snap.UntrackedFires - s.prevUnFires
	duc := snap.UntrackedCycles - s.prevUnCyc
	s.prevUnFires, s.prevUnCyc = snap.UntrackedFires, snap.UntrackedCycles
	if duf != 0 || duc != 0 {
		addRate(&p.Total, duf, duc)
		mech := p.ByMechanism["untracked"]
		addRate(&mech, duf, duc)
		p.ByMechanism["untracked"] = mech
	}
	if len(p.ByMechanism) == 0 {
		p.ByMechanism = nil
	}

	s.prevElapsed = el
	s.seq++
	s.points = append(s.points, p)
	if over := len(s.points) - s.cap; over > 0 {
		s.points = append(s.points[:0], s.points[over:]...)
		s.dropped += over
	}
}

// Points returns a copy of the retained window, oldest first. Safe from
// any goroutine.
func (s *Series) Points() []Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Point, len(s.points))
	copy(out, s.points)
	return out
}

// Last returns the most recent point, if any — the cheap current-rate
// read the fleet /series rollup and the load harness use instead of
// copying the whole window. Safe from any goroutine.
func (s *Series) Last() (Point, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.points) == 0 {
		return Point{}, false
	}
	return s.points[len(s.points)-1], true
}

// Dump exports the series. Safe from any goroutine.
func (s *Series) Dump() *SeriesDump {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Point, len(s.points))
	copy(out, s.points)
	return &SeriesDump{
		Backend:     s.backend,
		IntervalSec: s.interval.Seconds(),
		Cap:         s.cap,
		Dropped:     s.dropped,
		Points:      out,
	}
}
