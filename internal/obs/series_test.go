package obs

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestSeriesDeltasAndRates(t *testing.T) {
	c := New(Options{})
	a := c.RegisterProbe(ProbeMeta{Label: "count_mallocs", Trigger: "opcode", Mechanism: "clean-call"})
	b := c.RegisterProbe(ProbeMeta{Label: "check_heap", Trigger: "memory", Mechanism: "inlined-call"})

	s := NewSeries(c, "vm", SeriesOptions{Interval: time.Second, Cap: 8})

	for i := 0; i < 10; i++ {
		c.Fire(a, 5, 0x100)
	}
	s.Sample(1 * time.Second)

	for i := 0; i < 4; i++ {
		c.Fire(a, 5, 0x100)
	}
	for i := 0; i < 6; i++ {
		c.Fire(b, 2, 0x200)
	}
	c.Fire(ProbeID(99<<probeIndexBits|1), 7, 0x300) // foreign → untracked
	s.Sample(3 * time.Second)

	pts := s.Points()
	if len(pts) != 2 {
		t.Fatalf("points = %d, want 2", len(pts))
	}

	p0 := pts[0]
	if p0.Seq != 0 || p0.Total.Fires != 10 || p0.Total.Cycles != 50 {
		t.Fatalf("point 0 = %+v", p0)
	}
	if p0.Total.FiresPerSec != 10 || p0.Total.CyclesPerSec != 50 {
		t.Fatalf("point 0 rates = %+v", p0.Total)
	}
	if len(p0.ByProbe) != 1 || p0.ByProbe[0].Label != "count_mallocs" || p0.ByProbe[0].Fires != 10 {
		t.Fatalf("point 0 by_probe = %+v", p0.ByProbe)
	}

	p1 := pts[1]
	// Interval 1s→3s: dt = 2s. Deltas: a +4 fires/20 cycles, b +6/12,
	// untracked +1/7 → total 11 fires, 39 cycles.
	if p1.Seq != 1 || p1.Total.Fires != 11 || p1.Total.Cycles != 39 {
		t.Fatalf("point 1 = %+v", p1)
	}
	if p1.IntervalSec != 2 || p1.Total.FiresPerSec != 5.5 || p1.Total.CyclesPerSec != 19.5 {
		t.Fatalf("point 1 rates = %+v interval=%v", p1.Total, p1.IntervalSec)
	}
	if got := p1.ByMechanism["clean-call"]; got.Fires != 4 || got.Cycles != 20 {
		t.Fatalf("clean-call rate = %+v", got)
	}
	if got := p1.ByMechanism["inlined-call"]; got.Fires != 6 || got.FiresPerSec != 3 {
		t.Fatalf("inlined-call rate = %+v", got)
	}
	if got := p1.ByMechanism["untracked"]; got.Fires != 1 || got.Cycles != 7 {
		t.Fatalf("untracked rate = %+v", got)
	}
	if len(p1.ByProbe) != 2 || p1.ByProbe[0].ID != 1 || p1.ByProbe[1].ID != 2 {
		t.Fatalf("point 1 by_probe = %+v", p1.ByProbe)
	}
}

func TestSeriesHandlesMidRunRegistration(t *testing.T) {
	c := New(Options{})
	a := c.RegisterProbe(ProbeMeta{Label: "early", Mechanism: "clean-call"})
	s := NewSeries(c, "vm", SeriesOptions{Interval: time.Second, Cap: 8})

	c.Fire(a, 1, 0)
	s.Sample(1 * time.Second)

	// A probe registered after the first sample must get a zero baseline.
	b := c.RegisterProbe(ProbeMeta{Label: "late", Mechanism: "snippet"})
	c.Fire(b, 3, 0)
	c.Fire(b, 3, 0)
	s.Sample(2 * time.Second)

	pts := s.Points()
	p := pts[1]
	if p.Total.Fires != 2 || p.Total.Cycles != 6 {
		t.Fatalf("point after late registration = %+v", p.Total)
	}
	if len(p.ByProbe) != 1 || p.ByProbe[0].Label != "late" || p.ByProbe[0].Fires != 2 {
		t.Fatalf("by_probe = %+v", p.ByProbe)
	}
}

func TestSeriesBoundedWindow(t *testing.T) {
	c := New(Options{})
	a := c.RegisterProbe(ProbeMeta{Label: "p", Mechanism: "clean-call"})
	s := NewSeries(c, "vm", SeriesOptions{Interval: time.Second, Cap: 3})

	for i := 1; i <= 5; i++ {
		c.Fire(a, 1, 0)
		s.Sample(time.Duration(i) * time.Second)
	}

	d := s.Dump()
	if d.Dropped != 2 || len(d.Points) != 3 {
		t.Fatalf("dropped=%d points=%d, want 2/3", d.Dropped, len(d.Points))
	}
	if d.Points[0].Seq != 2 || d.Points[2].Seq != 4 {
		t.Fatalf("retained seqs %d..%d, want 2..4", d.Points[0].Seq, d.Points[2].Seq)
	}
	if d.Points[0].Seq != d.Dropped {
		t.Fatalf("Points[0].Seq=%d != Dropped=%d", d.Points[0].Seq, d.Dropped)
	}
}

func TestSeriesQuietIntervalHasNoBreakdown(t *testing.T) {
	c := New(Options{})
	c.RegisterProbe(ProbeMeta{Label: "p", Mechanism: "clean-call"})
	s := NewSeries(c, "vm", SeriesOptions{})

	s.Sample(1 * time.Second)
	p := s.Points()[0]
	if p.Total.Fires != 0 || p.ByMechanism != nil || p.ByProbe != nil {
		t.Fatalf("quiet point = %+v", p)
	}
}

func TestSeriesDumpJSONRoundTrip(t *testing.T) {
	c := New(Options{})
	a := c.RegisterProbe(ProbeMeta{Label: "p", Trigger: "opcode", Mechanism: "clean-call"})
	s := NewSeries(c, "pin", SeriesOptions{Interval: 100 * time.Millisecond, Cap: 4})
	c.Fire(a, 2, 0x10)
	s.Sample(100 * time.Millisecond)

	buf, err := json.Marshal(s.Dump())
	if err != nil {
		t.Fatal(err)
	}
	var back SeriesDump
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if back.Backend != "pin" || back.Cap != 4 || len(back.Points) != 1 {
		t.Fatalf("round trip = %+v", back)
	}
	if back.Points[0].Total.Fires != 1 || back.Points[0].ByProbe[0].Label != "p" {
		t.Fatalf("round trip point = %+v", back.Points[0])
	}
}

func TestSeriesStartStopConcurrentWithFires(t *testing.T) {
	c := New(Options{})
	a := c.RegisterProbe(ProbeMeta{Label: "hot", Mechanism: "inlined-call"})
	s := NewSeries(c, "vm", SeriesOptions{Interval: 2 * time.Millisecond, Cap: 1000})

	s.Start()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50000; i++ {
			c.Fire(a, 1, uint64(i))
		}
	}()
	wg.Wait()
	time.Sleep(5 * time.Millisecond)
	s.Stop()

	// Stop takes a final sample, so the series must account for every
	// fire exactly once across its deltas.
	var total uint64
	for _, p := range s.Points() {
		total += p.Total.Fires
	}
	if total != 50000 {
		t.Fatalf("series accounted %d fires, want 50000", total)
	}
}
