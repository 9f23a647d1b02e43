package main

import (
	"math"
	"testing"

	"repro/internal/metrics"
	"repro/internal/wire"
)

func TestReportableNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{99, 0.90, false}, // rank 90: 9 beyond
		{100, 0.90, true}, // rank 90: 10 beyond
		{999, 0.99, false},
		{1000, 0.99, true},
		{20, 0.50, true},
		{19, 0.50, false}, // rank 10: 9 beyond
		{0, 0.50, false},
	} {
		if got := reportable(c.n, c.q); got != c.want {
			t.Errorf("reportable(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestSummarizeNearestRank(t *testing.T) {
	ms := make([]float64, 1000)
	for i := range ms {
		ms[i] = float64(1000 - i) // descending: summarize must sort a copy
	}
	l, err := summarize(ms)
	if err != nil {
		t.Fatal(err)
	}
	if l.P50 != 500 || l.P90 != 900 || l.P99 != 990 || l.Max != 1000 || !l.P99OK {
		t.Fatalf("got %+v, want p50 500 p90 900 p99 990 max 1000", l)
	}
	if ms[0] != 1000 {
		t.Fatal("summarize reordered its input")
	}
}

func TestSummarizeWithholdsThinPercentiles(t *testing.T) {
	ms := make([]float64, 150)
	for i := range ms {
		ms[i] = float64(i + 1)
	}
	l, err := summarize(ms)
	if err != nil {
		t.Fatal(err)
	}
	if l.P99OK || l.P99 != 0 {
		t.Fatalf("p99 of 150 samples reported: %+v", l)
	}
	if l.P90 != 135 {
		t.Fatalf("p90 = %v, want 135", l.P90)
	}
	if _, err := summarize(ms[:99]); err == nil {
		t.Fatal("p90 of 99 samples was accepted")
	}
}

func TestDiffSnapshots(t *testing.T) {
	entry := func(layer metrics.Layer, svc, method string, code wire.ErrCode, n int64, avgMs float64) metrics.Entry {
		return metrics.Entry{Layer: layer, Service: svc, Method: method, Code: code, Count: n, AvgMs: avgMs}
	}
	before := metrics.Snapshot{Entries: []metrics.Entry{
		entry(metrics.LayerServer, "cal.u0", "SlotInfo", "", 10, 0.2),
		entry(metrics.LayerServer, "cal.u0", "ListMeetings", "", 5, 1),
		entry(metrics.LayerWAL, "wal", "fsync", "", 3, 0.1),
	}}
	after := metrics.Snapshot{Entries: []metrics.Entry{
		entry(metrics.LayerServer, "cal.u0", "SlotInfo", "", 30, 0.3),       // grew
		entry(metrics.LayerServer, "cal.u0", "ListMeetings", "", 5, 1),      // idle
		entry(metrics.LayerWAL, "wal", "fsync", "", 3, 0.1),                 // idle
		entry(metrics.LayerLinks, "negotiate", "outcome", "conflict", 4, 0), // new
	}}
	got := diffSnapshots(before, after)
	if len(got) != 2 {
		t.Fatalf("got %d series, want the 2 that grew: %v", len(got), got)
	}
	slot := got[seriesKey{metrics.LayerServer, "cal.u0", "SlotInfo", ""}]
	// 30 calls averaging 0.3 ms minus 10 averaging 0.2 ms: 20 calls, 7 ms.
	if slot.Count != 20 || math.Abs(slot.SumUs-7000) > 1e-6 {
		t.Fatalf("SlotInfo delta = %+v, want 20 calls, 7000 us", slot)
	}
	if c := got[seriesKey{metrics.LayerLinks, "negotiate", "outcome", "conflict"}]; c.Count != 4 || c.SumUs != 0 {
		t.Fatalf("new series delta = %+v, want 4 calls, 0 us", c)
	}

	all := deltas{}
	all.add(got)
	all.add(got)
	if s := all.sum(layerIs(metrics.LayerServer, "cal.")); s.Count != 40 {
		t.Fatalf("merged cal.* count = %d, want 40", s.Count)
	}
	if s := all.sum(layerIs(metrics.LayerServer, "links.")); s.Count != 0 {
		t.Fatalf("links.* matched %d calls", s.Count)
	}
}
