package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/metrics"
	"repro/internal/wire"
)

// minBeyond is how many samples must lie beyond the highest
// percentile reported: with fewer, that percentile is one or two
// unlucky samples rather than a property of the run.
const minBeyond = 10

// rankOf is the 1-based nearest rank of quantile q among n samples.
func rankOf(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	return r
}

// reportable reports whether the q-quantile of n samples has at least
// minBeyond samples above it.
func reportable(n int, q float64) bool {
	return n > 0 && n-rankOf(n, q) >= minBeyond
}

// latency summarizes one op kind's latencies in milliseconds.
type latency struct {
	N             int
	P50, P90, P99 float64
	Max           float64
	P99OK         bool // the p99 has minBeyond samples beyond it
}

// summarize computes the nearest-rank percentiles of ms. It fails when
// p90, the highest percentile the benchmark gates on, has too few
// samples beyond it.
func summarize(ms []float64) (latency, error) {
	n := len(ms)
	if !reportable(n, 0.90) {
		return latency{N: n}, fmt.Errorf("%d samples: p90 needs %d beyond it", n, minBeyond)
	}
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	at := func(q float64) float64 { return s[rankOf(n, q)-1] }
	l := latency{N: n, P50: at(0.50), P90: at(0.90), Max: s[n-1], P99OK: reportable(n, 0.99)}
	if l.P99OK {
		l.P99 = at(0.99)
	}
	return l, nil
}

// seriesKey identifies one metrics series across snapshots.
type seriesKey struct {
	Layer   metrics.Layer
	Service string
	Method  string
	Code    wire.ErrCode
}

// delta is a series' growth across a measured window.
type delta struct {
	Count int64
	SumUs float64 // total observed duration
}

// diffSnapshots returns what each series recorded between before and
// after. A series absent from before started at zero; one whose count
// did not grow is left out. Durations are rebuilt from count×average,
// the only form a Snapshot carries.
func diffSnapshots(before, after metrics.Snapshot) map[seriesKey]delta {
	prev := make(map[seriesKey]metrics.Entry, len(before.Entries))
	for _, e := range before.Entries {
		prev[keyOf(e)] = e
	}
	out := make(map[seriesKey]delta)
	for _, e := range after.Entries {
		k := keyOf(e)
		p := prev[k]
		if n := e.Count - p.Count; n > 0 {
			out[k] = delta{
				Count: n,
				SumUs: (float64(e.Count)*e.AvgMs - float64(p.Count)*p.AvgMs) * 1000,
			}
		}
	}
	return out
}

func keyOf(e metrics.Entry) seriesKey {
	return seriesKey{Layer: e.Layer, Service: e.Service, Method: e.Method, Code: e.Code}
}

// deltas is the merged window growth of every node's registry.
type deltas map[seriesKey]delta

// add merges one node's window growth.
func (d deltas) add(node map[seriesKey]delta) {
	for k, v := range node {
		cur := d[k]
		cur.Count += v.Count
		cur.SumUs += v.SumUs
		d[k] = cur
	}
}

// sum totals the series that match.
func (d deltas) sum(match func(seriesKey) bool) delta {
	var out delta
	for k, v := range d {
		if match(k) {
			out.Count += v.Count
			out.SumUs += v.SumUs
		}
	}
	return out
}

// layerIs matches every series of a layer whose service has prefix.
func layerIs(layer metrics.Layer, prefix string) func(seriesKey) bool {
	return func(k seriesKey) bool { return k.Layer == layer && strings.HasPrefix(k.Service, prefix) }
}

// ratio divides, returning 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
