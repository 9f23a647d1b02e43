package main

import (
	"sort"
	"strings"
	"time"

	"repro/internal/trace"
)

// Layers that self time is charged to. The span-to-layer map is
// layerOf; README.md lists it as a table.
var foldLayers = []string{
	"driver", "engine", "transport", "directory", "listener",
	"links", "store", "wal", "event", "other",
}

// rootSpan is the span the driver opens around each op it issues.
const rootSpan = "bench.op"

// folded is the per-layer self time of every trace in a window.
type folded struct {
	Self    map[string]time.Duration // layer -> summed self time
	Lookups int                      // dir.lookup spans (remote directory misses)
	Orphans int                      // spans whose parent span never arrived

	Ops     int           // traces rooted at a driver op
	OpTime  time.Duration // summed duration of those roots
	OpSelf  time.Duration // summed self time over every span of those traces
	OpTimes []float64     // each op's duration in ms
	Shares  []float64     // each op's summed self time over its duration
}

// attr returns a span attribute's value.
func attr(s *trace.Span, key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// layerOf maps a span to a layer. parent is the span's effective
// parent (nil for a root).
func layerOf(s, parent *trace.Span) string {
	switch name := s.Name; {
	case name == rootSpan:
		return "driver"
	case name == "rpc.client" || name == "rpc.group":
		return "engine"
	case name == "transport.send":
		// A directory lookup's round trip is directory time: the
		// directory server records no spans of its own.
		if parent != nil && parent.Name == "dir.lookup" {
			return "directory"
		}
		return "transport"
	case name == "dir.lookup":
		return "directory"
	case name == "rpc.server":
		svc := attr(s, "service")
		switch {
		case strings.HasPrefix(svc, "cal."):
			return "listener"
		case strings.HasPrefix(svc, "links."):
			return "links"
		}
		return "other"
	case name == "event.raise" || name == "links.Trigger":
		return "event"
	case strings.HasPrefix(name, "links."):
		return "links"
	case name == "store.commit":
		return "store"
	case name == "wal.flush":
		return "wal"
	}
	return "other"
}

// foldSpans charges each span's self time — its duration minus the
// union of its children's intervals, clipped to its own — to a layer.
// Only traces whose earliest span starts in [from, to) count, so spans
// left in the rings by set-up and warm-up are ignored.
//
// A server span is a child of the client span that sent the request,
// a sibling of that call's transport.send; it is re-parented under the
// transport.send it overlaps most, so the transport's self time is the
// wire and queueing time around the remote handler rather than the
// whole round trip. wal.flush spans start from a background context
// and so are roots of their own traces; they are charged to the wal
// layer by name, and store.commit's wait for them stays store time.
func foldSpans(spans []*trace.Span, from, to time.Time) folded {
	f := folded{Self: make(map[string]time.Duration)}
	byTrace := make(map[string][]*trace.Span)
	for _, s := range spans {
		byTrace[s.TraceID] = append(byTrace[s.TraceID], s)
	}
	for _, ss := range byTrace {
		start := ss[0].Start
		for _, s := range ss[1:] {
			if s.Start.Before(start) {
				start = s.Start
			}
		}
		if start.Before(from) || !start.Before(to) {
			continue
		}
		f.foldTrace(ss)
	}
	return f
}

func (f *folded) foldTrace(ss []*trace.Span) {
	byID := make(map[string]*trace.Span, len(ss))
	for _, s := range ss {
		byID[s.SpanID] = s
	}
	parent := make(map[*trace.Span]*trace.Span, len(ss))
	children := make(map[*trace.Span][]*trace.Span, len(ss))
	for _, s := range ss {
		if s.ParentID == "" {
			continue
		}
		p, ok := byID[s.ParentID]
		if !ok || p == s {
			f.Orphans++
			continue
		}
		parent[s] = p
		children[p] = append(children[p], s)
	}
	// Re-parent server spans under their call's transport.send.
	for _, s := range ss {
		p := parent[s]
		if s.Name != "rpc.server" || p == nil || p.Name != "rpc.client" {
			continue
		}
		var best *trace.Span
		var bestOv time.Duration
		for _, c := range children[p] {
			if c.Name == "transport.send" {
				if ov := overlap(c, s); ov > bestOv {
					best, bestOv = c, ov
				}
			}
		}
		if best != nil {
			children[p] = without(children[p], s)
			children[best] = append(children[best], s)
			parent[s] = best
		}
	}
	var root *trace.Span
	var treeSelf time.Duration
	for _, s := range ss {
		self := selfTime(s, children[s])
		f.Self[layerOf(s, parent[s])] += self
		treeSelf += self
		if s.Name == "dir.lookup" {
			f.Lookups++
		}
		if s.Name == rootSpan && s.ParentID == "" {
			root = s
		}
	}
	if root != nil {
		d := root.End.Sub(root.Start)
		f.Ops++
		f.OpTime += d
		f.OpSelf += treeSelf
		f.OpTimes = append(f.OpTimes, float64(d)/1e6)
		f.Shares = append(f.Shares, float64(treeSelf)/float64(d))
	}
}

// overlap is the length of the intersection of a's and b's intervals.
func overlap(a, b *trace.Span) time.Duration {
	lo, hi := a.Start, a.End
	if b.Start.After(lo) {
		lo = b.Start
	}
	if b.End.Before(hi) {
		hi = b.End
	}
	if !hi.After(lo) {
		return 0
	}
	return hi.Sub(lo)
}

func without(list []*trace.Span, s *trace.Span) []*trace.Span {
	out := list[:0:0]
	for _, c := range list {
		if c != s {
			out = append(out, c)
		}
	}
	return out
}

// selfTime is s's duration minus the union of its children's
// intervals clipped to s. Children may run in parallel, so their
// durations are not simply subtracted.
func selfTime(s *trace.Span, children []*trace.Span) time.Duration {
	type iv struct{ lo, hi time.Time }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := c.Start, c.End
		if lo.Before(s.Start) {
			lo = s.Start
		}
		if hi.After(s.End) {
			hi = s.End
		}
		if hi.After(lo) {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo.Before(ivs[j].lo) })
	var covered time.Duration
	var curLo, curHi time.Time
	for i, v := range ivs {
		if i > 0 && !v.lo.After(curHi) {
			if v.hi.After(curHi) {
				curHi = v.hi
			}
			continue
		}
		if i > 0 {
			covered += curHi.Sub(curLo)
		}
		curLo, curHi = v.lo, v.hi
	}
	if len(ivs) > 0 {
		covered += curHi.Sub(curLo)
	}
	if self := s.End.Sub(s.Start) - covered; self > 0 {
		return self
	}
	return 0
}

// ringShards and ringShardCap mirror the node tracer's ring layout
// (internal/trace): 8 shards of 512 spans, a trace's spans all in the
// shard its id hashes to.
const (
	ringShards   = 8
	ringShardCap = 512
)

// shardOf is the tracer's FNV-1a trace-id hash.
func shardOf(traceID string) int {
	h := uint32(2166136261)
	for i := 0; i < len(traceID); i++ {
		h ^= uint32(traceID[i])
		h *= 16777619
	}
	return int(h % ringShards)
}

// maxShardFill is the most spans ended at or after from that any one
// ring shard of a node's snapshot holds: the margin left before a
// traced window would wrap.
func maxShardFill(spans []*trace.Span, from time.Time) int {
	var n [ringShards]int
	most := 0
	for _, s := range spans {
		if i := shardOf(s.TraceID); !s.End.Before(from) {
			n[i]++
			most = max(most, n[i])
		}
	}
	return most
}

// wrappedShards counts ring shards of one node's span snapshot that
// may have overwritten a span finished at or after from: a full shard
// whose oldest retained span ended after from. Overwrites are not
// counted by the tracer, so this is how a lost window span shows.
func wrappedShards(spans []*trace.Span, from time.Time) int {
	var n [ringShards]int
	var oldest [ringShards]time.Time
	for _, s := range spans {
		i := shardOf(s.TraceID)
		n[i]++
		if oldest[i].IsZero() || s.End.Before(oldest[i]) {
			oldest[i] = s.End
		}
	}
	wrapped := 0
	for i := range n {
		if n[i] >= ringShardCap && !oldest[i].Before(from) {
			wrapped++
		}
	}
	return wrapped
}
