package main

import (
	"context"
	"testing"
	"time"

	"repro/internal/trace"
)

var t0 = time.Date(2027, 3, 1, 12, 0, 0, 0, time.UTC)

// sp builds a finished span over [t0+from, t0+to) in microseconds.
func sp(traceID, id, parent, node, name string, from, to int, attrs ...trace.Attr) *trace.Span {
	return &trace.Span{
		TraceID: traceID, SpanID: id, ParentID: parent, Node: node, Name: name,
		Start: t0.Add(time.Duration(from) * time.Microsecond),
		End:   t0.Add(time.Duration(to) * time.Microsecond),
		Attrs: attrs,
	}
}

func us(n int) time.Duration { return time.Duration(n) * time.Microsecond }

func TestSelfTimeUnionsParallelChildren(t *testing.T) {
	parent := sp("t", "p", "", "a", "links.Negotiate", 0, 100)
	kids := []*trace.Span{
		sp("t", "c1", "p", "a", "rpc.client", 10, 50),
		sp("t", "c2", "p", "a", "rpc.client", 20, 60), // overlaps c1
		sp("t", "c3", "p", "a", "rpc.client", 80, 90),
		sp("t", "c4", "p", "a", "rpc.client", 95, 130), // runs past the parent
	}
	// Covered: [10,60) + [80,90) + [95,100) = 65us of 100.
	if got := selfTime(parent, kids); got != us(35) {
		t.Fatalf("self = %v, want 35us", got)
	}
	if got := selfTime(parent, nil); got != us(100) {
		t.Fatalf("leaf self = %v, want 100us", got)
	}
}

// TestFoldCrossNodeCall folds a driver op whose request crosses to a
// node: the server span (another node, child of rpc.client) moves
// under transport.send, so the layers partition the op's time.
func TestFoldCrossNodeCall(t *testing.T) {
	spans := []*trace.Span{
		sp("t1", "op", "", "driver", rootSpan, 0, 1000),
		sp("t1", "cl", "op", "driver", "rpc.client", 10, 990),
		sp("t1", "tx", "cl", "driver", "transport.send", 50, 950),
		sp("t1", "sv", "cl", "u0", "rpc.server", 200, 800, trace.String("service", "cal.u0")),
		sp("t1", "lk", "sv", "u0", "links.Negotiate", 300, 500),
	}
	f := foldSpans(spans, t0, t0.Add(time.Second))
	want := map[string]time.Duration{
		"driver":    us(20),  // 1000 - [10,990)
		"engine":    us(80),  // 980 - [50,950)
		"transport": us(300), // 900 - [200,800)
		"listener":  us(400), // 600 - [300,500)
		"links":     us(200),
	}
	for layer, d := range want {
		if f.Self[layer] != d {
			t.Errorf("%s self = %v, want %v", layer, f.Self[layer], d)
		}
	}
	if f.Ops != 1 || f.OpTime != us(1000) || f.OpSelf != us(1000) {
		t.Fatalf("ops %d time %v self %v, want 1 op of 1000us fully accounted", f.Ops, f.OpTime, f.OpSelf)
	}
	if f.Orphans != 0 {
		t.Fatalf("%d orphans", f.Orphans)
	}
}

func TestFoldRootWALFlushAndDirectory(t *testing.T) {
	spans := []*trace.Span{
		// A node-side op with a directory miss.
		sp("t1", "op", "", "driver", rootSpan, 0, 500),
		sp("t1", "cl", "op", "driver", "rpc.client", 0, 500),
		sp("t1", "dl", "cl", "driver", "dir.lookup", 10, 110),
		sp("t1", "dtx", "dl", "driver", "transport.send", 20, 100),
		sp("t1", "tx", "cl", "driver", "transport.send", 120, 480),
		sp("t1", "sv", "cl", "u0", "rpc.server", 150, 450, trace.String("service", "links.u0")),
		sp("t1", "ev", "sv", "u0", "links.Trigger", 200, 250),
		// Group-commit flushes are roots of their own traces.
		sp("w1", "f1", "", "u0", "wal.flush", 300, 420),
		sp("w2", "f2", "", "u1", "wal.flush", 2_000_000, 2_000_100), // after the window
	}
	f := foldSpans(spans, t0, t0.Add(time.Second))
	if f.Self["wal"] != us(120) {
		t.Errorf("wal self = %v, want the one in-window flush, 120us", f.Self["wal"])
	}
	if f.Self["directory"] != us(100) { // lookup 20 + its round trip 80
		t.Errorf("directory self = %v, want 100us", f.Self["directory"])
	}
	if f.Self["links"] != us(250) || f.Self["event"] != us(50) {
		t.Errorf("links %v event %v, want 250us and 50us", f.Self["links"], f.Self["event"])
	}
	if f.Lookups != 1 {
		t.Errorf("lookups = %d, want 1", f.Lookups)
	}
	if f.Ops != 1 || f.OpSelf != us(500) {
		t.Errorf("ops %d self %v: a flush is not an op", f.Ops, f.OpSelf)
	}
}

func TestFoldWindowAndOrphans(t *testing.T) {
	spans := []*trace.Span{
		sp("old", "a", "", "driver", rootSpan, -50, 20), // began before the window
		sp("t1", "b", "", "driver", rootSpan, 100, 200),
		sp("t1", "c", "lost", "u0", "rpc.server", 120, 180),
	}
	f := foldSpans(spans, t0, t0.Add(time.Second))
	if f.Ops != 1 || f.Orphans != 1 {
		t.Fatalf("ops %d orphans %d, want 1 and 1", f.Ops, f.Orphans)
	}
}

func TestWrappedShards(t *testing.T) {
	var ids [ringShards]string
	for i := 0; ids[0] == "" || ids[1] == ""; i++ {
		id := string(rune('a'+i%26)) + string(rune('a'+i/26))
		if s := shardOf(id); s < 2 && ids[s] == "" {
			ids[s] = id
		}
	}
	from := t0.Add(time.Second)
	var spans []*trace.Span
	for i := 0; i < ringShardCap; i++ {
		// Shard 0 is full of window spans; shard 1 is full but its
		// oldest span predates the window, so nothing in it was lost.
		spans = append(spans, sp(ids[0], "x", "", "u0", "rpc.server", 2_000_000, 2_000_010))
		end := 2_000_010
		if i == 0 {
			end = 10
		}
		spans = append(spans, sp(ids[1], "y", "", "u0", "rpc.server", 0, end))
	}
	if got := wrappedShards(spans, from); got != 1 {
		t.Fatalf("wrapped = %d, want 1", got)
	}
	if got := wrappedShards(spans[:10], from); got != 0 {
		t.Fatalf("wrapped = %d for a ring that is not full", got)
	}
	if got := maxShardFill(spans, from); got != ringShardCap {
		t.Fatalf("max fill = %d, want %d", got, ringShardCap)
	}
}

// TestShardOfMatchesTracer checks the mirrored ring hash against the
// tracer itself: Snapshot returns spans shard by shard in order.
func TestShardOfMatchesTracer(t *testing.T) {
	tr := trace.New("n", trace.WithSampleRate(1))
	for i := 0; i < 200; i++ {
		_, s := tr.StartSpan(context.Background(), "x")
		s.Finish()
	}
	prev := 0
	for _, s := range tr.Snapshot() {
		shard := shardOf(s.TraceID)
		if shard < prev {
			t.Fatalf("span of shard %d listed after shard %d: hash differs from the tracer's", shard, prev)
		}
		prev = shard
	}
	if prev == 0 {
		t.Fatal("200 traces all hashed to shard 0")
	}
}
