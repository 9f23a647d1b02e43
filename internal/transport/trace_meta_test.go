package transport

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/wire"
)

func traceMeta(i int) wire.Metadata {
	return wire.Metadata{
		trace.MetaTraceID:      fmt.Sprintf("%016x", 0xabc0+i),
		trace.MetaSpanID:       fmt.Sprintf("%016x", 0xdef0+i),
		trace.MetaParentSpanID: fmt.Sprintf("%016x", 0x1230+i),
		trace.MetaSampled:      "1",
	}
}

// metaBaggage is a metadata key whose value is JSON text. Its leading
// '{' is the byte a listener rejects as a frame body, so it checks that
// JSON inside a v3 body is carried as opaque bytes.
const metaBaggage = "x-baggage"

// traceMetaCase is one shape of request the trace context must survive.
type traceMetaCase struct {
	name string
	// meta builds call i's metadata; every key in it must echo back.
	meta func(i int) wire.Metadata
	// args rides along in the same frame.
	args func(i int) wire.Args
}

// traceMetaCases covers the two value paths of the v3 body: "v3" sends
// only the codec's native tags, "json" adds JSON-text metadata and an
// argument that takes v3's embedded-JSON fallback tag.
var traceMetaCases = []traceMetaCase{
	{
		name: "v3",
		meta: traceMeta,
		args: func(i int) wire.Args { return nil },
	},
	{
		name: "json",
		meta: func(i int) wire.Metadata {
			md := traceMeta(i)
			md[metaBaggage] = fmt.Sprintf(`{"tenant":"andy","call":%d}`, i)
			return md
		},
		args: func(i int) wire.Args {
			return wire.Args{"slots": []int{i, i + 1, i + 2}}
		},
	},
}

// checkTraceMeta asserts every key of want came back in resp unchanged.
func checkTraceMeta(i int, resp *Response, want wire.Metadata) error {
	var seen wire.Metadata
	if err := wire.Unmarshal(resp.Result, &seen); err != nil {
		return err
	}
	for key, v := range want {
		if seen.Get(key) != v {
			return fmt.Errorf("call %d: %s = %q, want %q", i, key, seen.Get(key), v)
		}
	}
	return nil
}

// TestTraceMetadataSurvivesCoalescedFrames hammers one TCP connection
// with concurrent calls — the path where the write coalescer batches
// many frames into one syscall — and asserts every request's trace
// context arrives byte-identical, never smeared across the frames that
// shared a flush.
func TestTraceMetadataSurvivesCoalescedFrames(t *testing.T) {
	for _, tc := range traceMetaCases {
		t.Run(tc.name, func(t *testing.T) { testTraceMetaCoalesced(t, tc) })
	}
}

func testTraceMetaCoalesced(t *testing.T, tc traceMetaCase) {
	net, addr := newTCPPair(t, metaHandler{})
	ctx := context.Background()

	const n = 32
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			md := tc.meta(i)
			resp, err := net.Call(ctx, addr, &Request{
				Service: "echo", Method: "meta", Args: tc.args(i), Meta: md.Clone(),
			})
			if err != nil {
				errs[i] = err
				return
			}
			errs[i] = checkTraceMeta(i, resp, md)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestTraceMetadataSurvivesReconnect restarts the server so the cached
// client connection dies, then asserts the transparent reconnect path
// carries the trace context byte-identically too.
func TestTraceMetadataSurvivesReconnect(t *testing.T) {
	for _, tc := range traceMetaCases {
		t.Run(tc.name, func(t *testing.T) { testTraceMetaReconnect(t, tc) })
	}
}

func testTraceMetaReconnect(t *testing.T, tc traceMetaCase) {
	h := metaHandler{}
	net := NewTCP()
	defer net.Close()
	ln, err := net.Listen("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr()

	check := func(i int) {
		t.Helper()
		md := tc.meta(i)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		resp, err := net.Call(ctx, addr, &Request{
			Service: "echo", Method: "meta", Args: tc.args(i), Meta: md.Clone(),
		})
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if err := checkTraceMeta(i, resp, md); err != nil {
			t.Fatal(err)
		}
	}

	check(0)
	ln.Close()
	ln2, err := net.Listen(addr, h)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer ln2.Close()
	check(1)
}
