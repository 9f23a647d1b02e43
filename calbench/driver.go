package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/directory"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// opDeadline bounds every op: far above a normal p99 (tens of ms) and
// well below the 10 s detached contexts inside the nodes, so a stalled
// op shows as a miss instead of hanging its client.
const opDeadline = 2 * time.Second

// routeCacheTTL is the driver's route cache, sydnode's default.
const routeCacheTTL = 2 * time.Second

// opKind names what an op did.
type opKind int

const (
	kSlotInfo opKind = iota
	kFree1w
	kFree4w
	kList
	kSchedule
	kCancel
	numKinds
)

var kindNames = [numKinds]string{"SlotInfo", "GetFreeSlots/1w", "GetFreeSlots/4w", "ListMeetings", "Schedule", "CancelMeeting"}

func (k opKind) isRead() bool { return k <= kList }

// outcome classifies a reply.
type outcome int

const (
	okConfirmed outcome = iota // a read, a cancel, or a confirmed meeting
	okTentative                // a meeting set up tentative
	okRejected                 // refused with wire.CodeConflict: a correct answer
	failed                     // deadline miss or any other error
)

// opRec is one completed op.
type opRec struct {
	start   time.Time
	kind    opKind
	ms      float64 // deadline value for a failed op
	outcome outcome
}

// driver is the benchmark's client side: one TCP transport (at most
// two connections per peer) and one engine per caller identity, all
// sharing a route cache and, in a traced run, a tracer.
type driver struct {
	net     *transport.TCP
	wire    *metrics.WireStats
	tracer  *trace.Tracer
	dir     *directory.Client
	cache   *engine.DirCache
	mu      sync.Mutex
	engines map[string]*engine.Engine
}

// driverSpanCap holds every span the driver records in a traced
// window without overwriting.
const driverSpanCap = 1 << 18

func newDriver(dirAddr string, traced bool) *driver {
	ws := &metrics.WireStats{}
	net := transport.NewTCP(transport.WithPoolSize(2), transport.WithWireStats(ws))
	d := &driver{
		net:     net,
		wire:    ws,
		dir:     directory.NewClient(net, dirAddr),
		cache:   engine.NewDirCache(routeCacheTTL),
		engines: make(map[string]*engine.Engine),
	}
	if traced {
		d.tracer = trace.New("driver", trace.WithSampleRate(1), trace.WithCapacity(driverSpanCap))
	}
	return d
}

func (d *driver) close() { _ = d.net.Close() } // connections only; nothing to flush

// engineFor returns the engine that calls as the given user.
func (d *driver) engineFor(as string) *engine.Engine {
	d.mu.Lock()
	defer d.mu.Unlock()
	e := d.engines[as]
	if e == nil {
		opts := []engine.Option{engine.WithDirCache(d.cache)}
		if d.tracer != nil {
			opts = append(opts, engine.WithTracer(d.tracer))
		}
		e = engine.New(d.net, d.dir, as, opts...)
		d.engines[as] = e
	}
	return e
}

// op invokes cal.<user>.<method> as caller under the op deadline. In a
// traced run the call sits under a bench.op root span, whose self time
// is the driver's own share of the op.
func (d *driver) op(ctx context.Context, as, user, method string, args wire.Args, out any) (time.Duration, error) {
	ctx, cancel := context.WithTimeout(ctx, opDeadline)
	defer cancel()
	ctx, span := d.tracer.StartSpan(ctx, rootSpan)
	span.Annotate(trace.String("method", method))
	start := time.Now()
	err := d.engineFor(as).Invoke(ctx, "cal."+user, method, args, out)
	took := time.Since(start)
	span.FinishErr(err)
	return took, err
}

// sys invokes the sys.<user> introspection service (not an op).
func (d *driver) sys(ctx context.Context, user, method string, args wire.Args, out any) error {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	return d.engineFor("calbench").Invoke(ctx, "sys."+user, method, args, out)
}

// classify turns an op's error into its outcome and recorded latency.
// Every failure is recorded at the deadline: it missed any limit.
func classify(took time.Duration, err error) (outcome, float64) {
	ms := float64(took) / 1e6
	switch {
	case err == nil:
		return okConfirmed, ms
	case wire.CodeOf(err) == wire.CodeConflict && !errors.Is(err, context.DeadlineExceeded):
		return okRejected, ms
	}
	return failed, float64(opDeadline) / 1e6
}

// auditLog collects correctness violations, keeping the first few.
type auditLog struct {
	mu    sync.Mutex
	n     int
	first []string
}

func (a *auditLog) fail(format string, args ...any) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.n++
	if len(a.first) < 10 {
		a.first = append(a.first, fmt.Sprintf(format, args...))
	}
}

func (a *auditLog) err() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.n == 0 {
		return nil
	}
	return fmt.Errorf("%d audit violations, first: %v", a.n, a.first)
}
