// Command calbench is the end-to-end benchmark of the SyD calendar: it
// starts a real syddirectory and eight sydnode processes over loopback
// TCP, drives them with two closed-loop clients through engine.Engine,
// checks every reply and the final calendars, and prints each metric
// by name and unit, ending with one JSON line.
//
//	bash calbench/run.sh --workload read --seed 1 --seconds 10 --trace 0
//
// run.sh builds the binaries from the checkout; see README.md for the
// workloads, metrics and the span-to-layer map.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
)

const (
	numNodes   = 8
	numClients = 2
	// setupRepeats deployments are set up in an untraced run; setup_s
	// is their median and the last one is measured.
	setupRepeats = 5
	warmup       = time.Second
	// subWindow splits the measured window: the end-to-end figures are
	// medians over sub-windows, so a burst of load from outside the
	// benchmark moves at most a few of them.
	subWindow = 2 * time.Second
	// settleSpans lets node work that outlives the last op (async
	// triggers, group-commit flushes) finish into the span rings.
	settleSpans = 300 * time.Millisecond
)

// tracedBudget caps the ops of a traced window so that no node's span
// ring (8 shards of 512) wraps over a span of the window; a wrap is
// detected and fails the run rather than going unnoticed.
var tracedBudget = map[string]int64{"read": 12000, "schedule": 250, "contend": 200}

type config struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	root     string
	binDir   string
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "read, schedule or contend")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measured window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = per-layer run (untraced pass plus traced pass)")
	flag.StringVar(&cfg.root, "root", ".", "checkout root: run data goes under <root>/.bench_build")
	flag.StringVar(&cfg.binDir, "bin", "", "directory holding syddirectory and sydnode")
	flag.Parse()
	cfg.traced = traceFlag == 1
	if _, ok := tracedBudget[cfg.workload]; !ok || cfg.seconds < 1 || traceFlag < 0 || traceFlag > 1 || cfg.binDir == "" {
		fmt.Fprintln(os.Stderr, "usage: calbench -bin DIR --workload read|schedule|contend --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "calbench: %v: stopping the deployment\n", s)
		stopAll()
		os.Exit(130)
	}()

	code, err := run(cfg)
	stopAll()
	if err != nil {
		fmt.Fprintf(os.Stderr, "calbench: %v\n", err)
	}
	os.Exit(code)
}

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run executes one benchmark invocation. It returns 2 without a result
// when the benchmark could not run, and 1 after printing a result
// whose audit failed.
func run(cfg config) (int, error) {
	runs := filepath.Join(cfg.root, ".bench_build", "runs")
	cleanStale(runs)
	printProvenance(cfg)

	ctx := context.Background()
	us := users(numNodes)
	repeats := setupRepeats
	if cfg.traced {
		repeats = 1 // setup_s is not reported
	}
	p, err := runPass(ctx, cfg, us, false, repeats)
	if err != nil {
		return 2, err
	}
	var t *pass
	if cfg.traced {
		if t, err = runPass(ctx, cfg, us, true, 1); err != nil {
			return 2, err
		}
	}

	res := result{Metrics: make(map[string]metric), Attempted: len(p.recs)}
	for _, r := range p.recs {
		if r.outcome == failed {
			res.Failed++
		}
	}
	var audits []error
	for _, q := range []*pass{p, t} {
		if q != nil && q.auditErr != nil {
			audits = append(audits, q.auditErr)
		}
	}
	all, diag, err := computeMetrics(cfg, p, t)
	if err != nil {
		audits = append(audits, err)
	}
	names := make([]string, 0, len(all))
	for name := range all {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := all[name]
		fmt.Printf("%-28s %14.4f %s\n", name, m.Value, m.Unit)
	}
	for _, line := range diag {
		fmt.Println("diag " + line)
	}
	want := endToEnd
	if cfg.traced {
		want = perLayer
	}
	for _, name := range want {
		m, ok := all[name]
		if !ok {
			audits = append(audits, fmt.Errorf("metric %s was not measured", name))
			continue
		}
		res.Metrics[name] = m
	}
	res.Correct = len(audits) == 0
	for _, a := range audits {
		fmt.Printf("FAILED: %v\n", a)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return 2, err
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1, errors.New("audit failed")
	}
	return 0, nil
}

// endToEnd are the metrics of an untraced run (--trace 0).
var endToEnd = []string{
	"setup_s", "throughput_ops_s", "op_p50_ms", "op_p90_ms", "cpu_ms_per_op", "sut_rss_mb",
}

// perLayer are the metrics of a per-layer run (--trace 1).
var perLayer = []string{
	"engine.calls_per_op", "listener.calls_per_op", "listener.busy_us_per_op", "links.busy_us_per_op",
	"links.negotiations_per_op", "links.ok_frac", "links.conflicts_per_op",
	"wal.commits_per_op", "wal.commits_per_fsync", "wal.commit_wait_us", "wal.fsync_us",
	"driver.bytes_per_op", "directory.cpu_us_per_op", "node.cpu_us_per_op", "driver.cpu_us_per_op",
	"outcome.confirmed_frac", "outcome.tentative_frac", "outcome.rejected_frac",
	"driver.self_us", "engine.self_us", "transport.self_us", "directory.self_us", "directory.lookups_per_op",
	"listener.self_us", "links.self_us", "store.self_us", "wal.self_us", "event.self_us", "other.self_us",
	"trace.accounted_frac", "trace.overhead_frac", "trace.dropped_spans",
	"read_p50_ms", "read_p90_ms", "schedule_p50_ms", "schedule_p90_ms", "cancel_p50_ms", "cancel_p90_ms",
	"fail_frac",
}

// sample is the state read at one edge of the measured window.
type sample struct {
	at        time.Time
	sutCPU    map[string]procCPU
	driverCPU procCPU
	snaps     map[string]metrics.Snapshot
	wireBytes int64
}

// pass is one deployment's measured window.
type pass struct {
	setups   []float64 // seconds
	recs     []opRec
	window   time.Duration
	before   sample
	after    sample
	subs     []sub // untraced pass only
	rssMB    float64
	deltas   deltas
	auditErr error

	// Traced pass only.
	fold    folded
	dropped int64 // spans the tracers counted as lost
	wrapped int   // ring shards that may have overwritten a window span
	maxFill int   // most window spans in one node's ring shard
}

func newWorkload(cfg config, us []string) workload {
	switch cfg.workload {
	case "read":
		return newReadWL(cfg.seed, us, numClients)
	case "schedule":
		return newScheduleWL(cfg.seed, us, numClients)
	}
	return newContendWL(cfg.seed, us, numClients)
}

var runSeq atomic.Int64

// sub is one sub-window of an untraced window with the SUT's CPU time
// spent in it.
type sub struct {
	from, to time.Time
	cpuMs    float64
}

// runPass sets up a deployment repeats times, warms the last one up,
// measures one window, audits, and tears it down.
func runPass(ctx context.Context, cfg config, us []string, traced bool, repeats int) (*pass, error) {
	wl := newWorkload(cfg, us)
	p := &pass{}
	var s *sut
	var d *driver
	for i := 0; i < repeats; i++ {
		if s != nil {
			d.close()
			s.stop()
		}
		runDir := filepath.Join(cfg.root, ".bench_build", "runs",
			fmt.Sprintf("%d-%d", os.Getpid(), runSeq.Add(1)))
		t0 := time.Now()
		sctx, cancel := context.WithTimeout(ctx, 60*time.Second)
		var err error
		s, err = startSUT(sctx, sutConfig{binDir: cfg.binDir, runDir: runDir, users: us, traced: traced})
		if err != nil {
			cancel()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d = newDriver(s.dirAddr, traced)
		err = wl.preload(sctx, d)
		cancel()
		if err != nil {
			d.close()
			s.stop()
			return nil, fmt.Errorf("preload: %w", err)
		}
		p.setups = append(p.setups, time.Since(t0).Seconds())
	}
	defer s.stop()
	defer d.close()

	runClients(ctx, wl, d, time.Now().Add(warmup), 0)
	var err error
	if p.before, err = takeSample(ctx, s, d, us); err != nil {
		return nil, err
	}
	var budget int64
	if traced {
		budget = tracedBudget[cfg.workload]
	}
	until := p.before.at.Add(time.Duration(cfg.seconds) * time.Second)
	subsDone := make(chan error, 1)
	if traced {
		subsDone <- nil
	} else {
		go func() { subsDone <- p.sampleSubs(s, until) }()
	}
	p.recs = runClients(ctx, wl, d, until, budget)
	end := time.Now()
	if err := <-subsDone; err != nil {
		return nil, err
	}
	p.window = end.Sub(p.before.at)
	if p.after, err = takeSample(ctx, s, d, us); err != nil {
		return nil, err
	}
	if p.rssMB, err = s.peakRSSMB(); err != nil {
		return nil, err
	}
	p.deltas = deltas{}
	for _, u := range us {
		p.deltas.add(diffSnapshots(p.before.snaps[u], p.after.snaps[u]))
	}
	if traced {
		time.Sleep(settleSpans)
		if err := p.collectSpans(ctx, d, us, end); err != nil {
			return nil, err
		}
	}
	p.auditErr = errors.Join(wl.audit().err(), sweepAll(ctx, d, us, wl.sweepDays(), wl.ledger()))
	if err := s.exited(); err != nil {
		p.auditErr = errors.Join(p.auditErr, err)
	}
	return p, nil
}

// sampleSubs reads the SUT's CPU time at every sub-window boundary
// from the window's start until the window ends.
func (p *pass) sampleSubs(s *sut, until time.Time) error {
	from, prev := p.before.at, totalMs(p.before.sutCPU)
	for from.Before(until) {
		to := from.Add(subWindow)
		if to.After(until) {
			to = until
		}
		time.Sleep(time.Until(to))
		cpu, err := s.cpu()
		if err != nil {
			return err
		}
		now := totalMs(cpu)
		p.subs = append(p.subs, sub{from: from, to: to, cpuMs: now - prev})
		from, prev = to, now
	}
	return nil
}

func totalMs(cpu map[string]procCPU) float64 {
	var ms float64
	for _, c := range cpu {
		ms += c.Ms()
	}
	return ms
}

// runClients runs the clients closed-loop until the deadline or, when
// budget > 0, until that many ops have been issued, and returns every
// op record.
func runClients(ctx context.Context, wl workload, d *driver, until time.Time, budget int64) []opRec {
	per := make([][]opRec, numClients)
	var issued atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < numClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(until) {
				if budget > 0 && issued.Add(1) > budget {
					return
				}
				start := time.Now()
				rec := wl.step(ctx, d, c)
				rec.start = start
				per[c] = append(per[c], rec)
			}
		}(c)
	}
	wg.Wait()
	var out []opRec
	for _, recs := range per {
		out = append(out, recs...)
	}
	return out
}

func takeSample(ctx context.Context, s *sut, d *driver, us []string) (sample, error) {
	smp := sample{snaps: make(map[string]metrics.Snapshot, len(us))}
	for _, u := range us {
		var snap metrics.Snapshot
		if err := d.sys(ctx, u, "Metrics", nil, &snap); err != nil {
			return smp, fmt.Errorf("metrics of %s: %w", u, err)
		}
		smp.snaps[u] = snap
	}
	var err error
	if smp.sutCPU, err = s.cpu(); err != nil {
		return smp, err
	}
	if smp.driverCPU, err = readCPU("self"); err != nil {
		return smp, err
	}
	ws := d.wire.Snapshot()
	smp.wireBytes = ws.BytesSent + ws.BytesRecv
	smp.at = time.Now()
	return smp, nil
}

// collectSpans reads every node's span ring plus the driver's own and
// folds the traces of the window.
func (p *pass) collectSpans(ctx context.Context, d *driver, us []string, end time.Time) error {
	spans := d.tracer.Snapshot()
	p.dropped = d.tracer.Dropped()
	for _, u := range us {
		var got struct {
			Dropped int64         `json:"dropped"`
			Spans   []*trace.Span `json:"spans"`
		}
		if err := d.sys(ctx, u, "Traces", nil, &got); err != nil {
			return fmt.Errorf("traces of %s: %w", u, err)
		}
		p.dropped += got.Dropped
		p.wrapped += wrappedShards(got.Spans, p.before.at)
		if n := maxShardFill(got.Spans, p.before.at); n > p.maxFill {
			p.maxFill = n
		}
		spans = append(spans, got.Spans...)
	}
	p.fold = foldSpans(spans, p.before.at, end)
	return nil
}

// computeMetrics derives every metric of the run. diag lines are
// printed but not gated.
func computeMetrics(cfg config, p, t *pass) (map[string]metric, []string, error) {
	m := make(map[string]metric)
	var diag []string
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	var completed float64
	var all, reads, scheds, cancels []float64
	var nFailed int
	var outcomes [4]float64
	for _, r := range p.recs {
		all = append(all, r.ms)
		switch {
		case r.kind.isRead():
			reads = append(reads, r.ms)
		case r.kind == kSchedule:
			scheds = append(scheds, r.ms)
			outcomes[r.outcome]++
		default:
			cancels = append(cancels, r.ms)
		}
		if r.outcome == failed {
			nFailed++
		} else {
			completed++
		}
	}
	secs := p.window.Seconds()
	set("setup_s", median(p.setups), "s")
	set("fail_frac", ratio(float64(nFailed), float64(len(p.recs))), "frac")
	diag = append(diag, fmt.Sprintf("window %.3fs attempted %d completed %.0f failed %d fail_frac %.5f; whole-window throughput %.2f/s; setups_s %v",
		secs, len(p.recs), completed, nFailed, ratio(float64(nFailed), float64(len(p.recs))), completed/secs, p.setups))

	var errs []error
	subs, err := subFigures(p)
	if err != nil {
		errs = append(errs, err)
	}
	for _, f := range []struct {
		name, unit string
		get        func(subFigure) float64
	}{
		{"throughput_ops_s", "1/s", func(f subFigure) float64 { return f.throughput }},
		{"op_p50_ms", "ms", func(f subFigure) float64 { return f.p50 }},
		{"op_p90_ms", "ms", func(f subFigure) float64 { return f.p90 }},
		{"cpu_ms_per_op", "ms", func(f subFigure) float64 { return f.cpuMsPerOp }},
	} {
		xs := make([]float64, len(subs))
		for i, sf := range subs {
			xs[i] = f.get(sf)
		}
		set(f.name, median(xs), f.unit)
		diag = append(diag, fmt.Sprintf("%s per sub-window %s", f.name, fmtList(xs)))
	}

	lat := func(prefix string, xs []float64, required bool) {
		if len(xs) == 0 && !required {
			set(prefix+"_p50_ms", 0, "ms")
			set(prefix+"_p90_ms", 0, "ms")
			return
		}
		l, err := summarize(xs)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s latency: %w", prefix, err))
			return
		}
		set(prefix+"_p50_ms", l.P50, "ms")
		set(prefix+"_p90_ms", l.P90, "ms")
		p99 := "n/a (fewer than 1000 samples)"
		if l.P99OK {
			p99 = strconv.FormatFloat(l.P99, 'f', 3, 64) + " ms"
		}
		diag = append(diag, fmt.Sprintf("%s latency n=%d p99=%s max=%.3f ms", prefix, l.N, p99, l.Max))
	}
	byKind := make([][]float64, numKinds)
	failedBy := make([]int, numKinds)
	for _, r := range p.recs {
		byKind[r.kind] = append(byKind[r.kind], r.ms)
		if r.outcome == failed {
			failedBy[r.kind]++
		}
	}
	for k, xs := range byKind {
		if len(xs) > 0 {
			diag = append(diag, fmt.Sprintf("kind %s n=%d failed=%d p50=%.3f ms p90=%.3f ms",
				kindNames[k], len(xs), failedBy[k], quantile(xs, 0.5), quantile(xs, 0.9)))
		}
	}
	lat("window_op", all, true)
	lat("read", reads, false)
	lat("schedule", scheds, false)
	lat("cancel", cancels, false)

	var sutMs, dirMs, nodeMs float64
	for name, after := range p.after.sutCPU {
		ms := after.Ms() - p.before.sutCPU[name].Ms()
		sutMs += ms
		if name == "directory" {
			dirMs += ms
		} else {
			nodeMs += ms
		}
	}
	driverMs := p.after.driverCPU.Ms() - p.before.driverCPU.Ms()
	diag = append(diag, fmt.Sprintf("whole-window cpu_ms_per_op %.4f", ratio(sutMs, completed)))
	set("sut_rss_mb", p.rssMB, "MB")
	set("directory.cpu_us_per_op", ratio(dirMs*1000, completed), "us")
	set("node.cpu_us_per_op", ratio(nodeMs*1000, completed), "us")
	set("driver.cpu_us_per_op", ratio(driverMs*1000, completed), "us")
	set("driver.bytes_per_op", ratio(float64(p.after.wireBytes-p.before.wireBytes), completed), "bytes")

	nSched := outcomes[okConfirmed] + outcomes[okTentative] + outcomes[okRejected] + outcomes[failed]
	set("outcome.confirmed_frac", ratio(outcomes[okConfirmed], nSched), "frac")
	set("outcome.tentative_frac", ratio(outcomes[okTentative], nSched), "frac")
	set("outcome.rejected_frac", ratio(outcomes[okRejected], nSched), "frac")

	slowest := make(map[string]float64)
	for _, snap := range p.after.snaps {
		for _, e := range snap.Entries {
			if e.Layer == metrics.LayerServer && strings.HasPrefix(e.Service, "cal.") && e.MaxMs > slowest[e.Method] {
				slowest[e.Method] = e.MaxMs
			}
		}
	}
	diag = append(diag, fmt.Sprintf("slowest server-side calendar call by method since boot, ms: %v", slowest))

	d := p.deltas
	perOp := func(x float64) float64 { return ratio(x, completed) }
	set("engine.calls_per_op", perOp(float64(d.sum(layerIs(metrics.LayerClient, "")).Count)), "count")
	set("listener.calls_per_op", perOp(float64(d.sum(func(k seriesKey) bool {
		return k.Layer == metrics.LayerServer && !strings.HasPrefix(k.Service, "sys.")
	}).Count)), "count")
	set("listener.busy_us_per_op", perOp(d.sum(layerIs(metrics.LayerServer, "cal.")).SumUs), "us")
	set("links.busy_us_per_op", perOp(d.sum(layerIs(metrics.LayerServer, "links.")).SumUs), "us")
	outcome := func(code string) func(seriesKey) bool {
		return func(k seriesKey) bool {
			return k.Layer == metrics.LayerLinks && k.Service == "negotiate" && k.Method == "outcome" &&
				(code == "*" || string(k.Code) == code)
		}
	}
	negs := float64(d.sum(outcome("*")).Count)
	set("links.negotiations_per_op", perOp(negs), "count")
	set("links.ok_frac", ratio(float64(d.sum(outcome("")).Count), negs), "frac")
	set("links.conflicts_per_op", perOp(float64(d.sum(outcome("conflict")).Count)), "count")
	walOp := func(method string) delta {
		return d.sum(func(k seriesKey) bool { return k.Layer == metrics.LayerWAL && k.Method == method })
	}
	commits, fsyncs := walOp("commit"), walOp("fsync")
	set("wal.commits_per_op", perOp(float64(commits.Count)), "count")
	set("wal.commits_per_fsync", ratio(float64(commits.Count), float64(fsyncs.Count)), "count")
	set("wal.commit_wait_us", ratio(commits.SumUs, float64(commits.Count)), "us")
	set("wal.fsync_us", ratio(fsyncs.SumUs, float64(fsyncs.Count)), "us")

	if t != nil {
		f := t.fold
		ops := float64(f.Ops)
		for _, layer := range foldLayers {
			set(layer+".self_us", ratio(float64(f.Self[layer].Microseconds()), ops), "us")
		}
		set("directory.lookups_per_op", ratio(float64(f.Lookups), ops), "count")
		set("trace.accounted_frac", ratio(float64(f.OpSelf), float64(f.OpTime)), "frac")
		// The traced window is short (its op budget), so it is compared
		// with the untraced ops issued as early in their window.
		var early []float64
		for _, r := range p.recs {
			if r.start.Sub(p.before.at) < t.window {
				early = append(early, r.ms)
			}
		}
		untracedMean := mean(early)
		set("trace.overhead_frac", ratio(mean(f.OpTimes), untracedMean)-1, "frac")
		set("trace.dropped_spans", float64(t.dropped+int64(f.Orphans)), "count")
		diag = append(diag, fmt.Sprintf("traced ops %d (budget %d) in %.3fs; mean op %.3f ms traced vs %.3f ms untraced; median traced op %.3f ms, of which the median op's spans account for %.4f; tracer drops %d, orphan spans %d, wrapped ring shards %d, fullest shard %d/%d window spans",
			f.Ops, tracedBudget[cfg.workload], t.window.Seconds(), mean(f.OpTimes), untracedMean, median(f.OpTimes), median(f.Shares),
			t.dropped, f.Orphans, t.wrapped, t.maxFill, ringShardCap))
		if t.dropped+int64(f.Orphans) > 0 || t.wrapped > 0 {
			errs = append(errs, fmt.Errorf("traced run lost spans: %d dropped, %d orphaned, %d ring shards wrapped into the window",
				t.dropped, f.Orphans, t.wrapped))
		}
		if f.Ops == 0 {
			errs = append(errs, errors.New("traced run recorded no op"))
		}
	}
	return m, diag, errors.Join(errs...)
}

// subFigure is one sub-window's end-to-end figures.
type subFigure struct {
	throughput, p50, p90, cpuMsPerOp float64
}

// subFigures computes each sub-window's throughput, latency
// percentiles and CPU per op, over the ops issued in it.
func subFigures(p *pass) ([]subFigure, error) {
	out := make([]subFigure, 0, len(p.subs))
	for i, sw := range p.subs {
		var ms []float64
		var completed float64
		for _, r := range p.recs {
			if !r.start.Before(sw.from) && r.start.Before(sw.to) {
				ms = append(ms, r.ms)
				if r.outcome != failed {
					completed++
				}
			}
		}
		l, err := summarize(ms)
		if err != nil {
			return nil, fmt.Errorf("sub-window %d latency: %w", i, err)
		}
		out = append(out, subFigure{
			throughput: completed / sw.to.Sub(sw.from).Seconds(),
			p50:        l.P50,
			p90:        l.P90,
			cpuMsPerOp: ratio(sw.cpuMs, completed),
		})
	}
	if len(out) == 0 {
		return nil, errors.New("no sub-window was measured")
	}
	return out, nil
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'g', 5, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of xs (diagnostics only).
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankOf(len(s), q)-1]
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// cleanStale removes run directories left by a driver that died
// without its cleanup (its SUT processes died with it).
func cleanStale(runs string) {
	entries, err := os.ReadDir(runs)
	if err != nil {
		return
	}
	for _, e := range entries {
		pid, _, _ := strings.Cut(e.Name(), "-")
		if _, err := os.Stat("/proc/" + pid); err != nil {
			_ = os.RemoveAll(filepath.Join(runs, e.Name()))
		}
	}
}

// printProvenance records what was measured and on what.
func printProvenance(cfg config) {
	commit := "unknown (not a git checkout)"
	if out, err := exec.Command("git", "-C", cfg.root, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	fmt.Printf("calbench workload=%s seed=%d seconds=%d trace=%t\n", cfg.workload, cfg.seed, cfg.seconds, cfg.traced)
	fmt.Printf("provenance commit=%s source_sha256=%s go=%s nproc=%d gomaxprocs=%d fsync=group transport=tcp-loopback(127.0.0.1) nodes=%d clients=%d conns_per_peer=2 op_deadline=%v\n",
		commit, sourceHash(cfg.root), runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), numNodes, numClients, opDeadline)
}

// sourceHash digests every Go source and module file of the checkout,
// so a run is tied to its code even outside git.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && (e.Name() == ".git" || e.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if e.IsDir() || !(strings.HasSuffix(path, ".go") || e.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown (" + err.Error() + ")"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
