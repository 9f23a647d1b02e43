// Command sydnode runs one SyD device node over real TCP: the kernel
// (listener, engine, events, links) plus the calendar application —
// the role an iPAQ played in the paper's prototype.
//
//	sydnode -user phil -dir 127.0.0.1:7000 -addr 127.0.0.1:7101
//
// Notifications (the §5.1 meeting e-mails) are printed to stdout.
//
// # Replication
//
// With -data-dir and -lease-ttl the node becomes the primary of a
// replica set: it holds a directory lease and ships its write-ahead
// log to the followers named by -replicas. A follower is a second
// sydnode process started with -replica-of:
//
//	sydnode -user phil -data-dir /var/lib/syd/phil \
//	    -lease-ttl 10s -replicas 10.0.0.2:7201,10.0.0.3:7201
//	sydnode -replica-of phil -addr 10.0.0.2:7201 -data-dir /var/lib/syd/phil-r1 -lease-ttl 10s
//	sydnode -replica-of phil -addr 10.0.0.3:7201 -data-dir /var/lib/syd/phil-r2 -lease-ttl 10s
//
// When the primary dies, the best-caught-up follower wins the expired
// lease, boots a full node over its replicated data directory,
// re-points the directory bindings, and keeps serving as phil.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/calendar"
	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/links"
	"repro/internal/metrics"
	"repro/internal/notify"
	"repro/internal/offline"
	"repro/internal/replication"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wal"
)

// serveDebug exposes the stock net/http/pprof handlers plus a
// plaintext dump of the node's retained traces (stitched flame trees,
// slowest first), a JSONL export for offline analysis, and the
// node's replication status as JSON.
func serveDebug(addr string, tracer *trace.Tracer, replStatus func() (replication.Status, bool)) {
	mux := http.DefaultServeMux // pprof registered itself here
	mux.HandleFunc("/traces", func(w http.ResponseWriter, r *http.Request) {
		if tracer == nil {
			http.Error(w, "tracing is off (start with -trace-sample or -trace-slow)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, t := range trace.Stitch(tracer.Snapshot()) {
			w.Write([]byte(t.Render()))
		}
	})
	mux.HandleFunc("/traces.jsonl", func(w http.ResponseWriter, r *http.Request) {
		if tracer == nil {
			http.Error(w, "tracing is off (start with -trace-sample or -trace-slow)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = trace.WriteJSONL(w, tracer.Snapshot())
	})
	mux.HandleFunc("/replication", func(w http.ResponseWriter, r *http.Request) {
		st, ok := replStatus()
		if !ok {
			http.Error(w, "replication is off (start with -lease-ttl or -replica-of)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(st)
	})
	log.Printf("sydnode: debug server (pprof, /traces, /replication) on %s", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		log.Printf("sydnode: debug server: %v", err)
	}
}

// splitList parses a comma-separated flag value.
func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func main() {
	user := flag.String("user", "", "SyD user id (required unless -replica-of)")
	dirAddr := flag.String("dir", "127.0.0.1:7000", "directory server address")
	cpAddr := flag.String("control-plane", "", "sharded-directory control plane address (overrides -dir; use syddirectory -shards N)")
	addr := flag.String("addr", "127.0.0.1:0", "address to bind")
	priority := flag.Int("priority", 0, "user priority (§6)")
	statePath := flag.String("state", "", "optional path to persist the device database across restarts (legacy whole-DB snapshot; prefer -data-dir)")
	dataDir := flag.String("data-dir", "", "durable data directory (write-ahead log + checkpoints); the device database survives crashes")
	checkpointEvery := flag.Duration("checkpoint-interval", time.Minute, "with -data-dir: snapshot the database and trim the log this often (0 = only at shutdown)")
	fsyncPolicy := flag.String("fsync", "group", "with -data-dir: fsync policy — group (batched group commit), always (fsync per commit), none")
	introspect := flag.Bool("introspect", true, "publish the sys.<user> introspection service (Services/Methods/Metrics)")
	routeCacheTTL := flag.Duration("route-cache", 2*time.Second, "engine directory route cache TTL (0 disables)")
	poolSize := flag.Int("conn-pool", 0, "TCP connections per peer (0 = min(4, GOMAXPROCS))")
	lockTTL := flag.Duration("lock-ttl", 0, "negotiation mark (phase-1 lock) TTL before an unresolved lock may be stolen (0 = links default)")
	commitRetry := flag.Duration("commit-retry", 0, "base backoff between commit-retry sweeper rounds for in-doubt negotiations (0 = links default)")
	commitRetryMax := flag.Int("commit-retry-max", 0, "commit-retry rounds before a journaled negotiation is expired as a permanent failure (0 = links default)")
	presumeAbort := flag.Duration("presume-abort-after", 0, "how long an in-doubt participant pins a mark while its coordinator is unreachable before presuming abort (0 = links default)")
	traceSample := flag.Float64("trace-sample", 0, "head-sample this fraction of traces (0..1; slow and in-doubt traces are always kept when tracing is on)")
	traceSlow := flag.Duration("trace-slow", 0, "retain any trace containing a span at least this slow; enables tracing when set (0 disables slow retention)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof, /traces and /replication on this address (e.g. 127.0.0.1:6060; empty disables)")
	replicaOf := flag.String("replica-of", "", "run as a WAL-shipping follower for this user (requires -data-dir and -lease-ttl; promotes to primary when the lease expires)")
	replicasFlag := flag.String("replicas", "", "comma-separated follower addresses advertised on every lease renewal (the promotion candidate set)")
	leaseTTL := flag.Duration("lease-ttl", 0, "replication lease TTL; with -data-dir the node serves as a lease-holding primary (0 = replication off)")
	offlineQueue := flag.Int("offline-queue", 0, "enable disconnected operation with an op queue of this capacity (writes queue locally while partitioned and sync on reconnect; 0 disables)")
	offlineOverflow := flag.String("offline-overflow", "drop-oldest", "with -offline-queue: at-capacity policy — drop-oldest or reject-new")
	syncRelevance := flag.Bool("sync-relevance", true, "with -offline-queue: serve reconnect Pulls relevance-filtered (false ships full state — baseline for comparison)")
	flag.Parse()

	net := transport.NewTCP(transport.WithPoolSize(*poolSize))
	var replStatus atomic.Value // func() (replication.Status, bool)
	replStatus.Store(func() (replication.Status, bool) { return replication.Status{}, false })
	statusFn := func() (replication.Status, bool) {
		return replStatus.Load().(func() (replication.Status, bool))()
	}

	if *replicaOf != "" {
		runFollower(net, &replStatus, statusFn, followerParams{
			user: *replicaOf, dirAddr: *dirAddr, cpAddr: *cpAddr, addr: *addr,
			dataDir: *dataDir, leaseTTL: *leaseTTL, replicas: splitList(*replicasFlag),
			debugAddr: *debugAddr, priority: *priority,
			introspect: *introspect, routeCacheTTL: *routeCacheTTL,
		})
		return
	}

	if *user == "" {
		log.Fatal("sydnode: -user is required")
	}
	sync, err := wal.ParseSyncPolicy(*fsyncPolicy)
	if err != nil {
		log.Fatalf("sydnode: %v", err)
	}

	opts := []core.Option{
		core.WithMetrics(metrics.Default()),
		core.WithRouteCache(*routeCacheTTL),
	}
	if *introspect {
		opts = append(opts, core.WithIntrospection())
	}
	if *dataDir != "" {
		opts = append(opts, core.WithDurability(*dataDir, sync, *checkpointEvery))
	}
	if *leaseTTL > 0 {
		opts = append(opts, core.WithReplication(*leaseTTL, splitList(*replicasFlag)...))
	}
	if *offlineQueue > 0 {
		policy := offline.Overflow(*offlineOverflow)
		if policy != offline.DropOldest && policy != offline.RejectNew {
			log.Fatalf("sydnode: bad -offline-overflow %q (want drop-oldest or reject-new)", *offlineOverflow)
		}
		opts = append(opts, core.WithOfflineMode(*offlineQueue, policy, *syncRelevance))
	}
	var tracer *trace.Tracer
	if *traceSample > 0 || *traceSlow > 0 {
		tracer = trace.New(*user,
			trace.WithSampleRate(*traceSample), trace.WithSlowThreshold(*traceSlow))
		opts = append(opts, core.WithTracer(tracer))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	node, err := core.Start(ctx, core.Config{
		User:             *user,
		Priority:         *priority,
		Net:              net,
		DirAddr:          *dirAddr,
		ControlPlaneAddr: *cpAddr,
		ListenAddr:       *addr,
		HeartbeatEvery:   5 * time.Second,
		ExpireEvery:      30 * time.Second,
		DirCacheTTL:      2 * time.Second,
		LockTTL:          *lockTTL,
		LinkTuning: links.Tuning{
			RetryBase:         *commitRetry,
			MaxAttempts:       *commitRetryMax,
			PresumeAbortAfter: *presumeAbort,
		},
	}, opts...)
	cancel()
	if err != nil {
		log.Fatalf("sydnode: %v", err)
	}
	if node.Repl != nil {
		repl := node.Repl
		replStatus.Store(func() (replication.Status, bool) { return repl.Status(), true })
	}
	cal, err := calendar.New(context.Background(), node, calendar.WithNotifier(notify.NewWriter(os.Stdout)))
	if err != nil {
		log.Fatalf("sydnode: calendar: %v", err)
	}
	if node.Offline != nil {
		cal.EnableSync(node.Offline)
	}
	if *statePath != "" && *dataDir != "" {
		log.Printf("sydnode: -data-dir set; ignoring legacy -state %s", *statePath)
		*statePath = ""
	}
	if *statePath != "" {
		if data, rerr := os.ReadFile(*statePath); rerr == nil {
			if err := cal.Restore(data); err != nil {
				log.Printf("sydnode: restore %s failed (%v); starting fresh", *statePath, err)
			} else {
				log.Printf("sydnode: restored device state from %s", *statePath)
			}
		}
	}
	if *debugAddr != "" {
		go serveDebug(*debugAddr, tracer, statusFn)
	}
	dirDesc := "directory " + *dirAddr
	if *cpAddr != "" {
		dirDesc = "sharded directory via control plane " + *cpAddr
	}
	role := ""
	if node.Repl != nil {
		role = ", replicated primary"
	}
	log.Printf("sydnode: %s serving on %s (%s%s)", *user, node.Addr(), dirDesc, role)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Printf("sydnode: %s shutting down", *user)
	if *statePath != "" {
		if snap, serr := cal.Checkpoint(); serr == nil {
			if werr := os.WriteFile(*statePath, snap, 0o644); werr != nil {
				log.Printf("sydnode: save state: %v", werr)
			}
		} else {
			log.Printf("sydnode: checkpoint: %v", serr)
		}
	}
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shutCancel()
	if err := node.Close(shutCtx); err != nil {
		log.Printf("sydnode: close: %v", err)
	}
}

type followerParams struct {
	user, dirAddr, cpAddr, addr, dataDir, debugAddr string
	leaseTTL                                        time.Duration
	replicas                                        []string
	priority                                        int
	introspect                                      bool
	routeCacheTTL                                   time.Duration
}

// runFollower runs the node as a warm standby: pull WAL frames, watch
// the lease, and on expiry promote into a full serving node over the
// replicated data directory.
func runFollower(net transport.Network, replStatus *atomic.Value, statusFn func() (replication.Status, bool), p followerParams) {
	if p.dataDir == "" {
		log.Fatal("sydnode: -replica-of requires -data-dir")
	}
	if p.leaseTTL <= 0 {
		log.Fatal("sydnode: -replica-of requires -lease-ttl (must match the primary's)")
	}
	var dir *directory.Client
	if p.cpAddr != "" {
		dir = directory.NewShardedClient(net, p.cpAddr)
	} else {
		dir = directory.NewClient(net, p.dirAddr)
	}
	pullEvery := p.leaseTTL / 10
	if pullEvery < 100*time.Millisecond {
		pullEvery = 100 * time.Millisecond
	}
	checkEvery := p.leaseTTL / 4
	if checkEvery < 250*time.Millisecond {
		checkEvery = 250 * time.Millisecond
	}

	promoted := make(chan *core.Node, 1)
	f, err := replication.StartFollower(context.Background(), replication.FollowerConfig{
		User:             p.user,
		Net:              net,
		Dir:              dir,
		DataDir:          p.dataDir,
		ListenAddr:       p.addr,
		LeaseTTL:         p.leaseTTL,
		ControlPlaneAddr: p.cpAddr,
		Metrics:          metrics.Default(),
		PullEvery:        pullEvery,
		LeaseCheckEvery:  checkEvery,
		Logf:             log.Printf,
		Promote: func(ctx context.Context, holder string) (string, error) {
			opts := []core.Option{
				core.WithMetrics(metrics.Default()),
				core.WithRouteCache(p.routeCacheTTL),
				core.WithDurability(p.dataDir, wal.SyncGroup, time.Minute),
			}
			if p.introspect {
				opts = append(opts, core.WithIntrospection())
			}
			node, err := core.Start(ctx, core.Config{
				User:             p.user,
				Priority:         p.priority,
				Net:              net,
				DirAddr:          p.dirAddr,
				ControlPlaneAddr: p.cpAddr,
				// The follower's replication listener on p.addr is closed
				// by the time Promote runs, so the promoted node serves at
				// the address the operator already advertised in -replicas.
				ListenAddr:     p.addr,
				HeartbeatEvery: 5 * time.Second,
				ExpireEvery:    30 * time.Second,
				DirCacheTTL:    2 * time.Second,
				LeaseTTL:       p.leaseTTL,
				LeaseHolder:    holder,
				Replicas:       p.replicas,
			}, opts...)
			if err != nil {
				return "", err
			}
			if _, err := calendar.New(ctx, node, calendar.WithNotifier(notify.NewWriter(os.Stdout))); err != nil {
				shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				_ = node.Close(shutCtx)
				return "", err
			}
			repl := node.Repl
			replStatus.Store(func() (replication.Status, bool) { return repl.Status(), true })
			promoted <- node
			log.Printf("sydnode: promoted to primary for %s, serving on %s", p.user, node.Addr())
			return node.Addr(), nil
		},
	})
	if err != nil {
		log.Fatalf("sydnode: follower: %v", err)
	}
	replStatus.Store(func() (replication.Status, bool) { return f.Status(), true })
	if p.debugAddr != "" {
		go serveDebug(p.debugAddr, nil, statusFn)
	}
	log.Printf("sydnode: follower for %s on %s (pull %v, lease check %v)", p.user, f.Addr(), pullEvery, checkEvery)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Printf("sydnode: follower for %s shutting down", p.user)
	if err := f.Close(); err != nil {
		log.Printf("sydnode: close follower: %v", err)
	}
	select {
	case node := <-promoted:
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := node.Close(shutCtx); err != nil {
			log.Printf("sydnode: close: %v", err)
		}
	default:
	}
}
