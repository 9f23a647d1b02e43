// Command syddirectory runs a standalone SyDDirectory name server
// over real TCP — the deployment role the paper's "Name Server" plays
// (§5.2): user/service/group registry and proxy bindings for a SyD
// deployment.
//
//	syddirectory -addr 127.0.0.1:7000 [-state /var/lib/syd/dir.json]
//
// With -state, the registry is loaded at startup (if the file exists)
// and saved on shutdown and periodically, so a directory restart does
// not force every device to re-register.
//
// With -shards N (N > 1) the process runs a sharded directory: the
// control plane binds -addr and publishes the epoch-versioned shard
// map, and N shard servers bind -shard-addrs (comma-separated; when
// omitted, consecutive ports above -addr). Clients point -control-plane
// at -addr instead of -dir. Each shard persists its own slice of the
// registry to <state>.shardK:
//
//	syddirectory -addr 127.0.0.1:7000 -shards 4 \
//	    -shard-addrs 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003,127.0.0.1:7004 \
//	    -state /var/lib/syd/dir.json
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	stdnet "net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/controlplane"
	"repro/internal/directory"
	"repro/internal/replication"
	"repro/internal/transport"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7000", "address to bind (the control plane's address when -shards > 1)")
	ttl := flag.Duration("ttl", directory.DefaultHeartbeatTTL, "heartbeat TTL before a silent device counts as offline")
	statePath := flag.String("state", "", "optional path to persist the registry across restarts")
	saveEvery := flag.Duration("save-every", 30*time.Second, "periodic save interval when -state is set")
	poolSize := flag.Int("conn-pool", 0, "TCP connections per peer (0 = min(4, GOMAXPROCS))")
	shards := flag.Int("shards", 1, "number of directory shards (1 = single unsharded server)")
	shardAddrs := flag.String("shard-addrs", "", "comma-separated shard bind addresses (defaults to consecutive ports above -addr)")
	healthSweep := flag.Duration("health-sweep", 0, "run the replication health sweeper this often: expired leases whose primary is gone get the best follower promoted (0 = off)")
	flag.Parse()

	net := transport.NewTCP(transport.WithPoolSize(*poolSize))

	if *shards <= 1 {
		// Single-server mode: exactly the pre-shard deployment.
		srv := loadOrNew(*statePath, *ttl)
		ln, err := net.Listen(*addr, srv.Handler())
		if err != nil {
			log.Fatalf("syddirectory: %v", err)
		}
		log.Printf("syddirectory: serving on %s (heartbeat TTL %v)", ln.Addr(), *ttl)
		startSweeper(net, directory.NewClient(net, ln.Addr()), *healthSweep)
		run([]saver{{srv, *statePath}}, *saveEvery, ln.Close)
		return
	}

	binds, err := shardBinds(*addr, *shardAddrs, *shards)
	if err != nil {
		log.Fatalf("syddirectory: %v", err)
	}
	shardList := make([]controlplane.Shard, *shards)
	servers := make([]*directory.Server, *shards)
	savers := make([]saver, 0, *shards)
	var closers []func() error
	for i := 0; i < *shards; i++ {
		id := fmt.Sprintf("shard%d", i)
		path := shardStatePath(*statePath, i)
		srv := loadOrNew(path, *ttl, directory.WithShard(id))
		ln, err := net.Listen(binds[i], srv.Handler())
		if err != nil {
			log.Fatalf("syddirectory: shard %s: %v", id, err)
		}
		shardList[i] = controlplane.Shard{ID: id, Addr: ln.Addr()}
		servers[i] = srv
		savers = append(savers, saver{srv, path})
		closers = append(closers, ln.Close)
	}
	ctl := controlplane.NewController(shardList)
	for _, srv := range servers {
		ctl.Subscribe(srv.SetTable)
	}
	cln, err := net.Listen(*addr, ctl.Handler())
	if err != nil {
		log.Fatalf("syddirectory: control plane: %v", err)
	}
	closers = append(closers, cln.Close)
	startSweeper(net, directory.NewShardedClient(net, cln.Addr()), *healthSweep)
	log.Printf("syddirectory: control plane on %s, %d shards (heartbeat TTL %v)", cln.Addr(), *shards, *ttl)
	for _, s := range shardList {
		log.Printf("syddirectory: %s on %s", s.ID, s.Addr)
	}
	run(savers, *saveEvery, func() error {
		var first error
		for _, c := range closers {
			if err := c(); err != nil && first == nil {
				first = err
			}
		}
		return first
	})
}

// startSweeper runs the replication health sweeper against this
// directory when -health-sweep is set: the control-plane backstop that
// promotes a follower when a dead primary's followers cannot see the
// expiry themselves.
func startSweeper(net transport.Network, dir *directory.Client, every time.Duration) {
	if every <= 0 {
		return
	}
	sweeper, err := replication.NewSweeper(replication.SweeperConfig{
		Net: net, Dir: dir, Grace: every, Logf: log.Printf,
	})
	if err != nil {
		log.Fatalf("syddirectory: health sweeper: %v", err)
	}
	sweeper.Start(context.Background(), every)
	log.Printf("syddirectory: replication health sweeper every %v", every)
}

// saver pairs a shard server with its persistence path ("" = none).
type saver struct {
	srv  *directory.Server
	path string
}

// run drives the periodic-save loop until SIGINT/SIGTERM, then saves
// once more and closes the listeners.
func run(savers []saver, saveEvery time.Duration, closeAll func() error) {
	saveAll := func() {
		for _, s := range savers {
			if s.path != "" {
				save(s.srv, s.path)
			}
		}
	}
	persisting := false
	for _, s := range savers {
		if s.path != "" {
			persisting = true
		}
	}
	stopSave := make(chan struct{})
	if persisting {
		go func() {
			t := time.NewTicker(saveEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					saveAll()
				case <-stopSave:
					return
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Printf("syddirectory: shutting down")
	close(stopSave)
	saveAll()
	if err := closeAll(); err != nil {
		log.Printf("syddirectory: close: %v", err)
	}
}

// shardBinds resolves the shard bind addresses: the -shard-addrs list
// when given, otherwise the -addr host with consecutive ports above
// the control plane's.
func shardBinds(cpAddr, list string, n int) ([]string, error) {
	if list != "" {
		binds := strings.Split(list, ",")
		if len(binds) != n {
			return nil, fmt.Errorf("-shard-addrs has %d addresses, -shards is %d", len(binds), n)
		}
		for i := range binds {
			binds[i] = strings.TrimSpace(binds[i])
		}
		return binds, nil
	}
	host, portStr, err := stdnet.SplitHostPort(cpAddr)
	if err != nil {
		return nil, fmt.Errorf("cannot derive shard addresses from -addr %q: %v (use -shard-addrs)", cpAddr, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil || port == 0 {
		return nil, fmt.Errorf("cannot derive shard addresses from -addr %q (use -shard-addrs)", cpAddr)
	}
	binds := make([]string, n)
	for i := 0; i < n; i++ {
		binds[i] = stdnet.JoinHostPort(host, strconv.Itoa(port+1+i))
	}
	return binds, nil
}

// shardStatePath derives shard i's persistence path ("" stays "").
func shardStatePath(base string, i int) string {
	if base == "" {
		return ""
	}
	return fmt.Sprintf("%s.shard%d", base, i)
}

// loadOrNew restores the registry from statePath when possible.
func loadOrNew(statePath string, ttl time.Duration, opts ...directory.Option) *directory.Server {
	opts = append([]directory.Option{directory.WithTTL(ttl)}, opts...)
	if statePath != "" {
		if f, err := os.Open(statePath); err == nil {
			defer f.Close()
			srv, rerr := directory.RestoreServer(f, opts...)
			if rerr == nil {
				log.Printf("syddirectory: restored registry from %s", statePath)
				return srv
			}
			log.Printf("syddirectory: restore %s failed (%v); starting fresh", statePath, rerr)
		}
	}
	return directory.NewServer(opts...)
}

// save snapshots the registry atomically.
func save(srv *directory.Server, path string) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		log.Printf("syddirectory: save: %v", err)
		return
	}
	if err := srv.Snapshot(f); err != nil {
		f.Close()
		os.Remove(tmp)
		log.Printf("syddirectory: save: %v", err)
		return
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		log.Printf("syddirectory: save: %v", err)
		return
	}
	if err := os.Rename(tmp, path); err != nil {
		log.Printf("syddirectory: save: %v", err)
	}
}
