package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/directory"
	"repro/internal/transport"
)

// sutProc is one launched system-under-test process.
type sutProc struct {
	name string // "directory" or the node's user
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once the process has been reaped
}

func (p *sutProc) pid() string { return strconv.Itoa(p.cmd.Process.Pid) }

// sut is one deployment: a syddirectory plus one sydnode per user,
// each node with its own data directory under runDir.
type sut struct {
	runDir  string
	dirAddr string
	procs   []*sutProc // procs[0] is the directory

	stopOnce sync.Once
}

// live tracks every deployment not yet stopped, so an interrupt can
// tear them all down.
var live struct {
	sync.Mutex
	suts map[*sut]bool
}

// stopAll stops every live deployment (signal path).
func stopAll() {
	live.Lock()
	suts := make([]*sut, 0, len(live.suts))
	for s := range live.suts {
		suts = append(suts, s)
	}
	live.Unlock()
	for _, s := range suts {
		s.stop()
	}
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// spawn starts bin with args, sending its stdout and stderr to
// logPath (sydnode prints every meeting notification to stdout, so an
// unread pipe would eventually block it).
func spawn(name, bin, logPath string, args ...string) (*sutProc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// Own process group, and killed with the driver should it die
	// without running its cleanup.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &sutProc{name: name, cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // exit status is irrelevant: stop always kills
		close(p.done)
	}()
	return p, nil
}

// sutConfig selects how the deployment runs.
type sutConfig struct {
	binDir string
	runDir string
	users  []string
	traced bool // nodes head-sample every trace
}

// startSUT launches the directory and the nodes and waits until every
// node has registered and published its calendar service.
func startSUT(ctx context.Context, cfg sutConfig) (*sut, error) {
	if err := os.MkdirAll(cfg.runDir, 0o755); err != nil {
		return nil, err
	}
	s := &sut{runDir: cfg.runDir}
	live.Lock()
	if live.suts == nil {
		live.suts = make(map[*sut]bool)
	}
	live.suts[s] = true
	live.Unlock()

	fail := func(err error) (*sut, error) {
		s.dumpLogs()
		s.stop()
		return nil, err
	}
	addr, err := freeAddr()
	if err != nil {
		return fail(err)
	}
	s.dirAddr = addr
	p, err := spawn("directory", filepath.Join(cfg.binDir, "syddirectory"),
		filepath.Join(cfg.runDir, "directory.log"), "-addr", addr)
	if err != nil {
		return fail(err)
	}
	s.procs = append(s.procs, p)
	if err := waitTCP(ctx, addr, p); err != nil {
		return fail(err)
	}
	for _, u := range cfg.users {
		args := []string{
			"-user", u, "-dir", addr, "-addr", "127.0.0.1:0",
			"-data-dir", filepath.Join(cfg.runDir, "data-"+u), "-fsync", "group",
		}
		if cfg.traced {
			args = append(args, "-trace-sample", "1")
		}
		p, err := spawn(u, filepath.Join(cfg.binDir, "sydnode"), filepath.Join(cfg.runDir, u+".log"), args...)
		if err != nil {
			return fail(err)
		}
		s.procs = append(s.procs, p)
	}
	if err := s.waitRegistered(ctx, cfg.users); err != nil {
		return fail(err)
	}
	return s, nil
}

// waitTCP blocks until addr accepts connections or p exits.
func waitTCP(ctx context.Context, addr string, p *sutProc) error {
	for {
		c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err == nil {
			return c.Close()
		}
		select {
		case <-p.done:
			return fmt.Errorf("%s exited before listening on %s", p.name, addr)
		case <-ctx.Done():
			return fmt.Errorf("%s never listened on %s: %w", p.name, addr, ctx.Err())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// waitRegistered polls the directory until every user is online and
// its cal.<user> service resolves.
func (s *sut) waitRegistered(ctx context.Context, users []string) error {
	tcp := transport.NewTCP()
	defer tcp.Close()
	dir := directory.NewClient(tcp, s.dirAddr)
	for {
		if err := s.exited(); err != nil {
			return err
		}
		if s.allRegistered(ctx, dir, users) {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("nodes never registered: %w", ctx.Err())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func (s *sut) allRegistered(ctx context.Context, dir *directory.Client, users []string) bool {
	infos, err := dir.ListUsers(ctx)
	if err != nil {
		return false
	}
	online := make(map[string]bool, len(infos))
	for _, u := range infos {
		online[u.ID] = u.Online
	}
	for _, u := range users {
		if !online[u] {
			return false
		}
		if _, err := dir.ResolveService(ctx, "cal."+u); err != nil {
			return false
		}
	}
	return true
}

// exited reports the first SUT process that is no longer running.
func (s *sut) exited() error {
	for _, p := range s.procs {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited unexpectedly (log %s)", p.name, p.log.Name())
		default:
		}
	}
	return nil
}

// cpu reads each SUT process's CPU time, keyed by process name.
func (s *sut) cpu() (map[string]procCPU, error) {
	out := make(map[string]procCPU, len(s.procs))
	for _, p := range s.procs {
		c, err := readCPU(p.pid())
		if err != nil {
			return nil, fmt.Errorf("cpu of %s: %w", p.name, err)
		}
		out[p.name] = c
	}
	return out, nil
}

// peakRSSMB sums VmHWM across the SUT processes.
func (s *sut) peakRSSMB() (float64, error) {
	var kb int64
	for _, p := range s.procs {
		v, err := readPeakRSS(p.pid())
		if err != nil {
			return 0, fmt.Errorf("rss of %s: %w", p.name, err)
		}
		kb += v
	}
	return float64(kb) / 1024, nil
}

// dumpLogs copies the tail of every SUT log to stderr (failure path).
func (s *sut) dumpLogs() {
	for _, p := range s.procs {
		data, err := os.ReadFile(p.log.Name())
		if err != nil {
			continue
		}
		lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
		if len(lines) > 15 {
			lines = lines[len(lines)-15:]
		}
		fmt.Fprintf(os.Stderr, "--- %s log tail ---\n%s\n", p.name, strings.Join(lines, "\n"))
	}
}

// stop kills every SUT process, waits until each has been reaped, and
// removes the run directory with the nodes' data. Safe to call twice.
func (s *sut) stop() {
	s.stopOnce.Do(func() {
		for _, p := range s.procs {
			_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
		}
		var errs []error
		for _, p := range s.procs {
			select {
			case <-p.done:
			case <-time.After(10 * time.Second):
				errs = append(errs, fmt.Errorf("%s (pid %d) did not exit", p.name, p.cmd.Process.Pid))
			}
			p.log.Close()
		}
		if err := os.RemoveAll(s.runDir); err != nil {
			errs = append(errs, err)
		}
		if err := errors.Join(errs...); err != nil {
			fmt.Fprintf(os.Stderr, "calbench: teardown: %v\n", err)
		}
		live.Lock()
		delete(live.suts, s)
		live.Unlock()
	})
}
