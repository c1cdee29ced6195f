package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDir is where the harness keeps everything it creates inside the
// checkout: the two product binaries and, when no tmpfs is usable, the
// WAL data directories. The root .gitignore names it.
const buildDir = ".bench_build"

// readyTimeout bounds how long a started process may take to announce
// its listen address. mixed-wal recovery of 600 000 records takes well
// under a second; ten times that means the process is wedged.
const readyTimeout = 20 * time.Second

// buildBinaries compiles caram-server and caram-router into buildDir
// once per invocation. go build is a no-op when the cache is warm, and
// the time is never part of setup_s; the bound keeps a wedged toolchain
// from outliving the caller's patience.
func buildBinaries() (binaries, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Minute)
	defer cancel()
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return binaries{}, fmt.Errorf("create %s: %w", buildDir, err)
	}
	abs, err := filepath.Abs(buildDir)
	if err != nil {
		return binaries{}, fmt.Errorf("resolve %s: %w", buildDir, err)
	}
	bins := binaries{server: filepath.Join(abs, "caram-server"), router: filepath.Join(abs, "caram-router")}
	for bin, pkg := range map[string]string{bins.server: "./cmd/caram-server", bins.router: "./cmd/caram-router"} {
		cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, pkg)
		if out, err := cmd.CombinedOutput(); err != nil {
			return binaries{}, fmt.Errorf("go build %s: %w\n%s", pkg, err, out)
		}
	}
	return bins, nil
}

// spawner starts every child from one OS thread that lives as long as
// the harness. Pdeathsig is delivered when the *thread* that forked
// exits, so starting children from ordinary goroutines would kill them
// whenever the runtime retired that thread; pinning one thread turns
// the signal into "the harness died, by any cause, SIGKILL included".
type spawner struct {
	once sync.Once
	reqs chan spawnReq
}

type spawnReq struct {
	cmd  *exec.Cmd
	done chan error
}

var spawn spawner

func (s *spawner) start(cmd *exec.Cmd) error {
	s.once.Do(func() {
		s.reqs = make(chan spawnReq)
		go func() {
			runtime.LockOSThread()
			for r := range s.reqs {
				r.done <- r.cmd.Start()
			}
		}()
	})
	r := spawnReq{cmd: cmd, done: make(chan error, 1)}
	s.reqs <- r
	return <-r.done
}

// proc is one running caram-server or caram-router.
type proc struct {
	name string
	bin  string
	cmd  *exec.Cmd
	addr string // line-protocol listen address, discovered from the log
	http string // base URL of the -http endpoint

	mu      sync.Mutex
	tail    []string // last stderr lines, for the failure report
	walLine string   // the server's "wal recovered" log line, if it printed one
	stopped bool     // stop() was called: an exit is expected
	exitErr error
	exited  chan struct{}
}

var (
	addrRe = regexp.MustCompile(`msg=(?:serving|routing) .*\baddr=(\S+)`)
	httpRe = regexp.MustCompile(`msg="http endpoints up" metrics=(http://[^/]+)/metrics`)
)

// startProc launches bin with args (which must ask for `-addr
// 127.0.0.1:0 -http 127.0.0.1:0`), in its own process group, and waits
// until it has logged both listen addresses.
func startProc(name, bin string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, fmt.Errorf("%s: stderr pipe: %w", name, err)
	}
	if err := spawn.start(cmd); err != nil {
		return nil, fmt.Errorf("%s: start: %w", name, err)
	}
	p := &proc{name: name, bin: bin, cmd: cmd, exited: make(chan struct{})}
	ready := make(chan struct{})
	go p.watch(stderr, ready)
	select {
	case <-ready:
		return p, nil
	case <-p.exited:
		return nil, fmt.Errorf("%s exited before serving: %v\n%s", name, p.exitErr, p.logTail())
	case <-time.After(readyTimeout):
		p.stop()
		return nil, fmt.Errorf("%s not serving after %v\n%s", name, readyTimeout, p.logTail())
	}
}

// watch drains stderr (so the child never blocks on a full pipe),
// picks the listen addresses out of the log, and reaps the process.
func (p *proc) watch(stderr io.Reader, ready chan<- struct{}) {
	sc := bufio.NewScanner(stderr)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	announced := false
	for sc.Scan() {
		line := sc.Text()
		p.mu.Lock()
		if len(p.tail) == 20 {
			p.tail = p.tail[1:]
		}
		p.tail = append(p.tail, line)
		if strings.Contains(line, `msg="wal recovered"`) {
			p.walLine = line
		}
		if m := httpRe.FindStringSubmatch(line); m != nil {
			p.http = m[1]
		}
		if m := addrRe.FindStringSubmatch(line); m != nil {
			p.addr = m[1]
		}
		ok := p.addr != "" && p.http != ""
		p.mu.Unlock()
		if ok && !announced {
			announced = true
			close(ready)
		}
	}
	err := p.cmd.Wait()
	p.mu.Lock()
	p.exitErr = err
	p.mu.Unlock()
	close(p.exited)
}

func (p *proc) logTail() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.tail, "\n")
}

// recovered returns the server's "wal recovered" log line, "" when it
// booted without a data directory.
func (p *proc) recovered() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.walLine
}

// pid is the child's process id (also its process-group id).
func (p *proc) pid() int { return p.cmd.Process.Pid }

// stop SIGKILLs the child's whole process group and waits for it to be
// reaped. Safe to call more than once.
func (p *proc) stop() {
	p.mu.Lock()
	p.stopped = true
	p.mu.Unlock()
	// The group id equals the pid (Setpgid with Pgid 0).
	_ = syscall.Kill(-p.pid(), syscall.SIGKILL) // ESRCH once it is gone
	<-p.exited
}

// died reports an exit nobody asked for.
func (p *proc) died() error {
	select {
	case <-p.exited:
	default:
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stopped {
		return nil
	}
	return fmt.Errorf("%s (pid %d) exited mid-run: %v\n%s", p.name, p.pid(), p.exitErr, strings.Join(p.tail, "\n"))
}

// fleet owns every child and data directory of one set-up, so one call
// releases them all on exit, timeout or signal.
type fleet struct {
	mu    sync.Mutex
	procs []*proc
	dirs  []string
}

func (f *fleet) add(p *proc) {
	f.mu.Lock()
	f.procs = append(f.procs, p)
	f.mu.Unlock()
}

func (f *fleet) addDir(d string) {
	f.mu.Lock()
	f.dirs = append(f.dirs, d)
	f.mu.Unlock()
}

// close kills every process and removes every data directory.
func (f *fleet) close() {
	f.mu.Lock()
	procs, dirs := f.procs, f.dirs
	f.procs, f.dirs = nil, nil
	f.mu.Unlock()
	for _, p := range procs {
		p.stop()
	}
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

// firstDeath returns the first unexpected child exit, if any.
func (f *fleet) firstDeath() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, p := range f.procs {
		if err := p.died(); err != nil {
			return err
		}
	}
	return nil
}

// newDataDir makes the WAL directory for mixed-wal. /dev/shm keeps the
// device out of the measurement (a disk-backed directory with 2 s
// snapshots moved throughput by a third between identical runs); when
// it is not writable the directory falls back to os.TempDir and then
// to the checkout, and the result records which was used.
func newDataDir() (dir, fs string, err error) {
	var errs []error
	for _, base := range []string{"/dev/shm", os.TempDir(), buildDir} {
		if base == buildDir {
			if err := os.MkdirAll(base, 0o755); err != nil {
				errs = append(errs, err)
				continue
			}
		}
		d, err := os.MkdirTemp(base, "caram-load-wal-")
		if err != nil {
			errs = append(errs, err)
			continue
		}
		abs, err := filepath.Abs(d)
		if err != nil {
			os.RemoveAll(d)
			errs = append(errs, err)
			continue
		}
		return abs, fsType(abs), nil
	}
	return "", "", fmt.Errorf("no writable data directory: %w", errors.Join(errs...))
}

// fsType names the filesystem holding path, from /proc/mounts (longest
// mount-point prefix wins).
func fsType(path string) string {
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := -1, "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (path == mp || strings.HasPrefix(path, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > best {
			best, typ = len(mp), f[2]
		}
	}
	return typ
}

// dial opens one line-protocol connection with Nagle off (bursts are
// flushed whole, so coalescing only adds delay).
func dial(addr string) (*net.TCPConn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	tc := c.(*net.TCPConn)
	if err := tc.SetNoDelay(true); err != nil {
		tc.Close()
		return nil, fmt.Errorf("dial %s: nodelay: %w", addr, err)
	}
	return tc, nil
}
