package main

// Kill-injection harness: boots the real caram-server binary as a
// subprocess over a durability directory, drives acked writes over
// TCP, SIGKILLs it at random points — including mid-fsync via the
// -wal-slow-sync hook — restarts it on the same directory, and asserts
// the durability contract: every acked write is present, every write
// that was never acked is absent. Run by `make crash-guard` / `make
// ci`; CRASH_GUARD_ITERS raises the kill-loop count for soak runs.

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"caram/internal/wire"
)

var (
	buildOnce sync.Once
	buildExe  string
	buildErr  error
)

// serverBinary builds ./cmd/caram-server once per test run.
func serverBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "caram-crash-*")
		if err != nil {
			buildErr = err
			return
		}
		buildExe = filepath.Join(dir, "caram-server")
		cmd := exec.Command("go", "build", "-o", buildExe, ".")
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return buildExe
}

// proc is one live server subprocess.
type proc struct {
	cmd    *exec.Cmd
	addr   string
	stderr *strings.Builder // complete stderr, for post-mortem greps
	mu     *sync.Mutex      // guards stderr
}

func (p *proc) stderrText() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stderr.String()
}

// startServer launches the binary with -addr 127.0.0.1:0 plus extra
// flags and waits for the slog "serving" line to learn the bound port.
func startServer(t *testing.T, exe string, extra ...string) *proc {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0", "-indexbits", "8", "-slots", "4"}, extra...)
	cmd := exec.Command(exe, args...)
	pipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	p := &proc{cmd: cmd, stderr: &strings.Builder{}, mu: &sync.Mutex{}}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.stderr.WriteString(line)
			p.stderr.WriteByte('\n')
			p.mu.Unlock()
			if strings.Contains(line, "msg=serving") {
				for _, f := range strings.Fields(line) {
					if a, ok := strings.CutPrefix(f, "addr="); ok {
						select {
						case addrCh <- a:
						default:
						}
					}
				}
			}
		}
		close(addrCh)
	}()
	select {
	case a, ok := <-addrCh:
		if !ok {
			cmd.Process.Kill() //nolint:errcheck
			cmd.Wait()         //nolint:errcheck
			t.Fatalf("server exited before serving:\n%s", p.stderrText())
		}
		p.addr = a
	case <-time.After(20 * time.Second):
		cmd.Process.Kill() //nolint:errcheck
		t.Fatalf("server did not report serving:\n%s", p.stderrText())
	}
	return p
}

func (p *proc) kill(t *testing.T) {
	t.Helper()
	p.cmd.Process.Signal(syscall.SIGKILL) //nolint:errcheck
	p.cmd.Wait()                          //nolint:errcheck
}

// terminate asks for a graceful shutdown and waits for exit.
func (p *proc) terminate(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown exited non-zero: %v\n%s", err, p.stderrText())
		}
	case <-time.After(30 * time.Second):
		p.cmd.Process.Kill() //nolint:errcheck
		t.Fatalf("graceful shutdown hung\n%s", p.stderrText())
	}
}

// client connects to the subprocess; the test closes it.
func client(t *testing.T, addr string) *wire.Client {
	c := wire.NewClient(addr, wire.ClientConfig{})
	t.Cleanup(c.Close)
	return c
}

func crashIters() int {
	if s := os.Getenv("CRASH_GUARD_ITERS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 3
}

// TestCrashKillRecovery is the core durability contract, proven
// against the real binary: a writer hammers acked INSERTs while the
// server is SIGKILLed at a random moment mid-stream; after restart on
// the same -data directory, every key whose OK was received must HIT.
// The slow-sync hook stretches each fsync so kills routinely land in
// the middle of a group commit. Looped; CRASH_GUARD_ITERS extends the
// soak.
func TestCrashKillRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess kill loop")
	}
	exe := serverBinary(t)
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	var (
		ackMu sync.Mutex
		acked []uint64
	)
	next := uint64(1)

	for iter := 0; iter < crashIters(); iter++ {
		p := startServer(t, exe, "-data", dir, "-wal-sync", "always",
			"-wal-slow-sync", "2ms", "-snapshot-every", "150ms",
			"-wal-segment-bytes", "4096")

		stop := make(chan struct{})
		writerDone := make(chan struct{})
		go func() {
			defer close(writerDone)
			c := client(t, p.addr)
			defer c.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := next
				reply, err := c.Do(fmt.Sprintf("INSERT db %x %x", k, k*7+1))
				if err != nil {
					return // connection died in the kill: k was never acked
				}
				if reply != "OK" {
					return // e.g. capacity; stop growing the set
				}
				ackMu.Lock()
				acked = append(acked, k)
				ackMu.Unlock()
				next = k + 1
			}
		}()

		// Kill at a random point while the writer is mid-stream.
		time.Sleep(time.Duration(30+rng.Intn(120)) * time.Millisecond)
		p.kill(t)
		close(stop)
		<-writerDone

		// Restart on the same directory; every acked key must HIT.
		p = startServer(t, exe, "-data", dir, "-wal-sync", "always")
		c := client(t, p.addr)
		ackMu.Lock()
		keys := append([]uint64(nil), acked...)
		ackMu.Unlock()
		for _, k := range keys {
			reply, err := c.Do(fmt.Sprintf("SEARCH db %x", k))
			if err != nil {
				t.Fatalf("iter %d: SEARCH after recovery: %v", iter, err)
			}
			want := fmt.Sprintf("HIT 0:%016x", k*7+1)
			if reply != want {
				t.Fatalf("iter %d: acked key %x lost in crash: got %q, want %q\n%s",
					iter, k, reply, want, p.stderrText())
			}
		}
		c.Close()
		p.terminate(t)
	}
	t.Logf("%d acked writes survived %d kills", len(acked), crashIters())
}

// TestCrashSlowSyncUnackedAbsent pins the other half of the contract:
// a write whose ack never arrived must be absent after the crash. The
// slow-sync hook sleeps before the syncer takes its batch, so a write
// issued into that window is still in the userland buffer when the
// SIGKILL lands — deterministically unacked and undurable.
func TestCrashSlowSyncUnackedAbsent(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess kill")
	}
	exe := serverBinary(t)
	dir := t.TempDir()

	// Phase 1: a normally-synced server acks key A and shuts down.
	p := startServer(t, exe, "-data", dir, "-wal-sync", "always")
	c := client(t, p.addr)
	if reply, err := c.Do("INSERT db aa 1"); err != nil || reply != "OK" {
		t.Fatalf("INSERT aa: %q %v", reply, err)
	}
	c.Close()
	p.terminate(t)

	// Phase 2: every fsync now stalls 500ms. Issue key B but do not
	// wait for (and never receive) its ack; kill inside the stall.
	p = startServer(t, exe, "-data", dir, "-wal-sync", "always", "-wal-slow-sync", "500ms")
	c = client(t, p.addr)
	unacked := wire.NewBatch().Add("INSERT db bb 2")
	c.Submit(unacked.Batch())
	time.Sleep(100 * time.Millisecond) // inside the 500ms sync stall
	p.kill(t)
	if reply, err := unacked.Wait(); err == nil {
		t.Fatalf("INSERT bb was acked before the kill: %q", reply)
	}
	unacked.Release()

	// Phase 3: recovery must have A (acked) and must not have B
	// (unacked — its record never reached the kernel).
	p = startServer(t, exe, "-data", dir, "-wal-sync", "always")
	defer p.terminate(t)
	c = client(t, p.addr)
	if reply, err := c.Do("SEARCH db aa"); err != nil || reply != "HIT 0:0000000000000001" {
		t.Fatalf("acked key lost: %q %v", reply, err)
	}
	if reply, err := c.Do("SEARCH db bb"); err != nil || reply != "MISS" {
		t.Fatalf("unacked key leaked into recovery: %q %v", reply, err)
	}
}

// TestGracefulShutdownZeroReplay: SIGTERM must drain, snapshot, and
// seal, so the next boot replays zero records — the restart-cost half
// of the durability contract, asserted via the boot log's replayed=
// field and by re-reading the data.
func TestGracefulShutdownZeroReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess round trip")
	}
	exe := serverBinary(t)
	dir := t.TempDir()

	p := startServer(t, exe, "-data", dir, "-wal-sync", "always")
	c := client(t, p.addr)
	for i := 1; i <= 8; i++ {
		req := fmt.Sprintf("INSERT db %x %x", i, i+100)
		if reply, err := c.Do(req); err != nil || reply != "OK" {
			t.Fatalf("%s: %q %v", req, reply, err)
		}
	}
	c.Close()
	p.terminate(t)

	p = startServer(t, exe, "-data", dir, "-wal-sync", "always")
	defer p.terminate(t)
	boot := p.stderrText()
	if !strings.Contains(boot, "replayed=0") || !strings.Contains(boot, "clean_shutdown=true") {
		t.Fatalf("boot after graceful shutdown was not clean:\n%s", boot)
	}
	c = client(t, p.addr)
	for i := 1; i <= 8; i++ {
		want := fmt.Sprintf("HIT 0:%016x", i+100)
		if reply, err := c.Do(fmt.Sprintf("SEARCH db %x", i)); err != nil || reply != want {
			t.Fatalf("key %x after clean restart: %q %v", i, reply, err)
		}
	}
}
