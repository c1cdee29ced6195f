package cluster

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"caram/internal/metrics"
)

// TestPoolPipelinedFIFO: many goroutines pipeline distinct requests
// through one pool; every caller must get exactly its own reply (the
// FIFO reply matching under concurrent burst coalescing).
func TestPoolPipelinedFIFO(t *testing.T) {
	bk := startBackend(t, "db")
	met := metrics.NewRouterMetrics([]string{"b0"})
	p := NewPool(Backend{Label: "b0", Addr: bk.addr}, PoolConfig{Conns: 3, Metrics: met.Backend(0)})
	defer p.Close()

	// Seed: each key i holds data i (self-validating replies); every
	// insert is acknowledged before the first search goes out.
	const n = 200
	ins := make([]Call, n)
	for i := 0; i < n; i++ {
		ins[i] = p.Submit([]byte(fmt.Sprintf("INSERT db %x %x", i+1, i+1)))
	}
	for i, c := range ins {
		if resp, err := c.Wait(); err != nil || string(resp) != "OK" {
			t.Fatalf("insert %d: %q %v", i, resp, err)
		}
		c.Release()
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= n; i++ {
				c := p.Submit([]byte(fmt.Sprintf("SEARCH db %x", i)))
				resp, err := c.Wait()
				want := fmt.Sprintf("HIT 0:%016x", i)
				if err != nil || string(resp) != want {
					t.Errorf("search %x: got %q err %v, want %q", i, resp, err, want)
					c.Release()
					return
				}
				c.Release()
			}
		}()
	}
	wg.Wait()
	if ops := met.Backend(0).Ops(); ops < n {
		t.Errorf("ops counter %d, want >= %d", ops, n)
	}
	if _, mean := met.Backend(0).Bursts(); mean <= 0 {
		t.Error("no bursts observed")
	}
}

// TestPoolBreaker: a dead address fails submissions with
// ErrBackendDown until the threshold opens the breaker, after which
// they shed fast with ErrBackendUnavailable; a Probe against a
// revived backend closes it again.
func TestPoolBreaker(t *testing.T) {
	// Reserve a port, then free it: dials now fail fast.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	met := metrics.NewRouterMetrics([]string{"b0"})
	p := NewPool(Backend{Label: "b0", Addr: addr}, PoolConfig{
		Conns:            1,
		BreakerThreshold: 3,
		BreakerBackoff:   time.Minute,
		Metrics:          met.Backend(0),
	})
	defer p.Close()

	sawDown := false
	deadline := time.Now().Add(10 * time.Second)
	for !p.BreakerOpen() {
		if time.Now().After(deadline) {
			t.Fatal("breaker never opened against a dead backend")
		}
		c := p.Submit([]byte("SEARCH db 1"))
		_, err := c.Wait()
		c.Release()
		if errors.Is(err, ErrBackendDown) {
			sawDown = true
		} else if !errors.Is(err, ErrBackendUnavailable) {
			t.Fatalf("unexpected error %v", err)
		}
	}
	if !sawDown {
		t.Error("never saw ErrBackendDown before the breaker opened")
	}
	// Open breaker: fails fast without touching the wire.
	c := p.Submit([]byte("SEARCH db 1"))
	if _, err := c.Wait(); !errors.Is(err, ErrBackendUnavailable) {
		t.Fatalf("open breaker returned %v, want ErrBackendUnavailable", err)
	}
	c.Release()
	if met.Backend(0).Errs() == 0 || !met.Backend(0).BreakerOpen() {
		t.Error("metrics did not record the failure streak / breaker state")
	}

	// A failed probe keeps it open...
	if p.Probe(200 * time.Millisecond) {
		t.Fatal("probe of a dead backend succeeded")
	}
	// ...then the backend comes back on the same address and a probe
	// closes the breaker (the watcher's half-open recovery path).
	bk := reviveBackend(t, addr)
	defer bk.Close()
	if !p.Probe(time.Second) {
		t.Fatal("probe of a live backend failed")
	}
	if p.BreakerOpen() {
		t.Error("breaker still open after successful probe")
	}
	c = p.Submit([]byte("SEARCH db 1"))
	if resp, err := c.Wait(); err != nil || string(resp) != "MISS" {
		t.Errorf("post-recovery search = %q, %v", resp, err)
	}
	c.Release()
}

// reviveBackend binds a fresh server to a specific address (the one a
// pool is configured for).
func reviveBackend(t *testing.T, addr string) *net.TCPListener {
	t.Helper()
	var l net.Listener
	var err error
	for i := 0; i < 50; i++ { // the freed port can take a moment to rebind
		if l, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	bk := startBackend(t, "db")
	// Proxy the fixed address onto the live backend: accept, splice.
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", bk.addr)
			if err != nil {
				conn.Close()
				continue
			}
			go splice(conn, up)
		}
	}()
	return l.(*net.TCPListener)
}

func splice(a, b net.Conn) {
	done := make(chan struct{}, 2)
	cp := func(dst, src net.Conn) {
		buf := make([]byte, 4096)
		for {
			n, err := src.Read(buf)
			if n > 0 {
				if _, werr := dst.Write(buf[:n]); werr != nil {
					break
				}
			}
			if err != nil {
				break
			}
		}
		done <- struct{}{}
	}
	go cp(a, b)
	go cp(b, a)
	<-done
	a.Close()
	b.Close()
}

// TestPoolBusyShed: a backend that sheds with "ERR BUSY" must fail the
// pipelined calls as unavailable — never match the shed line to the
// first call as if it were a reply.
func TestPoolBusyShed(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			conn.Write([]byte("ERR BUSY\n")) //nolint:errcheck
			conn.Close()
		}
	}()
	p := NewPool(Backend{Label: "b0", Addr: l.Addr().String()}, PoolConfig{
		Conns: 1, BreakerThreshold: 100, // keep the breaker out of the way
	})
	defer p.Close()
	for i := 0; i < 3; i++ {
		c := p.Submit([]byte("SEARCH db 1"))
		_, err := c.Wait()
		c.Release()
		if !errors.Is(err, ErrBackendUnavailable) && !errors.Is(err, ErrBackendDown) {
			t.Fatalf("submit %d: err=%v, want unavailable/down", i, err)
		}
	}
}

// TestPoolCloseFailsPending: closing the pool fails queued work
// instead of hanging it.
func TestPoolCloseFailsPending(t *testing.T) {
	// A listener that accepts and reads nothing: requests queue
	// forever on the pending FIFO.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			if _, err := l.Accept(); err != nil {
				return
			}
		}
	}()
	p := NewPool(Backend{Label: "b0", Addr: l.Addr().String()}, PoolConfig{Conns: 1})
	c := p.Submit([]byte("SEARCH db 1"))
	time.Sleep(50 * time.Millisecond) // let it reach the wire
	go p.Close()
	if _, err := c.Wait(); err == nil {
		t.Fatal("call completed against a mute backend")
	}
	c.Release()
}
