package cluster

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"caram/internal/server"
	"caram/internal/subsystem"
	"caram/internal/wire"
)

// TestRouterFailoverUnderStress kills a backend in the middle of a
// concurrent search storm and requires that every in-flight and
// subsequent idempotent SEARCH is answered either correctly (its
// key's own data — replies are self-validating) or with a clean
// "ERR unavailable" — never a torn, misordered, or wrong reply. After
// the backend returns on the same address, the router must recover
// (health watcher + breaker half-open) and serve its keys again.
func TestRouterFailoverUnderStress(t *testing.T) {
	b0 := startBackend(t, "db")

	// Backend 1 lives behind a fixed address so it can die and come
	// back where the pool expects it.
	l1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr1 := l1.Addr().String()
	sub1 := subsystem.New(0)
	exactEngine(t, sub1, "db")
	srv1 := server.New(sub1)
	go srv1.Serve(l1) //nolint:errcheck

	rt, err := NewRouter(RouterConfig{
		Backends:         []Backend{{Label: "b0", Addr: b0.addr}, {Label: "b1", Addr: addr1}},
		Conns:            2,
		Retries:          2,
		BreakerThreshold: 2,
		BreakerBackoff:   25 * time.Millisecond,
		HealthInterval:   25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rm := rt.Metrics()
	defer rt.Close()
	rl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go rt.Serve(rl) //nolint:errcheck

	// Preload: key i holds data i, spread across both backends.
	const nKeys = 128
	keys := make([]string, nKeys)
	insert := make([]string, nKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("%x", i+1)
		insert[i] = fmt.Sprintf("INSERT db %s %s", keys[i], keys[i])
	}
	for i, r := range rdrive(t, rt, insert...) {
		if r != "OK" {
			t.Fatalf("preload %d: %q", i, r)
		}
	}

	// Storm: 8 clients over real TCP hammer SEARCH; 100ms in, backend
	// 1 dies hard (server close tears down its accepted connections).
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		badReply string
		sheds    int
	)
	stop := time.Now().Add(700 * time.Millisecond)
	kill := sync.OnceFunc(func() { srv1.Close() })
	killAt := time.Now().Add(100 * time.Millisecond)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			client := newClient(t, rl.Addr().String())
			for time.Now().Before(stop) {
				if time.Now().After(killAt) {
					kill()
				}
				idx := rng.Intn(nKeys)
				k := keys[idx]
				line, err := client.Do("SEARCH db " + k)
				if err != nil {
					t.Errorf("client: %v", err)
					return
				}
				want := fmt.Sprintf("HIT 0:%016x", idx+1)
				switch line {
				case want:
				case "ERR unavailable":
					mu.Lock()
					sheds++
					mu.Unlock()
				default:
					mu.Lock()
					if badReply == "" {
						badReply = fmt.Sprintf("SEARCH db %s => %q (want %q or ERR unavailable)", k, line, want)
					}
					mu.Unlock()
					return
				}
			}
		}(int64(g) + 1)
	}
	wg.Wait()
	if badReply != "" {
		t.Fatalf("wrong reply under failover: %s", badReply)
	}
	if sheds == 0 {
		t.Log("note: no sheds observed (backend died after the storm's window)")
	}

	// Recovery: the backend returns on the same address, empty. The
	// watcher must close the breaker and traffic must flow again.
	var l1b net.Listener
	for i := 0; ; i++ {
		if l1b, err = net.Listen("tcp", addr1); err == nil {
			break
		}
		if i > 100 {
			t.Fatalf("rebind %s: %v", addr1, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	sub1b := subsystem.New(0)
	exactEngine(t, sub1b, "db")
	srv1b := server.New(sub1b)
	go srv1b.Serve(l1b) //nolint:errcheck
	t.Cleanup(func() { srv1b.Close() })

	// A key owned by backend 1 answers again (MISS: the revived
	// backend is empty) once the breaker closes.
	k1 := ""
	for i := 1; k1 == ""; i++ {
		k := fmt.Sprintf("%x", i)
		if v, ok := wire.ParseVec(k); ok && rt.Ring().Owner("db", v) == 1 {
			k1 = k
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if r := rdrive(t, rt, "SEARCH db "+k1)[0]; r == "MISS" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("router never recovered; last reply %q", rdrive(t, rt, "SEARCH db "+k1)[0])
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Refill through the router and verify every key end to end.
	// Backend 0 never died, so its keys are still present.
	for i, r := range rdrive(t, rt, insert...) {
		if r != "OK" && r != "ERR caram: record already present" {
			t.Fatalf("reinsert %d after recovery: %q", i, r)
		}
	}
	checks := make([]string, nKeys)
	for i, k := range keys {
		checks[i] = "SEARCH db " + k
	}
	for i, r := range rdrive(t, rt, checks...) {
		if want := fmt.Sprintf("HIT 0:%016x", i+1); r != want {
			t.Errorf("post-recovery %s = %q, want %q", checks[i], r, want)
		}
	}
	if rm.Backend(1).Retries() == 0 && sheds == 0 {
		t.Log("note: failover window produced neither retries nor sheds")
	}
}
