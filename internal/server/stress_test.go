package server

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"caram/internal/caram"
	"caram/internal/hash"
	"caram/internal/subsystem"
)

// stressServer builds a server over n engines named e0..e(n-1), each a
// 256-bucket x 8-slot slice with 64-bit keys (room for the stress
// key-space without spill pressure).
func stressServer(t testing.TB, n int) (*Server, []string) {
	t.Helper()
	sub := subsystem.New(0)
	names := make([]string, n)
	for i := 0; i < n; i++ {
		names[i] = fmt.Sprintf("e%d", i)
		sl := caram.MustNew(caram.Config{
			IndexBits: 8,
			RowBits:   8*(1+64+32) + 8,
			KeyBits:   64,
			DataBits:  32,
			Index:     hash.NewMultShift(8),
		})
		if err := sub.AddEngine(&subsystem.Engine{Name: names[i], Main: sl}); err != nil {
			t.Fatal(err)
		}
	}
	return New(sub), names
}

// TestStressServerMixedOps drives Exec from 32 goroutines with mixed
// INSERT/SEARCH/MSEARCH/DELETE/STATS traffic (~22k requests total).
// Workers own disjoint key ranges, so every response is individually
// predictable even though the engines are shared. Under -race this is
// the protocol layer's core safety check.
func TestStressServerMixedOps(t *testing.T) {
	const (
		workers = 32
		iters   = 100
		engines = 4
	)
	s, names := stressServer(t, engines)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := names[g%engines]
			for i := 0; i < iters; i++ {
				k := uint64(g)<<32 | uint64(i)
				key := fmt.Sprintf("%x", k)
				data := fmt.Sprintf("%x", uint64(g)<<8|uint64(i&0xff)) // fits DataBits: 32
				if resp := s.Exec("INSERT " + eng + " " + key + " " + data); resp != "OK" {
					t.Errorf("worker %d INSERT: %q", g, resp)
					return
				}
				wantHit := fmt.Sprintf("HIT 0:%016x", uint64(g)<<8|uint64(i&0xff))
				if resp := s.Exec("SEARCH " + eng + " " + key); resp != wantHit {
					t.Errorf("worker %d SEARCH: %q, want %q", g, resp, wantHit)
					return
				}
				// Fan the key across all engines: exactly our engine's
				// slot hits, the others miss.
				var req strings.Builder
				req.WriteString("MSEARCH")
				for _, n := range names {
					req.WriteString(" " + n + " " + key)
				}
				slots := strings.Fields(s.Exec(req.String()))
				if len(slots) != engines+1 || slots[0] != "MRESULTS" {
					t.Errorf("worker %d MSEARCH: %q", g, slots)
					return
				}
				for e, slot := range slots[1:] {
					want := "MISS"
					if names[e] == eng {
						want = strings.Replace(wantHit, "HIT ", "HIT:", 1)
					}
					if slot != want {
						t.Errorf("worker %d MSEARCH slot %d: %q, want %q", g, e, slot, want)
						return
					}
				}
				if i%10 == 0 {
					if resp := s.Exec("STATS " + eng); !strings.HasPrefix(resp, "STATS n=") {
						t.Errorf("worker %d STATS: %q", g, resp)
						return
					}
				}
				if resp := s.Exec("DELETE " + eng + " " + key); resp != "OK" {
					t.Errorf("worker %d DELETE: %q", g, resp)
					return
				}
				if resp := s.Exec("SEARCH " + eng + " " + key); resp != "MISS" {
					t.Errorf("worker %d post-delete SEARCH: %q", g, resp)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, n := range names {
		resp := s.Exec("STATS " + n)
		if !strings.HasPrefix(resp, "STATS n=0 ") {
			t.Errorf("engine %s not empty after stress: %q", n, resp)
		}
	}
}

// TestStressServerOverTCP repeats a slice of the mixed workload over
// real sockets — one connection per engine plus crosstalk connections
// that only read — so the bufio/Handle layer is exercised under
// concurrency too.
func TestStressServerOverTCP(t *testing.T) {
	const conns = 8
	s, names := stressServer(t, 4)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go s.Serve(l) //nolint:errcheck // returns when l closes

	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newClient(t, l.Addr().String())
			eng := names[c%len(names)]
			ask := func(req string) string {
				t.Helper()
				line, err := client.Do(req)
				if err != nil {
					t.Error(err)
				}
				return line
			}
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("%x", uint64(c)<<32|uint64(i))
				if resp := ask("INSERT " + eng + " " + key + " " + key); resp != "OK" {
					t.Errorf("conn %d INSERT: %q", c, resp)
					return
				}
				if resp := ask("SEARCH " + eng + " " + key); !strings.HasPrefix(resp, "HIT") {
					t.Errorf("conn %d SEARCH: %q", c, resp)
					return
				}
				if resp := ask("MSEARCH " + eng + " " + key + " " + names[(c+1)%len(names)] + " " + key); !strings.HasPrefix(resp, "MRESULTS HIT:") {
					t.Errorf("conn %d MSEARCH: %q", c, resp)
					return
				}
				if resp := ask("DELETE " + eng + " " + key); resp != "OK" {
					t.Errorf("conn %d DELETE: %q", c, resp)
					return
				}
			}
		}()
	}
	wg.Wait()
}
