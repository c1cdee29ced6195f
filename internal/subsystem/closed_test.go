package subsystem

import (
	"errors"
	"sync"
	"testing"
	"time"

	"caram/internal/caram"
	"caram/internal/trace"
)

// TestClosedOpsReturnErrClosed: after Close every operation fails with
// ErrClosed instead of panicking or deadlocking; the uncharged
// read-side inspectors stay usable.
func TestClosedOpsReturnErrClosed(t *testing.T) {
	c, names := concurrentFixture(t, 2)
	if err := c.Insert(names[0], rec(1, 10)); err != nil {
		t.Fatal(err)
	}
	c.Close()
	c.Close() // idempotent

	if err := c.Insert(names[0], rec(2, 20)); !errors.Is(err, ErrClosed) {
		t.Errorf("Insert after Close: %v", err)
	}
	if _, err := c.Search(names[0], exact(1)); !errors.Is(err, ErrClosed) {
		t.Errorf("Search after Close: %v", err)
	}
	if _, err := c.SearchServed(names[0], exact(1), nil, trace.New()); !errors.Is(err, ErrClosed) {
		t.Errorf("SearchServed after Close: %v", err)
	}
	if _, _, err := c.Explain(names[0], exact(1), trace.New()); !errors.Is(err, ErrClosed) {
		t.Errorf("Explain after Close: %v", err)
	}
	if err := c.Delete(names[0], exact(1)); !errors.Is(err, ErrClosed) {
		t.Errorf("Delete after Close: %v", err)
	}
	if _, err := c.Scrub(names[0]); !errors.Is(err, ErrClosed) {
		t.Errorf("Scrub after Close: %v", err)
	}
	out := c.MSearch([]PortKey{
		{Port: names[0], Key: exact(1)},
		{Port: "nope", Key: exact(1)},
	})
	for i, r := range out {
		if !errors.Is(r.Err, ErrClosed) {
			t.Errorf("MSearch slot %d after Close: %v", i, r.Err)
		}
	}
	// Info/Health peek at engine state without admission; they keep
	// answering.
	if info, err := c.Info(names[0]); err != nil || info.Count != 1 {
		t.Errorf("Info after Close = %+v, %v", info, err)
	}
	if h, err := c.Health(names[0]); err != nil || h != Healthy {
		t.Errorf("Health after Close = %v, %v", h, err)
	}
}

// TestCloseConcurrentWithOps races Close against a full mix of
// operations: every op either completes normally or reports ErrClosed,
// and nothing panics (run under -race in CI).
func TestCloseConcurrentWithOps(t *testing.T) {
	c, names := concurrentFixture(t, 2)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for gid := 0; gid < 8; gid++ {
		wg.Add(1)
		go func(gid int) {
			defer wg.Done()
			port := names[gid%2]
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := uint64(gid)<<16 | uint64(i%500)
				if err := c.Insert(port, rec(key, key&0xff)); err != nil &&
					!errors.Is(err, ErrClosed) &&
					!errors.Is(err, caram.ErrFull) &&
					!errors.Is(err, caram.ErrExists) {
					t.Errorf("Insert: %v", err)
				}
				if _, err := c.Search(port, exact(key)); err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("Search: %v", err)
				}
				out := c.MSearch([]PortKey{{Port: port, Key: exact(key)}, {Port: names[(gid+1)%2], Key: exact(key)}})
				for _, r := range out {
					if err := r.Err; err != nil && !errors.Is(err, ErrClosed) {
						t.Errorf("MSearch: %v", err)
					}
				}
				if err := c.Delete(port, exact(key)); err != nil &&
					!errors.Is(err, ErrClosed) &&
					!errors.Is(err, caram.ErrNotFound) {
					t.Errorf("Delete: %v", err)
				}
			}
		}(gid)
	}
	time.Sleep(2 * time.Millisecond)
	c.Close()
	close(stop)
	wg.Wait()
	if err := c.Insert(names[0], rec(1, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Insert after racing Close: %v", err)
	}
}
