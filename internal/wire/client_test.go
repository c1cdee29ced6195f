package wire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// scriptServer is a scripted line server: for line n (from 0) of
// accepted connection conn (from 0) it writes script's reply ("" =
// none; it may hold several lines) and, when hangup is set, closes the
// connection. hungup gets each connection's ordinal as it ends.
func scriptServer(t *testing.T, script func(conn, n int, line string) (reply string, hangup bool)) (addr string, hungup chan int) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	hungup = make(chan int, 16)
	go func() {
		for conn := 0; ; conn++ {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn, conn int) {
				defer func() { c.Close(); hungup <- conn }()
				br := bufio.NewReader(c)
				for n := 0; ; n++ {
					line, err := br.ReadString('\n')
					if err != nil {
						return
					}
					reply, hangup := script(conn, n, strings.TrimSuffix(line, "\n"))
					if reply != "" {
						if _, err := c.Write([]byte(reply + "\n")); err != nil {
							return
						}
					}
					if hangup {
						return
					}
				}
			}(c, conn)
		}
	}()
	return l.Addr().String(), hungup
}

// countHook counts a client's writes, lines written and deaths.
type countHook struct {
	noHook
	writes, lines, died atomic.Int64
}

func (h *countHook) Wrote(n int) { h.writes.Add(1); h.lines.Add(int64(n)) }
func (h *countHook) Died()       { h.died.Add(1) }

// batchOf builds a batch of the given lines.
func batchOf(lines ...string) (*Batch, []Call) {
	b := NewBatch()
	calls := make([]Call, len(lines))
	for i, l := range lines {
		calls[i] = b.Add(l)
	}
	return b, calls
}

// TestClientFIFOAcrossCoalescedBatches: concurrent submitters' batches
// coalesce into shared writes, and every line still gets exactly its
// own reply, in order — no batch is split across writes.
func TestClientFIFOAcrossCoalescedBatches(t *testing.T) {
	addr := serveEcho(t, NewEndpoint(errTestClosed, nil), Limits{})
	hook := &countHook{}
	c := newClient(t, addr, hook)
	const submitters, batches = 8, 100
	var wg sync.WaitGroup
	var want atomic.Int64
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				lines := make([]string, 1+(g+i)%8)
				for j := range lines {
					lines[j] = fmt.Sprintf("%d-%d-%d", g, i, j)
				}
				want.Add(int64(len(lines)))
				b, calls := batchOf(lines...)
				c.Submit(b)
				for j, call := range calls {
					if reply, err := call.Wait(); err != nil || string(reply) != "ECHO "+lines[j] {
						t.Errorf("%s: reply %q, %v", lines[j], reply, err)
					}
				}
				b.Release()
			}
		}(g)
	}
	wg.Wait()
	if hook.lines.Load() != want.Load() || hook.writes.Load() > submitters*batches {
		t.Errorf("%d lines in %d writes, want %d lines in at most %d", hook.lines.Load(), hook.writes.Load(), want.Load(), submitters*batches)
	}
}

// TestClientBusyAtAccept: a connection shed at accept fails everything
// pipelined on it with ErrBusy — the shed line is nobody's reply.
func TestClientBusyAtAccept(t *testing.T) {
	addr := serveEcho(t, NewEndpoint(errTestClosed, nil), Limits{MaxConns: 1})
	if reply, err := newClient(t, addr, nil).Do("first"); err != nil || reply != "ECHO first" {
		t.Fatalf("first connection: %q, %v", reply, err)
	}
	hook := &countHook{}
	b, calls := batchOf("a", "b", "c")
	c := newClient(t, addr, hook)
	c.Submit(b)
	for i, call := range calls {
		if reply, err := call.Wait(); !errors.Is(err, ErrBusy) {
			t.Errorf("line %d over the cap: %q, %v; want ErrBusy", i, reply, err)
		}
	}
	b.Release()
	// Close waits for the reader, which reports the death after posting
	// its cause; a write into the closed socket may report it again.
	c.Close()
	if hook.died.Load() == 0 {
		t.Error("the shed connection never reported its death")
	}
}

// TestClientDeathMidBatch: the server answers k of n lines and closes.
// Replies 0..k-1 stand, byte-exact; the rest fail with ErrConnLost.
func TestClientDeathMidBatch(t *testing.T) {
	lines := []string{"l0", "l1", "l2", "l3", "l4", "l5"}
	n := len(lines)
	for _, k := range []int{0, 1, n - 1} {
		t.Run(fmt.Sprint("k=", k), func(t *testing.T) {
			addr, _ := scriptServer(t, func(_, i int, line string) (string, bool) {
				// Read the whole batch before hanging up: a close with
				// unread input would reset the connection instead.
				if i < k {
					return "R " + line, i == n-1
				}
				return "", i == n-1
			})
			b, calls := batchOf(lines...)
			newClient(t, addr, nil).Submit(b)
			for i, call := range calls {
				reply, err := call.Wait()
				if i < k && (err != nil || string(reply) != "R "+lines[i]) {
					t.Errorf("line %d: %q, %v; want its reply", i, reply, err)
				}
				if i >= k && !errors.Is(err, ErrConnLost) {
					t.Errorf("line %d: %q, %v; want ErrConnLost", i, reply, err)
				}
			}
			b.Release()
		})
	}
}

// TestClientDesyncKills: a reply line nobody asked for kills the
// connection instead of being paired with the next request; the next
// request goes out on a fresh connection and gets its own reply.
func TestClientDesyncKills(t *testing.T) {
	addr, hungup := scriptServer(t, func(conn, _ int, line string) (string, bool) {
		if conn == 0 {
			return "R " + line + "\nR nobody asked", false
		}
		return "R " + line, false
	})
	c := newClient(t, addr, nil)
	if reply, err := c.Do("first"); err != nil || reply != "R first" {
		t.Fatalf("first: %q, %v", reply, err)
	}
	if conn := <-hungup; conn != 0 { // the unsolicited line killed the connection
		t.Fatalf("connection %d hung up, want 0", conn)
	}
	if reply, err := c.Do("second"); err != nil || reply != "R second" {
		t.Fatalf("second: %q, %v; want its own reply", reply, err)
	}
}

// TestClientReplyTooLong: a reply past MaxLineBytes is a framing
// error, never a truncated reply.
func TestClientReplyTooLong(t *testing.T) {
	addr, _ := scriptServer(t, func(_, _ int, _ string) (string, bool) {
		return strings.Repeat("x", MaxLineBytes+1), false
	})
	if reply, err := newClient(t, addr, nil).Do("big"); !errors.Is(err, ErrReplyTooLong) {
		t.Fatalf("oversized reply: %.20q, %v; want ErrReplyTooLong", reply, err)
	}
}

// TestClientRedials: after a connection dies the next request dials
// afresh; an address nobody listens on fails with ErrDial.
func TestClientRedials(t *testing.T) {
	addr, _ := scriptServer(t, func(conn, _ int, line string) (string, bool) {
		return fmt.Sprintf("R%d %s", conn, line), true // one reply per connection
	})
	c := newClient(t, addr, nil)
	for conn := 0; conn < 3; conn++ {
		want := fmt.Sprintf("R%d x", conn)
		reply, err := c.Do("x")
		for errors.Is(err, ErrConnLost) { // sent before the last hang-up was read
			reply, err = c.Do("x")
		}
		if err != nil || reply != want {
			t.Fatalf("request %d: %q, %v; want %q", conn, reply, err, want)
		}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := newClient(t, l.Addr().String(), nil).Do("x"); !errors.Is(err, ErrDial) {
		t.Fatalf("dead address: %v, want ErrDial", err)
	}
}

// TestClientZeroAlloc: a steady-state pipelined exchange on a warmed
// client allocates nothing — batch, queue, write, FIFO and reader all
// reuse their buffers. Run by `make alloc-guard`.
func TestClientZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector builds allocate in sync.Pool by design; make alloc-guard runs this without -race")
	}
	c := newClient(t, serveEcho(t, NewEndpoint(errTestClosed, nil), Limits{}), nil)
	exchange := func() {
		b := NewBatch()
		for _, line := range [...]string{"SEARCH db 1", "SEARCH db 2", "SEARCH db 3", "SEARCH db 4"} {
			b.Add(line)
		}
		c.Submit(b)
		b.Wait()
		if b.err != nil || len(b.ends) != 4 {
			t.Fatalf("exchange: %d replies, %v", len(b.ends), b.err)
		}
		b.Release()
	}
	for i := 0; i < 200; i++ {
		exchange()
	}
	if n := testing.AllocsPerRun(300, exchange); n != 0 {
		t.Fatalf("pipelined exchange allocated %.2f times per run, want 0", n)
	}
}
