package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// ioTimeout bounds one repetition's socket waits beyond its own length:
// a reply that has not arrived by then counts as missing.
const ioTimeout = 15 * time.Second

// spanEvery is the burst sampling period of a traced repetition.
const spanEvery = 64

// client is one generator connection and its place in its stream.
type client struct {
	id    int
	conn  *net.TCPConn
	st    *stream
	next  int    // bursts completed, counted across wraps
	buf   []byte // reply buffer, large enough for the longest burst reply
	dead  error  // first transport error; a dead client sends nothing more
	lat   []int64
	spans []span // preallocated; filled only on traced repetitions
}

func newClient(id int, addr string, st *stream) (*client, error) {
	conn, err := dial(addr)
	if err != nil {
		return nil, err
	}
	longest := 0
	for i := 0; i < st.bursts(); i++ {
		if _, want := st.burst(i); len(want) > longest {
			longest = len(want)
		}
	}
	return &client{
		id:   id,
		conn: conn,
		st:   st,
		// Slack lets an unexpectedly long reply (an ERR line) still be
		// read and reported instead of stalling the burst.
		buf: make([]byte, longest+4096),
		lat: make([]int64, 0, 1<<16),
	}, nil
}

// repCount is what one client did in one repetition.
type repCount struct {
	lines, failed int
	end           time.Time
}

// readLines reads from conn until buf holds n complete lines and
// returns them, with the time the first bytes arrived.
func readLines(conn *net.TCPConn, buf []byte, n int) ([]byte, time.Time, error) {
	var first time.Time
	have, lines := 0, 0
	for lines < n {
		if have == len(buf) {
			return buf[:have], first, fmt.Errorf("reply overflows %d-byte buffer with %d/%d lines", len(buf), lines, n)
		}
		m, err := conn.Read(buf[have:])
		if first.IsZero() {
			first = time.Now()
		}
		lines += bytes.Count(buf[have:have+m], []byte{'\n'})
		have += m
		if err != nil {
			return buf[:have], first, err
		}
	}
	return buf[:have], first, nil
}

// mismatchReports caps how many wrong replies a process prints; the
// count of failures is exact regardless.
var mismatchReports atomic.Int32

// mismatches counts reply lines that differ from the prediction and
// reports the first few. The equal case never reaches here.
func mismatches(got, want []byte, where string) int {
	g := bytes.Split(bytes.TrimSuffix(got, []byte{'\n'}), []byte{'\n'})
	w := bytes.Split(bytes.TrimSuffix(want, []byte{'\n'}), []byte{'\n'})
	bad := 0
	for i := range w {
		if i >= len(g) || !bytes.Equal(g[i], w[i]) {
			if mismatchReports.Add(1) <= 8 {
				var have []byte
				if i < len(g) {
					have = g[i]
				}
				fmt.Fprintf(os.Stderr, "caram-load: %s line %d: got %q, want %q\n", where, i, truncate(have), truncate(w[i]))
			}
			bad++
		}
	}
	if len(g) > len(w) {
		bad += len(g) - len(w)
	}
	return bad
}

func truncate(b []byte) []byte {
	if len(b) > 120 {
		return b[:120]
	}
	return b
}

// run sends bursts until `until` — or, with limit > 0, until the
// client has completed that many — verifying every reply. With traced
// set, one burst in spanEvery records its four phases.
func (c *client) run(until time.Time, limit int, traced bool, wl string) repCount {
	var rc repCount
	c.lat = c.lat[:0]
	if c.dead != nil {
		rc.end = time.Now()
		return rc
	}
	if err := c.conn.SetDeadline(until.Add(ioTimeout)); err != nil {
		c.dead = err
	}
	nb := c.st.bursts()
	for c.dead == nil && time.Now().Before(until) && (limit == 0 || c.next < limit) {
		req, want := c.st.burst(c.next % nb)
		t0 := time.Now()
		_, err := c.conn.Write(req)
		t1 := time.Now()
		var got []byte
		var tFirst time.Time
		if err == nil {
			got, tFirst, err = readLines(c.conn, c.buf, c.st.lines)
		}
		t2 := time.Now()
		rc.lines += c.st.lines
		if err != nil {
			// Everything not verified in this burst is lost, and the
			// connection's framing with it.
			rc.failed += c.st.lines
			c.dead = fmt.Errorf("%s conn %d burst %d: %w", wl, c.id, c.next, err)
			fmt.Fprintf(os.Stderr, "caram-load: %v\n", c.dead)
			break
		}
		if !bytes.Equal(got, want) {
			rc.failed += mismatches(got, want, fmt.Sprintf("%s conn %d burst %d", wl, c.id, c.next))
		}
		t3 := time.Now()
		c.lat = append(c.lat, int64(t3.Sub(t0)))
		if traced && c.next%spanEvery == 0 && len(c.spans)+5 <= cap(c.spans) {
			c.spans = append(c.spans,
				span{Layer: "client", Name: "burst", Workload: wl, Conn: c.id, Burst: c.next, start: t0, end: t3},
				span{Layer: "client", Name: "write_flush", Parent: "burst", Workload: wl, Conn: c.id, Burst: c.next, start: t0, end: t1},
				span{Layer: "client", Name: "wait_first_reply", Parent: "burst", Workload: wl, Conn: c.id, Burst: c.next, start: t1, end: tFirst},
				span{Layer: "client", Name: "read_replies", Parent: "burst", Workload: wl, Conn: c.id, Burst: c.next, start: tFirst, end: t2},
				span{Layer: "client", Name: "verify", Parent: "burst", Workload: wl, Conn: c.id, Burst: c.next, start: t2, end: t3},
			)
		}
		c.next++
	}
	rc.end = time.Now()
	return rc
}

// rep is one timed repetition as measured from outside.
type rep struct {
	Lines       int     `json:"lines"`
	Failed      int     `json:"failed"`
	Seconds     float64 `json:"seconds"`
	OpsPerSec   float64 `json:"ops_per_s"`
	BurstP50Us  float64 `json:"burst_p50_us"`
	StealShare  float64 `json:"steal_share"`
	ServerCPUUs float64 `json:"server_cpu_us"`
	RouterCPUUs float64 `json:"router_cpu_us"`
	GenCPUUs    float64 `json:"gen_cpu_us"`
	Traced      bool    `json:"traced,omitempty"`

	lat []int64 // burst latencies, ns
}

// runRep drives every client for d and measures the host and the
// server-side processes across the same interval.
func runRep(clients []*client, d time.Duration, traced bool, wl string, pids pidSet) rep {
	cpu0, host0, gen0 := pids.cpuTicks(), readHostCPU(), selfCPUUs()
	start := time.Now()
	until := start.Add(d)
	counts := make([]repCount, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			counts[i] = c.run(until, 0, traced, wl)
		}(i, c)
	}
	wg.Wait()
	end := start
	r := rep{Traced: traced}
	for i, rc := range counts {
		r.Lines += rc.lines
		r.Failed += rc.failed
		if rc.end.After(end) {
			end = rc.end
		}
		r.lat = append(r.lat, clients[i].lat...)
	}
	cpu1, host1, gen1 := pids.cpuTicks(), readHostCPU(), selfCPUUs()
	r.Seconds = end.Sub(start).Seconds()
	r.OpsPerSec = float64(r.Lines-r.Failed) / r.Seconds
	r.BurstP50Us = quantileNs(r.lat, 0.5) / 1e3
	r.StealShare = host1.stealShareSince(host0)
	r.ServerCPUUs = ticksToUs(cpu1.servers - cpu0.servers)
	r.RouterCPUUs = ticksToUs(cpu1.router - cpu0.router)
	r.GenCPUUs = gen1 - gen0
	return r
}

// depth1RTT measures unpipelined round trips on one fresh connection:
// the first line of successive bursts, one at a time. A diagnostic
// only: on two shared cores it does not repeat within a tenth.
func depth1RTT(addr string, st *stream, n int) (p50us float64, err error) {
	conn, err := dial(addr)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(ioTimeout)); err != nil {
		return 0, err
	}
	buf := make([]byte, 64*1024)
	lat := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		req, _ := st.burst(i % st.bursts())
		line := req[:bytes.IndexByte(req, '\n')+1]
		if line[0] == 'I' || line[0] == 'D' {
			continue // replaying a write out of order would break the model
		}
		t0 := time.Now()
		if _, err := conn.Write(line); err != nil {
			return 0, fmt.Errorf("depth-1 write: %w", err)
		}
		if _, _, err := readLines(conn, buf, 1); err != nil {
			return 0, fmt.Errorf("depth-1 read: %w", err)
		}
		lat = append(lat, int64(time.Since(t0)))
	}
	return quantileNs(lat, 0.5) / 1e3, nil
}
