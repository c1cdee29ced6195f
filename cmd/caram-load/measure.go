package main

import (
	"fmt"
	"sync"
	"time"
)

// untracedSetups is how many times an untraced run sets up: setup_s is
// their median, which steadies a number that would otherwise rest on
// one process start and one preload.
const untracedSetups = 3

// workloadResult is everything one run of one workload measured.
type workloadResult struct {
	Name       string    `json:"name"`
	Why        string    `json:"why"`
	Traced     bool      `json:"traced"`
	StreamHash string    `json:"stream_hash"`
	Attempted  int       `json:"attempted"`
	Failed     int       `json:"failed"`
	SetupS     []float64 `json:"setup_s"`
	Reps       []rep     `json:"reps"`
	Kept       []int     `json:"kept_reps"`
	DataDir    string    `json:"data_dir,omitempty"`
	DataDirFS  string    `json:"data_dir_fs,omitempty"`
	Metrics    metricSet `json:"metrics"`
}

// measure runs one workload once: set-up, warm-up, the timed
// repetitions (`seconds` split into timedReps), and whatever audit the
// workload has. There are two kinds of run. Untraced (tr == nil) gives
// the end-to-end metrics and sets up several times. Traced sets up
// once, records spans on every other repetition, scrapes the programs'
// counters around each repetition and adds the probes that would
// disturb an end-to-end number.
func measure(w *workload, bins binaries, seconds float64, tr *tracer) (*workloadResult, error) {
	traced := tr != nil
	setups := untracedSetups
	if traced {
		setups = 1
	}
	res := &workloadResult{
		Name: w.name, Why: w.why, Traced: traced,
		StreamHash: w.hash(), Metrics: make(metricSet),
	}
	// One snapshot per repetition: with a period that does not divide
	// the repetition, some repetitions hold a snapshot and some none,
	// and which kind the quiet rule keeps would move the median.
	repLen := time.Duration(seconds / timedReps * float64(time.Second))
	var dep *deployment
	for i := 0; i < setups; i++ {
		if dep != nil {
			dep.fleet.close()
		}
		d, err := deploy(w, bins, repLen)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up %d: %w", w.name, i, err)
		}
		dep = d
		res.SetupS = append(res.SetupS, d.setupSeconds)
	}
	defer dep.fleet.close()
	res.DataDir, res.DataDirFS = dep.dataDir, dep.dataFS
	m := res.Metrics
	for k, v := range dep.detail {
		m[k] = v
	}
	m["setup_s"] = median(res.SetupS)

	clients, err := connect(dep.front, w, traced)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	defer closeClients(clients)

	runRep(clients, min(repLen, 2*time.Second), false, w.name, dep.pids) // warm-up, discarded

	// A traced run scrapes the programs' counters around every
	// repetition; an untraced one leaves them alone.
	var before, last promSamples
	if traced {
		if before, err = dep.counters(); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		last = before
	}
	snapshots := 0.0
	var steal []float64
	settleLeft := settleBudget
	for i := 0; i < timedReps+extraReps; i++ {
		if _, quiet, _ := pickQuiet(steal, keepReps); i >= timedReps && quiet >= keepReps {
			break // extra repetitions are only for a run short of quiet ones
		}
		if i > 0 && steal[i-1] > quietSteal {
			settleLeft -= settle(settleLeft)
		}
		if traced {
			tr.sample(w.name, i, "before", last)
		}
		r := runRep(clients, repLen, traced && i%2 == 1, w.name, dep.pids)
		res.Reps = append(res.Reps, r)
		steal = append(steal, r.StealShare)
		res.Attempted += r.Lines
		res.Failed += r.Failed
		if traced {
			now, err := dep.counters()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			if now["caram_wal_snapshot_lsn"] != last["caram_wal_snapshot_lsn"] {
				snapshots++
			}
			last = now
			tr.sample(w.name, i, "after", last)
		}
	}
	after := last
	kept, quiet, noisy := pickQuiet(steal, keepReps)
	res.Kept = kept
	summarize(m, res.Reps, kept)
	m["host.settle_s"] = (settleBudget - settleLeft).Seconds()
	m["host.quiet_reps"] = float64(quiet)
	if noisy {
		m["host.noisy"] = 1
	}
	m["rss_mb"] = dep.pids.rssMB()

	if traced {
		for _, c := range clients {
			tr.spans = append(tr.spans, c.spans...)
		}
		traceOverhead(m, res.Reps)
		scraped(m, before, after, res, snapshots)
		if p50, err := depth1RTT(dep.front, w.streams[0], 2000); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		} else {
			m["client.depth1_rtt_p50_us"] = p50
		}
		if w.routed {
			if err := routerPremium(m, w, bins, repLen); err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
		}
	}

	if w.wal {
		lines, bad, err := auditAfterCrash(w, dep, clients)
		if err != nil {
			return nil, fmt.Errorf("%s: audit: %w", w.name, err)
		}
		res.Attempted += lines
		res.Failed += bad
		m["wal.recover_tail_s"] = dep.detail["wal.recover_tail_s"]
	}
	if res.Attempted > 0 {
		m["client.failed_share"] = float64(res.Failed) / float64(res.Attempted)
	}
	for _, c := range clients {
		if c.dead != nil {
			return res, fmt.Errorf("%s: connection lost: %w", w.name, c.dead)
		}
	}
	if err := dep.fleet.firstDeath(); err != nil {
		return res, err
	}
	return res, nil
}

// connect opens one client per stream; withSpans preallocates each
// one's span buffer, which only a traced run fills.
func connect(addr string, w *workload, withSpans bool) ([]*client, error) {
	var clients []*client
	for i, st := range w.streams {
		c, err := newClient(i, addr, st)
		if err != nil {
			closeClients(clients)
			return nil, err
		}
		if withSpans {
			c.spans = make([]span, 0, clientSpanCap)
		}
		clients = append(clients, c)
	}
	return clients, nil
}

func closeClients(clients []*client) {
	for _, c := range clients {
		c.conn.Close()
	}
}

// counters scrapes every process of the deployment into one sample.
func (d *deployment) counters() (promSamples, error) {
	bases := d.metricsURL
	if d.routerURL != "" {
		bases = append(append([]string(nil), bases...), d.routerURL)
	}
	return scrapeAll(bases)
}

// summarize turns the kept repetitions into the end-to-end numbers:
// each is the median over the kept repetitions, except CPU per op,
// which is summed over them because a 1.25 s repetition is only ~125
// scheduler ticks long.
func summarize(m metricSet, reps []rep, kept []int) {
	var ops, p50, stealAll []float64
	var lines int
	var cpuUs, routerUs, genUs, wall float64
	var lat []int64
	for _, i := range kept {
		r := reps[i]
		ops = append(ops, r.OpsPerSec)
		p50 = append(p50, r.BurstP50Us)
		lines += r.Lines - r.Failed
		cpuUs += r.ServerCPUUs
		routerUs += r.RouterCPUUs
		genUs += r.GenCPUUs
		wall += r.Seconds
		lat = append(lat, r.lat...)
	}
	for _, r := range reps {
		stealAll = append(stealAll, r.StealShare)
	}
	m["throughput_ops_s"] = median(ops)
	m["client.burst_p50_us"] = median(p50)
	if lines > 0 {
		m["cpu_us_per_op"] = (cpuUs + routerUs) / float64(lines)
		m["cluster.router_cpu_us_per_op"] = routerUs / float64(lines)
		if routerUs > 0 {
			m["cluster.backend_cpu_us_per_op"] = cpuUs / float64(lines)
		}
	}
	m["client.burst_p99_us"] = quantileNs(lat, 0.99) / 1e3
	m["client.burst_p999_us"] = quantileNs(lat, 0.999) / 1e3
	m["client.samples"] = float64(len(lat))
	if wall > 0 {
		m["client.gen_cpu_share"] = genUs / (wall * 1e6)
	}
	m["host.steal_share"] = median(stealAll)
	if med := median(ops); med > 0 {
		m["host.rep_spread"] = (quantile(ops, 1) - quantile(ops, 0)) / med
	}
}

// traceOverhead compares the traced repetitions with the untraced ones
// of the same run.
func traceOverhead(m metricSet, reps []rep) {
	var on, off []float64
	for _, r := range reps {
		if r.Traced {
			on = append(on, r.OpsPerSec)
		} else {
			off = append(off, r.OpsPerSec)
		}
	}
	if base := median(off); base > 0 && len(on) > 0 {
		m["client.trace_overhead_share"] = 1 - median(on)/base
	}
}

// scraped derives the per-layer numbers that come from the programs'
// own exported counters, as deltas across the timed window.
func scraped(m metricSet, before, after promSamples, res *workloadResult, snapshots float64) {
	d := func(name string) float64 { return after[name] - before[name] }
	var wall float64
	for _, r := range res.Reps {
		wall += r.Seconds
	}
	mops := float64(res.Attempted) / 1e6
	if mops > 0 {
		m["subsystem.search_retries_per_mop"] = d("caram_search_retries_total") / mops
		m["subsystem.lock_fallbacks_per_mop"] = d("caram_search_lock_fallbacks_total") / mops
	}
	if d("caram_wal_appended_lsn") > 0 {
		m["wal.fsyncs_per_s"] = d("caram_wal_fsyncs_total") / wall
		m["wal.fsync_ms_per_s"] = d("caram_wal_fsync_seconds_total") * 1e3 / wall
		m["wal.snapshots_completed"] = snapshots
	}
	if n := d("caram_router_burst_size_count"); n > 0 {
		m["cluster.burst_size_mean"] = d("caram_router_burst_size_sum") / n
	}
	m["cluster.backend_retries"] = d("caram_router_backend_retries_total")
	m["cluster.breaker_trips"] = d("caram_router_backend_breaker_trips_total")
}

// routerPremium prices the router: the routed per-op wall time minus
// the same byte stream's per-op time straight at one server holding the
// whole table, measured here so the two share a run and a host state.
func routerPremium(m metricSet, w *workload, bins binaries, repLen time.Duration) error {
	direct := *w
	direct.routed = false
	dep, err := deploy(&direct, bins, repLen)
	if err != nil {
		return fmt.Errorf("direct twin: %w", err)
	}
	defer dep.fleet.close()
	clients, err := connect(dep.front, &direct, false)
	if err != nil {
		return err
	}
	defer closeClients(clients)
	runRep(clients, repLen/2, false, w.name, dep.pids) // warm-up
	var ops []float64
	for i := 0; i < 2; i++ {
		r := runRep(clients, repLen, false, w.name, dep.pids)
		if r.Failed > 0 {
			return fmt.Errorf("direct twin: %d failed replies", r.Failed)
		}
		ops = append(ops, r.OpsPerSec)
	}
	if d, r := median(ops), m["throughput_ops_s"]; d > 0 && r > 0 {
		m["cluster.router_premium_us_per_op"] = 1e6/r - 1e6/d
	}
	return nil
}

// auditAfterCrash SIGKILLs the WAL-backed server once every acked write
// is durable, restarts it, and checks every key the workload owns —
// preloaded, inserted, deleted — against the model's state at the burst
// each connection stopped on.
func auditAfterCrash(w *workload, dep *deployment, clients []*client) (lines, bad int, err error) {
	if err := dep.crashAndRecover("wal.recover_tail_s"); err != nil {
		return 0, 0, err
	}
	done := make([]int, len(clients))
	for c, cl := range clients {
		done[c] = cl.next
	}
	return driveOnce(dep.front, w.auditStreams(done))
}

// auditStreams renders the post-crash audit: one MSEARCH slot for every
// preloaded key, every key a connection may have inserted, and a
// hundredth as many never-inserted ones, each with the state the model
// gives it once connection c has completed done[c] bursts.
func (w *workload) auditStreams(done []int) []*stream {
	changed := make(map[int]bool)
	for c, n := range done {
		for idx, live := range w.liveAfter(c, n) {
			changed[idx] = live
		}
	}
	var indices []int
	for i := 0; i < w.sc.keys; i++ {
		indices = append(indices, i)
	}
	for c := range done {
		indices = append(indices, w.ownFresh[c]...)
	}
	for i := 0; i < w.sc.keys/100; i++ {
		indices = append(indices, absentBase+i)
	}
	// One stream per connection, driven through the same verifying
	// client as the timed traffic.
	streams := make([]*stream, conns)
	count := make([]int, conns)
	for c := range streams {
		streams[c] = &stream{lines: msearchDepth}
	}
	addLine := func(c int, idxs []int) {
		s := streams[c]
		s.req = append(s.req, "MSEARCH"...)
		s.want = append(s.want, "MRESULTS"...)
		for _, idx := range idxs {
			key := w.keys.key(idx)
			live, ok := changed[idx]
			if !ok {
				live = idx < w.sc.keys
			}
			s.req = append(s.req, " db "...)
			s.req = appendHex(s.req, key)
			if live {
				s.want = append(s.want, " HIT:0:"...)
				s.want = appendHex016(s.want, dataOf(key))
			} else {
				s.want = append(s.want, " MISS"...)
			}
		}
		s.req = append(s.req, '\n')
		s.want = append(s.want, '\n')
		if count[c]++; count[c]%msearchDepth == 0 {
			s.endBurst()
		}
	}
	for at, line := 0, 0; at < len(indices); at, line = at+msearchKeys, line+1 {
		addLine(line/msearchDepth%conns, indices[at:min(at+msearchKeys, len(indices))])
	}
	for c := range streams {
		for count[c]%msearchDepth != 0 {
			addLine(c, []int{absentBase}) // pad the last burst to full depth
		}
	}
	return streams
}

// driveOnce sends each stream once, front to back, on its own
// connection, verifying every reply.
func driveOnce(addr string, streams []*stream) (lines, bad int, err error) {
	clients := make([]*client, 0, len(streams))
	defer func() { closeClients(clients) }()
	for i, s := range streams {
		c, err := newClient(i, addr, s)
		if err != nil {
			return 0, 0, err
		}
		clients = append(clients, c)
	}
	counts := make([]repCount, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			counts[i] = c.run(time.Now().Add(time.Minute), c.st.bursts(), false, "audit")
		}(i, c)
	}
	wg.Wait()
	for i, rc := range counts {
		lines, bad = lines+rc.lines, bad+rc.failed
		if clients[i].dead != nil {
			err = clients[i].dead
		}
	}
	return lines, bad, err
}
