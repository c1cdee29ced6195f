package subsystem

import (
	"caram/internal/bitutil"
)

// Cycle-level bandwidth simulation (§3.4). Requests stream into the
// engine back to back (saturating: a request is always waiting); each
// occupies its bank for nmem cycles per row accessed. The sustained throughput of a banked
// engine under uniform traffic approaches the analytical bound
// B = Nbanks/nmem * fclk.

// TrafficConfig shapes the offered load.
type TrafficConfig struct {
	// QueueDepth bounds requests in flight (request queue of §3.2);
	// 0 means 64.
	QueueDepth int
}

// SimResult summarizes one simulated run.
type SimResult struct {
	Requests        int
	Cycles          int64   // makespan in clock cycles
	RowAccesses     int64   // total rows fetched
	ThroughputPerCy float64 // completed requests per cycle
	AvgLatency      float64 // cycles from arrival (cycle 0) to completion
	BankBusy        []int64 // busy cycles per bank
}

// ThroughputHz converts to absolute search bandwidth at fclk.
func (r SimResult) ThroughputHz(fclkHz float64) float64 {
	return r.ThroughputPerCy * fclkHz
}

// Simulate runs the keys through the engine's timing model. Each
// search's row count comes from actually performing it, so overflow
// reaches and probe chains are charged faithfully. matchCycles is the
// pipeline latency added to each request's completion (1 in the
// prototype, §3.3); it does not occupy the bank, since matching is
// pipelined with the next access.
func (e *Engine) Simulate(keys []bitutil.Ternary, traffic TrafficConfig, matchCycles int) SimResult {
	nmem := int64(e.Main.Array().Timing().MinInterval)
	qd := traffic.QueueDepth
	if qd <= 0 {
		qd = 64
	}
	res := SimResult{
		Requests: len(keys),
		BankBusy: make([]int64, e.banks()),
	}
	bankFree := make([]int64, e.banks())
	finishRing := make([]int64, qd) // completion times of in-flight window
	var totalLatency int64
	for i, key := range keys {
		sr := e.Search(key)
		rows := int64(sr.RowsRead)
		if rows == 0 {
			rows = 1
		}
		res.RowAccesses += rows
		home := e.Main.Index(key.Value)
		b := e.bankOf(home)
		start := bankFree[b]
		// The request queue admits at most qd requests in flight: we
		// cannot start before the request qd slots ago completed.
		if prev := finishRing[i%qd]; prev > start {
			start = prev
		}
		busy := rows * nmem
		finish := start + busy
		bankFree[b] = finish
		res.BankBusy[b] += busy
		complete := finish + int64(matchCycles)
		finishRing[i%qd] = complete
		totalLatency += complete
		if complete > res.Cycles {
			res.Cycles = complete
		}
	}
	if res.Cycles > 0 {
		res.ThroughputPerCy = float64(res.Requests) / float64(res.Cycles)
	}
	if res.Requests > 0 {
		res.AvgLatency = float64(totalLatency) / float64(res.Requests)
	}
	return res
}
