package metrics

import (
	"fmt"
	"io"
	"time"
)

// Metric family names of the Prometheus exposition. README documents
// them; cmd/metrics-smoke asserts their presence on a live server.
const (
	FamOps          = "caram_ops_total"
	FamOpErrors     = "caram_op_errors_total"
	FamOpLatency    = "caram_op_latency_seconds"
	FamRecords      = "caram_engine_records"
	FamLoadFactor   = "caram_engine_load_factor"
	FamAMAL         = "caram_engine_amal"
	FamLookups      = "caram_engine_lookups_total"
	FamRowsAccessed = "caram_engine_rows_accessed_total"
	FamHits         = "caram_engine_hits_total"
	FamMisses       = "caram_engine_misses_total"
	FamOverflow     = "caram_engine_overflow_records"
	FamSpilled      = "caram_engine_spilled_records"
	FamUnknown      = "caram_unknown_engine_total"

	// Fault-tolerance families (the health state machine and the
	// per-row error coding behind it).
	FamHealth        = "caram_engine_health"
	FamQuarantined   = "caram_engine_quarantined_rows"
	FamEccCorrected  = "caram_engine_ecc_corrected_bits_total"
	FamEccUncorrect  = "caram_engine_ecc_uncorrectable_total"
	FamRowReadErrors = "caram_engine_row_read_errors_total"
	FamScrubRepaired = "caram_engine_scrub_repaired_bits_total"
)

// Lock-free search path families (PR 6): the seqlock read side's
// contention telemetry.
const (
	FamSearchRetries = "caram_search_retries_total"
	FamLockFallbacks = "caram_search_lock_fallbacks_total"
)

// Durability families (PR 10): the write-ahead log's commit horizon
// and fsync cost.
const (
	FamWALAppended     = "caram_wal_appended_lsn"
	FamWALDurable      = "caram_wal_durable_lsn"
	FamWALPending      = "caram_wal_pending_records"
	FamWALSegments     = "caram_wal_segments"
	FamWALSnapshot     = "caram_wal_snapshot_lsn"
	FamWALFsyncs       = "caram_wal_fsyncs_total"
	FamWALFsyncSeconds = "caram_wal_fsync_seconds_total"
	FamWALLastFsyncAge = "caram_wal_last_fsync_age_seconds"
	FamWALSnapshots    = "caram_wal_snapshots_total"
	FamWALSnapSeconds  = "caram_wal_snapshot_seconds_total"
	FamWALSnapCapture  = "caram_wal_snapshot_capture_seconds_total"
	FamWALSnapBytes    = "caram_wal_snapshot_bytes"
)

// WritePrometheus renders a snapshot in the Prometheus text exposition
// format (version 0.0.4): counters for ops and errors, a cumulative
// `le`-bucketed histogram per (engine, op) latency, and the live engine
// gauges. Zero-count ops keep their `_count`/`_sum` series (so rates
// are well-defined from scrape one) but emit only the +Inf bucket.
func WritePrometheus(w io.Writer, s Snapshot) error {
	bw := &errWriter{w: w}

	bw.printf("# HELP %s Operations processed, by engine and op.\n# TYPE %s counter\n", FamOps, FamOps)
	for _, e := range s.Engines {
		for op := Op(0); op < NumOps; op++ {
			bw.printf("%s{engine=%q,engine_type=%q,op=%q} %d\n", FamOps, e.Name, e.Type, op.String(), e.Ops[op].Count)
		}
	}

	bw.printf("# HELP %s Operations that returned an error, by engine and op.\n# TYPE %s counter\n", FamOpErrors, FamOpErrors)
	for _, e := range s.Engines {
		for op := Op(0); op < NumOps; op++ {
			bw.printf("%s{engine=%q,engine_type=%q,op=%q} %d\n", FamOpErrors, e.Name, e.Type, op.String(), e.Ops[op].Errors)
		}
	}

	bw.printf("# HELP %s Wall-clock operation latency: lock-free searches are timed end to end, serialized ops at the engine lock boundary (writer lock wait included).\n# TYPE %s histogram\n", FamOpLatency, FamOpLatency)
	for _, e := range s.Engines {
		for op := Op(0); op < NumOps; op++ {
			writeLatency(bw, e.Name, e.Type, op, e.Ops[op].Latency)
		}
	}

	gauge := func(fam, help string, val func(EngineSnapshot) string, typ string) {
		bw.printf("# HELP %s %s\n# TYPE %s %s\n", fam, help, fam, typ)
		for _, e := range s.Engines {
			if !e.HasGauges {
				continue
			}
			bw.printf("%s{engine=%q,engine_type=%q} %s\n", fam, e.Name, e.Type, val(e))
		}
	}
	gauge(FamRecords, "Records stored in the engine's main array.",
		func(e EngineSnapshot) string { return fmt.Sprintf("%d", e.Gauges.Records) }, "gauge")
	gauge(FamLoadFactor, "Load factor alpha of the engine's main array.",
		func(e EngineSnapshot) string { return fmt.Sprintf("%g", e.Gauges.LoadFactor) }, "gauge")
	gauge(FamAMAL, "Average memory accesses per lookup over live traffic (the paper's AMAL, section 3.4).",
		func(e EngineSnapshot) string { return fmt.Sprintf("%g", e.Gauges.AMAL) }, "gauge")
	gauge(FamLookups, "Lookups charged against the engine's main array.",
		func(e EngineSnapshot) string { return fmt.Sprintf("%d", e.Gauges.Lookups) }, "counter")
	gauge(FamRowsAccessed, "Rows read by lookups (AMAL numerator).",
		func(e EngineSnapshot) string { return fmt.Sprintf("%d", e.Gauges.RowsAccessed) }, "counter")
	gauge(FamHits, "Lookups that found a record.",
		func(e EngineSnapshot) string { return fmt.Sprintf("%d", e.Gauges.Hits) }, "counter")
	gauge(FamMisses, "Lookups that found nothing.",
		func(e EngineSnapshot) string { return fmt.Sprintf("%d", e.Gauges.Misses) }, "counter")
	gauge(FamOverflow, "Records diverted to the parallel overflow CAM.",
		func(e EngineSnapshot) string { return fmt.Sprintf("%d", e.Gauges.Overflow) }, "gauge")
	gauge(FamSpilled, "Main-array records stored outside their home bucket.",
		func(e EngineSnapshot) string { return fmt.Sprintf("%d", e.Gauges.Spilled) }, "gauge")
	gauge(FamHealth, "Engine availability state: 0 healthy, 1 degraded, 2 failed (circuit broken).",
		func(e EngineSnapshot) string { return fmt.Sprintf("%d", e.Gauges.Health) }, "gauge")
	gauge(FamQuarantined, "Main-array rows quarantined as uncorrectable, pending scrub.",
		func(e EngineSnapshot) string { return fmt.Sprintf("%d", e.Gauges.Quarantined) }, "gauge")
	gauge(FamEccCorrected, "Single-bit errors corrected in place by per-row error coding.",
		func(e EngineSnapshot) string { return fmt.Sprintf("%d", e.Gauges.EccCorrected) }, "counter")
	gauge(FamEccUncorrect, "Uncorrectable row errors detected (each quarantines its row).",
		func(e EngineSnapshot) string { return fmt.Sprintf("%d", e.Gauges.EccUncorrectable) }, "counter")
	gauge(FamRowReadErrors, "Transient row-read failures observed by checked fetches.",
		func(e EngineSnapshot) string { return fmt.Sprintf("%d", e.Gauges.EccReadErrors) }, "counter")
	gauge(FamScrubRepaired, "Corrupt bits restored from the insert-side shadow by scrub passes.",
		func(e EngineSnapshot) string { return fmt.Sprintf("%d", e.Gauges.ScrubRepairedBits) }, "counter")
	gauge(FamSearchRetries, "Torn seqlock snapshots re-read by the lock-free search path.",
		func(e EngineSnapshot) string { return fmt.Sprintf("%d", e.Gauges.SearchRetries) }, "counter")
	gauge(FamLockFallbacks, "Searches escalated from the lock-free path to the serialized engine lock.",
		func(e EngineSnapshot) string { return fmt.Sprintf("%d", e.Gauges.LockFallbacks) }, "counter")

	bw.printf("# HELP %s Requests addressed to no registered engine.\n# TYPE %s counter\n", FamUnknown, FamUnknown)
	bw.printf("%s %d\n", FamUnknown, s.Unknown)
	if s.WAL != nil {
		writeWAL(bw, s.WAL)
	}
	writeBuildInfo(bw)
	return bw.err
}

// writeLatency emits one (engine, op) latency histogram with
// cumulative buckets in seconds.
func writeLatency(bw *errWriter, engine, typ string, op Op, h HistSnapshot) {
	var cum uint64
	if h.N > 0 {
		for i, c := range h.Counts {
			cum += c
			if c == 0 && cum == 0 {
				continue // skip leading empty buckets
			}
			if cum == h.N && c == 0 {
				continue // skip trailing empty buckets (the +Inf line closes the series)
			}
			bw.printf("%s_bucket{engine=%q,engine_type=%q,op=%q,le=%q} %d\n",
				FamOpLatency, engine, typ, op.String(), formatSeconds(BucketEdgeNs(i)), cum)
		}
	}
	bw.printf("%s_bucket{engine=%q,engine_type=%q,op=%q,le=\"+Inf\"} %d\n", FamOpLatency, engine, typ, op.String(), h.N)
	bw.printf("%s_sum{engine=%q,engine_type=%q,op=%q} %g\n", FamOpLatency, engine, typ, op.String(), float64(h.SumNs)/1e9)
	bw.printf("%s_count{engine=%q,engine_type=%q,op=%q} %d\n", FamOpLatency, engine, typ, op.String(), h.N)
}

// formatSeconds renders a nanosecond edge as seconds for an `le` label.
func formatSeconds(ns int64) string {
	return fmt.Sprintf("%g", float64(ns)/1e9)
}

// writeWAL renders the durability families. LSNs are monotone but
// exposed as gauges (they are positions, not event counts; rate() on
// the appended/durable pair still yields write and commit throughput).
func writeWAL(bw *errWriter, w *WALStats) {
	emit := func(fam, help, typ string, val string) {
		bw.printf("# HELP %s %s\n# TYPE %s %s\n%s %s\n", fam, help, fam, typ, fam, val)
	}
	emit(FamWALAppended, "Highest WAL LSN assigned.", "gauge", fmt.Sprintf("%d", w.AppendedLSN))
	emit(FamWALDurable, "Highest WAL LSN fsynced to disk.", "gauge", fmt.Sprintf("%d", w.DurableLSN))
	emit(FamWALPending, "WAL records appended but not yet durable (commit lag).", "gauge", fmt.Sprintf("%d", w.Pending))
	emit(FamWALSegments, "On-disk WAL segments, including the active one.", "gauge", fmt.Sprintf("%d", w.Segments))
	emit(FamWALSnapshot, "LSN bound of the newest on-disk snapshot.", "gauge", fmt.Sprintf("%d", w.SnapshotLSN))
	emit(FamWALFsyncs, "WAL fsync calls.", "counter", fmt.Sprintf("%d", w.Fsyncs))
	emit(FamWALFsyncSeconds, "Cumulative time spent in WAL fsync.", "counter", fmt.Sprintf("%g", float64(w.FsyncNanos)/1e9))
	age := -1.0
	if w.LastFsync > 0 {
		age = float64(time.Now().UnixNano()-w.LastFsync) / 1e9
	}
	emit(FamWALLastFsyncAge, "Seconds since the last WAL fsync (-1 = never).", "gauge", fmt.Sprintf("%g", age))
	emit(FamWALSnapshots, "Snapshots completed since boot.", "counter", fmt.Sprintf("%d", w.Snapshots))
	emit(FamWALSnapSeconds, "Cumulative wall time of completed snapshots, capture through log truncation.", "counter", fmt.Sprintf("%g", float64(w.SnapshotNanos)/1e9))
	emit(FamWALSnapCapture, "Cumulative time snapshots spent capturing engine images under the engines' read locks (the writer stall).", "counter", fmt.Sprintf("%g", float64(w.SnapshotCaptureNanos)/1e9))
	emit(FamWALSnapBytes, "Size of the newest snapshot file written since boot (0 = none).", "gauge", fmt.Sprintf("%d", w.SnapshotBytes))
}

// errWriter folds the repeated error checks of sequential printfs.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
