package wal

import (
	"time"

	"caram/internal/metrics"
)

// StatsFamilies are the log's /metrics families, declared against Stats
// and sampled once per scrape. LSNs are monotone but exposed as gauges:
// they are positions, not event counts (rate() on the appended/durable
// pair still yields write and commit throughput).
var StatsFamilies = []metrics.Family[Stats]{
	{Desc: metrics.Desc{Name: "caram_wal_appended_lsn", Help: "Highest WAL LSN assigned.",
		Type: metrics.TypeGauge}, Collect: metrics.Scalar(func(s Stats) any { return s.LSN })},
	{Desc: metrics.Desc{Name: "caram_wal_durable_lsn", Help: "Highest WAL LSN fsynced to disk.",
		Type: metrics.TypeGauge}, Collect: metrics.Scalar(func(s Stats) any { return s.Durable })},
	{Desc: metrics.Desc{Name: "caram_wal_pending_records", Help: "WAL records appended but not yet durable (commit lag).",
		Type: metrics.TypeGauge}, Collect: metrics.Scalar(func(s Stats) any { return s.Pending })},
	{Desc: metrics.Desc{Name: "caram_wal_segments", Help: "On-disk WAL segments, including the active one.",
		Type: metrics.TypeGauge}, Collect: metrics.Scalar(func(s Stats) any { return s.Segments })},
	{Desc: metrics.Desc{Name: "caram_wal_snapshot_lsn", Help: "LSN bound of the newest on-disk snapshot.",
		Type: metrics.TypeGauge}, Collect: metrics.Scalar(func(s Stats) any { return s.SnapshotLSN })},
	{Desc: metrics.Desc{Name: "caram_wal_fsyncs_total", Help: "WAL fsync calls.",
		Type: metrics.TypeCounter}, Collect: metrics.Scalar(func(s Stats) any { return s.Fsyncs })},
	{Desc: metrics.Desc{Name: "caram_wal_fsync_seconds_total", Help: "Cumulative time spent in WAL fsync.",
		Type: metrics.TypeCounter}, Collect: metrics.Scalar(func(s Stats) any { return seconds(s.FsyncNanos) })},
	{Desc: metrics.Desc{Name: "caram_wal_fsync_seconds", Help: "WAL fsync latency, one observation per fsync.",
		Type: metrics.TypeHistogram, Buckets: metrics.LatencyBuckets},
		Collect: func(s Stats, e *metrics.Emitter) { e.Latency(s.FsyncLatency) }},
	{Desc: metrics.Desc{Name: "caram_wal_commit_batch_records", Help: "Records per group-commit write, one observation per syncer write.",
		Type: metrics.TypeHistogram, Buckets: metrics.SizeBuckets},
		Collect: func(s Stats, e *metrics.Emitter) { e.Hist(s.CommitBatch.Counts[:], s.CommitBatch.N, s.CommitBatch.Sum) }},
	{Desc: metrics.Desc{Name: "caram_wal_last_fsync_age_seconds", Help: "Seconds since the last WAL fsync (-1 = never).",
		Type: metrics.TypeGauge},
		Collect: metrics.Scalar(func(s Stats) any {
			if s.LastFsync <= 0 {
				return -1
			}
			return float64(time.Now().UnixNano()-s.LastFsync) / 1e9
		})},
	{Desc: metrics.Desc{Name: "caram_wal_snapshots_total", Help: "Snapshots completed since boot.",
		Type: metrics.TypeCounter}, Collect: metrics.Scalar(func(s Stats) any { return s.Snapshots })},
	{Desc: metrics.Desc{Name: "caram_wal_snapshot_seconds_total", Help: "Cumulative wall time of completed snapshots, capture through log truncation.",
		Type: metrics.TypeCounter}, Collect: metrics.Scalar(func(s Stats) any { return seconds(s.SnapshotNanos) })},
	{Desc: metrics.Desc{Name: "caram_wal_snapshot_capture_seconds_total", Help: "Cumulative time snapshots spent capturing engine images under the engines' read locks (the writer stall).",
		Type: metrics.TypeCounter}, Collect: metrics.Scalar(func(s Stats) any { return seconds(s.SnapshotCaptureNanos) })},
	{Desc: metrics.Desc{Name: "caram_wal_snapshot_capture_seconds", Help: "Writer stall of each completed snapshot: its capture under the engines' read locks.",
		Type: metrics.TypeHistogram, Buckets: metrics.LatencyBuckets},
		Collect: func(s Stats, e *metrics.Emitter) { e.Latency(s.CaptureLatency) }},
	{Desc: metrics.Desc{Name: "caram_wal_snapshot_bytes", Help: "Size of the newest snapshot file written since boot (0 = none).",
		Type: metrics.TypeGauge}, Collect: metrics.Scalar(func(s Stats) any { return s.SnapshotBytes })},
}

func seconds(ns uint64) any { return float64(ns) / 1e9 }

// RecoveryFamilies report the recovery that opened the log: constant for
// the life of the process, so a boot that replayed, dropped or truncated
// anything says so on every scrape, not only in its boot log line.
var RecoveryFamilies = []metrics.Family[*RecoverResult]{
	{Desc: metrics.Desc{Name: "caram_wal_recovery_replayed_records", Help: "Log records the boot's recovery replayed over its snapshot (0 after a graceful shutdown).",
		Type: metrics.TypeGauge}, Collect: metrics.Scalar(func(r *RecoverResult) any { return r.Replayed })},
	{Desc: metrics.Desc{Name: "caram_wal_recovery_dropped_records", Help: "Replayed records the recovering engine refused (counted in replayed too).",
		Type: metrics.TypeGauge}, Collect: metrics.Scalar(func(r *RecoverResult) any { return r.Dropped })},
	{Desc: metrics.Desc{Name: "caram_wal_recovery_truncated_bytes", Help: "Torn tail the boot's recovery cut from the final segment (0 = clean log).",
		Type: metrics.TypeGauge}, Collect: metrics.Scalar(func(r *RecoverResult) any { return r.TruncatedBytes })},
	{Desc: metrics.Desc{Name: "caram_wal_recovery_clean_shutdown", Help: "1 if the recovered log ended with a seal record (the previous life shut down gracefully), 0 if not.",
		Type: metrics.TypeGauge},
		Collect: metrics.Scalar(func(r *RecoverResult) any {
			if r.CleanShutdown {
				return 1
			}
			return 0
		})},
}
