package server

import (
	"time"

	"caram/internal/wire"
)

// execWALAppend answers the WAL command against the durability layer.
//
//	WAL STATUS       — commit horizon in deterministic form: appended
//	                   and durable LSNs, on-disk segment count, newest
//	                   snapshot bound, and the sync policy. Under
//	                   sync=always durable equals lsn at reply time
//	                   (the ack ordering guarantees it), so the reply
//	                   is a pure function of the session — golden tests
//	                   rely on that.
//	WAL STATUS SYNC  — adds the nondeterministic fsync counters
//	                   (count, mean latency, age of the last one) and
//	                   the pending-record lag, following the METRICS /
//	                   METRICS LATENCY split.
func (s *Server) execWALAppend(dst []byte, v *wire.Verb, fs *wire.Scanner) []byte {
	sub, ok := fs.Next()
	if !ok || !wire.EqualFold(sub, "STATUS") {
		return appendUsage(dst, v)
	}
	arg, hasArg := fs.Next()
	if _, extra := fs.Next(); extra || (hasArg && !wire.EqualFold(arg, "SYNC")) {
		return appendUsage(dst, v)
	}
	if s.wal == nil {
		return append(dst, "ERR wal disabled"...)
	}
	st := s.wal.Stats()
	dst = appendKV(append(dst, "WAL"...), "lsn", st.LSN)
	dst = appendKV(dst, "durable", st.Durable)
	dst = appendKV(dst, "segments", st.Segments)
	dst = appendKV(dst, "snapshot_lsn", st.SnapshotLSN)
	dst = append(dst, " sync="...)
	dst = append(dst, st.Policy...)
	if hasArg {
		dst = appendKV(dst, "pending", st.Pending)
		dst = appendKV(dst, "fsyncs", st.Fsyncs)
		var avg uint64
		if st.Fsyncs > 0 {
			avg = st.FsyncNanos / st.Fsyncs / 1000
		}
		dst = appendKV(dst, "fsync_avg_us", avg)
		age := int64(-1) // never synced
		if st.LastFsync != 0 {
			age = (time.Now().UnixNano() - st.LastFsync) / 1e6
		}
		dst = appendKV(dst, "last_fsync_age_ms", age)
	}
	return dst
}
