package cluster

import (
	"testing"

	"caram/internal/wire"
)

// settledOp builds a scatter op whose calls have already completed:
// backend i answered replies[i], or failed in transport when replies[i]
// is an error.
func settledOp(v *wire.Verb, replies ...any) *pendingOp {
	op := &pendingOp{kind: opScatter, verb: v}
	for _, r := range replies {
		c := wire.NewBatch().Add("")
		switch r := r.(type) {
		case string:
			c.Batch().Answer([]byte(r))
			c.Batch().Finish(nil)
		case error:
			c.Batch().Finish(r)
		}
		op.calls = append(op.calls, Call{c})
	}
	return op
}

// TestFoldRules holds the one k=v fold to each rule the verb rows name,
// to both error policies, and to a backend that could not be asked.
func TestFoldRules(t *testing.T) {
	row := func(id wire.ID) *wire.Verb { return &wire.Table()[id] }
	rt := &Router{order: []int{0, 1, 2}}
	for _, tc := range []struct {
		name    string
		merge   mergeFn
		verb    wire.ID
		replies []any
		want    string
	}{
		{"sum, mean, lookup-weighted mean", (*Router).mergeFold, wire.Stats, []any{
			"STATS n=3 alpha=0.250 amal=1.000 hits=8 misses=2",
			"STATS n=4 alpha=0.750 amal=2.000 hits=10 misses=20",
			"STATS n=0 alpha=0.500 amal=1.500 hits=0 misses=0",
		}, "STATS n=7 alpha=0.500 amal=1.750 hits=18 misses=22"},
		{"weighted mean with no lookups anywhere", (*Router).mergeFold, wire.Stats, []any{
			"STATS n=1 alpha=0.100 amal=NaN hits=0 misses=0",
			"STATS n=1 alpha=0.100 amal=NaN hits=0 misses=0",
			"STATS n=1 alpha=0.100 amal=NaN hits=0 misses=0",
		}, "STATS n=3 alpha=0.100 amal=NaN hits=0 misses=0"},
		{"worst state, first engine", (*Router).mergeFold, wire.Health, []any{
			"HEALTH engine=db state=healthy quarantined=0 corrected=1",
			"HEALTH engine=db state=failed quarantined=2 corrected=0",
			"HEALTH engine=db state=degraded quarantined=1 corrected=4",
		}, "HEALTH engine=db state=failed quarantined=3 corrected=5"},
		{"bare words keep their place", (*Router).mergeScrub, wire.Health, []any{
			"OK scrub engine=db rows=1 bits=2 released=0",
			"OK scrub engine=db rows=0 bits=0 released=0",
			"OK scrub engine=db rows=2 bits=5 released=1",
		}, "OK scrub engine=db rows=3 bits=7 released=1"},
		{"min, same, node count, node-local keys omitted", (*Router).mergeWAL, wire.WAL, []any{
			"WAL lsn=10 durable=10 segments=1 snapshot_lsn=7 sync=always pending=0 fsyncs=4 fsync_avg_us=90 last_fsync_age_ms=3",
			"WAL lsn=5 durable=4 segments=2 snapshot_lsn=2 sync=always pending=1 fsyncs=1 fsync_avg_us=70 last_fsync_age_ms=9",
			"WAL lsn=1 durable=1 segments=1 snapshot_lsn=9 sync=always pending=0 fsyncs=1 fsync_avg_us=70 last_fsync_age_ms=9",
		}, "WAL nodes=3 lsn=16 durable=15 segments=4 snapshot_lsn=2 sync=always"},
		{"same-or-mixed", (*Router).mergeWAL, wire.WAL, []any{
			"WAL lsn=1 durable=1 segments=1 snapshot_lsn=0 sync=always",
			"WAL lsn=1 durable=1 segments=1 snapshot_lsn=0 sync=batch",
			"WAL lsn=1 durable=1 segments=1 snapshot_lsn=0 sync=always",
		}, "WAL nodes=3 lsn=3 durable=3 segments=3 snapshot_lsn=0 sync=mixed"},
		{"key order is first-seen; unruled keys sum; mean over shards", (*Router).mergeFold, wire.Metrics, []any{
			"METRICS engine=db search=2 search_err=0 n=1 load=0.300 amal=1.000 hits=1 misses=1",
			"METRICS engine=db search=1 search_err=1 n=2 load=0.600 amal=3.000 hits=2 misses=0 spilled=4",
			"METRICS engine=db search=0 search_err=0 n=0 load=0.000 amal=NaN hits=0 misses=0",
		}, "METRICS engine=db search=3 search_err=1 n=3 load=0.300 amal=NaN hits=3 misses=1 spilled=4"},
		{"lenient: a shard's ERR hides behind a shard that answered", (*Router).mergeFold, wire.Stats, []any{
			`ERR no such engine "db"`,
			"STATS n=4 alpha=0.750 amal=2.000 hits=10 misses=20",
			`ERR no such engine "db"`,
		}, "STATS n=4 alpha=0.750 amal=2.000 hits=10 misses=20"},
		{"lenient: no shard answered, the first ERR shows", (*Router).mergeFold, wire.Health, []any{
			"ERR first", "ERR second", "ERR third",
		}, "ERR first"},
		{"strict: any bad reply is the fleet's", (*Router).mergeWAL, wire.WAL, []any{
			"WAL lsn=1 durable=1 segments=1 snapshot_lsn=0 sync=always",
			"ERR wal disabled",
			"WAL lsn=1 durable=1 segments=1 snapshot_lsn=0 sync=always",
		}, "ERR wal disabled"},
		{"lenient: a backend down sheds the answer", (*Router).mergeFold, wire.Stats, []any{
			"STATS n=3 alpha=0.250 amal=1.000 hits=8 misses=2", ErrBackendDown,
			"STATS n=3 alpha=0.250 amal=1.000 hits=8 misses=2",
		}, "ERR unavailable"},
		{"strict: a backend down sheds the answer", (*Router).mergeWAL, wire.WAL, []any{
			"WAL lsn=1 durable=1 segments=1 snapshot_lsn=0 sync=always",
			"WAL lsn=1 durable=1 segments=1 snapshot_lsn=0 sync=always", ErrBackendUnavailable,
		}, "ERR unavailable"},
	} {
		got := string(tc.merge(rt, nil, settledOp(row(tc.verb), tc.replies...)))
		if got != tc.want {
			t.Errorf("%s:\n  got  %q\n  want %q", tc.name, got, tc.want)
		}
	}
	// The router's own contribution folds in last, as one more reply, and
	// the count leads the line: bare METRICS on a tracing router.
	got := string(rt.fold(nil, settledOp(row(wire.Metrics),
		"METRICS engines=2 ops=5 errors=1 unknown=0",
		"METRICS engines=2 ops=7 errors=0 unknown=1",
		"METRICS engines=3 ops=1 errors=0 unknown=0",
	), "METRICS", "backends", "METRICS router_ops=13 router_errors=0"))
	if want := "METRICS backends=3 ops=13 errors=1 unknown=1 router_ops=13 router_errors=0"; got != want {
		t.Errorf("count and self:\n  got  %q\n  want %q", got, want)
	}
	// Replies are visited in address order, not config order: with the
	// order reversed the other ERR is first.
	rev := &Router{order: []int{2, 1, 0}}
	if got := string(rev.mergeFold(nil, settledOp(row(wire.Stats), "ERR first", "ERR second", "ERR third"))); got != "ERR third" {
		t.Errorf("address order: got %q", got)
	}
}
