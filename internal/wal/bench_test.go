package wal

import (
	"testing"
	"time"

	"caram/internal/subsystem"
)

// BenchmarkWALInsert prices durability on the mutation path: one
// acked insert+delete pair per iteration (the pair keeps occupancy
// flat, so capacity never distorts long runs) through the same
// Concurrent-with-journal stack the server uses. `off` is the
// WAL-less baseline; the other cases span the sync policies —
// `always` pays an fsync per ack, `interval` amortizes it across the
// group-commit window, `never` defers it to segment roll/seal.
func BenchmarkWALInsert(b *testing.B) {
	bench := func(b *testing.B, con *subsystem.Concurrent) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := uint64(i%200 + 1)
			if err := con.Insert("db", rec(k)); err != nil {
				b.Fatal(err)
			}
			if err := con.Delete("db", key(k)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) {
		sub := subsystem.New(0)
		if err := sub.AddEngine(testEngine(b, "db")); err != nil {
			b.Fatal(err)
		}
		bench(b, subsystem.NewConcurrent(sub))
	})
	for _, tc := range []struct {
		name string
		sync SyncPolicy
	}{
		{"always", SyncPolicy{Mode: SyncAlways}},
		{"interval=5ms", SyncPolicy{Mode: SyncInterval, Interval: 5 * time.Millisecond}},
		{"never", SyncPolicy{Mode: SyncNever}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			con, w, _ := openStack(b, b.TempDir(), Options{Sync: tc.sync})
			defer w.Seal() //nolint:errcheck
			bench(b, con)
		})
	}
}
