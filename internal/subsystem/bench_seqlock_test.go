package subsystem

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// BenchmarkSearchUnderWriteContention measures the wait-free property:
// read throughput on one engine's lock-free seqlock path with zero or
// one writer in the background. The writer runs the realistic
// maintenance mix — row churn (delete/insert) plus a periodic Scrub
// pass, whose write-locked whole-array scan is exactly the window a
// serialized reader would stall in. The column must hold its
// throughput under the writer. (The PR 6 A/B against a serialized
// rwmutex read side is frozen history: EXPERIMENTS.md.)
func BenchmarkSearchUnderWriteContention(b *testing.B) {
	for _, writers := range []int{0, 1} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			benchSearchContention(b, writers)
		})
	}
}

func benchSearchContention(b *testing.B, writers int) {
	// The measurement needs real scheduler concurrency between readers
	// and the writer even on a single-core CI box: pin GOMAXPROCS to at
	// least 8 so RunParallel fields many readers and the writer
	// genuinely interleaves with them.
	if runtime.GOMAXPROCS(0) < 8 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	}
	sub := New(0)
	sl := seqlockSlice()
	if err := sub.AddEngine(&Engine{Name: "e0", Main: sl}); err != nil {
		b.Fatal(err)
	}
	c := NewConcurrent(sub)
	defer c.Close()

	const nRead, nChurn = 64, 8
	readKeys := make([]uint64, nRead)
	for i := range readKeys {
		readKeys[i] = uint64(0xA000 + i)
		if err := c.Insert("e0", rec(readKeys[i], readKeys[i]&0xffff)); err != nil {
			b.Fatal(err)
		}
	}
	churnKeys := make([]uint64, nChurn)
	for i := range churnKeys {
		churnKeys[i] = uint64(0xB000 + i)
		if err := c.Insert("e0", rec(churnKeys[i], churnKeys[i]&0xffff)); err != nil {
			b.Fatal(err)
		}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				k := churnKeys[(w+i)%nChurn]
				if err := c.Delete("e0", exact(k)); err != nil {
					b.Error(err)
					return
				}
				if err := c.Insert("e0", rec(k, k&0xffff)); err != nil {
					b.Error(err)
					return
				}
				if i%16 == 15 {
					if _, err := c.Scrub("e0"); err != nil {
						b.Error(err)
						return
					}
				}
			}
		}(w)
	}

	b.ReportAllocs()
	// Field many more reader goroutines than Ps. Readers yield every 64
	// lookups — the scheduling texture of a real server goroutine that
	// also touches the network — which is what lets the single writer
	// actually run (and contend) on a box with few hardware threads.
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			key := readKeys[i%nRead]
			i++
			sr, err := c.Search("e0", exact(key))
			if err != nil {
				b.Error(err)
				return
			}
			if !sr.Found {
				b.Errorf("read key %x missing", key)
				return
			}
			if i%64 == 0 {
				runtime.Gosched()
			}
		}
	})
	b.StopTimer()
	stop.Store(true)
	wg.Wait()
	if retries, fallbacks := readTelemetry(c, "e0"); b.N > 0 {
		b.ReportMetric(float64(retries)/float64(b.N), "retries/op")
		b.ReportMetric(float64(fallbacks)/float64(b.N), "fallbacks/op")
	}
}
