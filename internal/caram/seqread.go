package caram

import (
	"runtime"
	"sync/atomic"

	"caram/internal/bitutil"
	"caram/internal/match"
	"caram/internal/trace"
)

// maxSnapshotRetries bounds how many times a Reader re-attempts a
// row snapshot torn by a concurrent writer before giving up and
// escalating to the locked path. A seqlock read section is a handful
// of word loads, so colliding this many consecutive times means the
// writer side is saturated and waiting behind the lock is the better
// strategy anyway.
const maxSnapshotRetries = 16

// BatchChunk is how many keys one pass of LookupBatch's stages covers,
// and how many writes one Touch stage runs ahead of: enough independent
// row fetches in flight to hide memory latency, few enough that the
// chunk's rows are still in L1 when the match stage (or the chunk's
// last write) reaches them. Callers that gather keys for LookupBatch
// piecemeal do best to gather this many at a time.
const BatchChunk = 32

// Reader is a per-goroutine lock-free search port over one slice: the
// software analogue of replicating §3.3's stateless comparator bank so
// several search pipelines can stream rows concurrently. A Reader owns
// its snapshot buffers, its private match kernel (match.Searcher) and
// its result scratch, so Lookup/LookupBatch/LookupBest allocate
// nothing and share no mutable state with other Readers. Rows
// are observed through the array's per-row seqlock: a snapshot is only
// accepted when the row's version is even and unchanged across the
// copy, so a Reader never sees a torn row — every row it searches is
// exactly some state a writer published. A snapshot is
// occupancy-bounded: it copies the words covering the slots below the
// row's mark (Slice.bound) plus the auxiliary field, and every consumer
// of the buffer stops at that bound — the words above it are whatever
// an earlier snapshot left there.
//
// Every method reports ok=false when the lock-free protocol cannot
// certify an answer — a probed row is quarantined, its snapshot kept
// tearing past maxSnapshotRetries, or (with ECC on) the snapshot's
// recomputed check word disagrees with the stored one. The caller
// falls back to the serialized locked path, which owns the full
// detect/correct/quarantine protocol; the lock-free path itself never
// corrects, never quarantines, and never returns unverified data, so
// PR 5's never-silently-wrong contract is preserved.
//
// A Reader is single-owner (one goroutine at a time) but any number
// of Readers may run concurrently with each other and with the one
// serialized writer.
type Reader struct {
	s       *Slice
	row     []uint64 // snapshot buffer of the single-row step
	chunk   []uint64 // BatchChunk home-row snapshots: LookupBatch's fetch stage
	sr      *match.Searcher
	res     match.Result
	retries int // torn snapshots observed since last TakeRetries
}

// NewReader builds a lock-free search port for this slice. The slice's
// construction (including EnableECC and fault installation) must be
// complete before the first Reader runs.
func (s *Slice) NewReader() *Reader {
	w := s.array.RowWords()
	return &Reader{
		s:     s,
		row:   make([]uint64, w),
		chunk: make([]uint64, BatchChunk*w),
		sr:    match.NewSearcher(s.layout, 0),
	}
}

// TakeRetries returns how many torn snapshots this Reader re-read
// since the last call, and resets the count. The subsystem layer
// aggregates these into the caram_search_retries_total metric.
func (r *Reader) TakeRetries() int {
	n := r.retries
	r.retries = 0
	return n
}

// snapshot fills dst with a version-consistent copy of one row's first
// n slots and auxiliary field, n being the row's bound read inside the
// same version window as the words — a mark and a row that were
// published together. It charges no access — callers account the rows
// they fetched with one ChargeRowReads. ok=false escalates: the row is
// quarantined, kept tearing, or failed its check word.
func (r *Reader) snapshot(idx uint32, dst []uint64) (n int, ok bool) {
	s := r.s
	for attempt := 0; attempt < maxSnapshotRetries; attempt++ {
		if s.ecc != nil && s.ecc.quar[idx].Load() {
			return 0, false
		}
		if n, ok = r.peek(idx, dst); !ok {
			// Torn by a concurrent writer: yield and re-read.
			r.retries++
			runtime.Gosched()
			continue
		}
		if s.ecc != nil && checkWord(dst) != atomic.LoadUint64(&s.ecc.check[idx]) {
			// The snapshot is a legally published row (the version
			// validated), so a mismatch means either real corruption or
			// a benign row/check skew (e.g. the check was republished
			// after our copy). Both escalate: the locked path re-reads
			// and owns the correct/quarantine decision.
			return 0, false
		}
		return n, true
	}
	return 0, false
}

// peek is one attempt at the seqlock read section. Whole-row slices
// (ECC, fault injection) copy every word; otherwise the mark is loaded
// between the two version loads and only the words it covers
// (Slice.markWords), and the aux words at the top of the row, are copied.
func (r *Reader) peek(idx uint32, dst []uint64) (n int, ok bool) {
	s := r.s
	if s.wholeRows() {
		return s.layout.Slots(), s.array.TryPeekRow(idx, dst)
	}
	v := s.array.RowVersion(idx)
	if v&1 != 0 {
		return 0, false
	}
	n = int(s.mark[idx].Load())
	s.array.LoadWords(idx, dst, 0, s.markWords(n))
	s.array.LoadWords(idx, dst, s.auxWord, len(dst))
	return n, s.array.RowVersion(idx) == v
}

// chain walks one key's probe chain — the one lock-free fetch loop
// behind Lookup, LookupBatch and LookupBest. Each row is snapshotted
// (quarantine check, seqlock validation, check word), matched over the
// snapshot's bound and folded into the walk by Slice.step, the per-row
// step shared with the port-locked Slice.probe. pre, when non-nil, is
// the home row already snapshotted that way with bound preN
// (LookupBatch's fetch stage); every other row lands in r.row. With
// score nil the first match in probe order wins; otherwise the whole
// reach is scanned for the best-scoring match. res, the caller's slot,
// is filled in place and nothing is accounted here: its RowsRead is what
// the caller charges, also when ok=false cut the chain short.
func (r *Reader) chain(res *LookupResult, search bitutil.Ternary, score func(match.Record) int, tr *trace.Trace, home uint32, pre []uint64, preN int) (ok bool) {
	s := r.s
	*res = LookupResult{HomeBucket: home}
	w := walk{res: res}
	rows := s.rows
	for d := 0; d <= w.reach && d < rows; d++ {
		idx := uint32((int(home) + d) % rows)
		row, n := pre, preN
		if d > 0 || pre == nil {
			if n, ok = r.snapshot(idx, r.row); !ok {
				return false
			}
			row = r.row
		}
		r.sr.SearchPrefixInto(&r.res, row, search, n)
		if s.step(&w, idx, d, row, &r.res, score, tr) {
			break
		}
	}
	s.finish(&w, tr)
	return true
}

// lookup runs one chain and accounts it exactly as the locked path
// would: every row fetched is charged to the array, and a certified
// lookup is recorded in the slice statistics.
func (r *Reader) lookup(search bitutil.Ternary, score func(match.Record) int, tr *trace.Trace) (LookupResult, bool) {
	var res LookupResult
	ok := r.chain(&res, search, score, tr, r.s.Index(search.Value), nil, 0)
	r.s.array.ChargeRowReads(res.RowsRead)
	if !ok {
		return LookupResult{}, false
	}
	r.s.recordLookup(&res)
	return res, true
}

// Lookup is the lock-free LookupTraced: the same probe chain, reach
// rule, trace events and statistics, run entirely on seqlock
// snapshots. ok=false means the protocol could not certify the
// answer and the caller must retry on the locked path; no lookup
// statistics are recorded and the result is zero then.
func (r *Reader) Lookup(search bitutil.Ternary, tr *trace.Trace) (LookupResult, bool) {
	return r.lookup(search, nil, tr)
}

// LookupBest is the lock-free LookupBestTraced: full-reach scan for
// the best-scoring match, on seqlock snapshots, with the same
// escalation contract as Lookup.
func (r *Reader) LookupBest(search bitutil.Ternary, score func(match.Record) int, tr *trace.Trace) (LookupResult, bool) {
	return r.lookup(search, score, tr)
}

// LookupBatch is Lookup over a stream of keys, run as the stages of the
// paper's Table 1 pipeline a chunk (BatchChunk keys) at a time rather
// than key by key: every home index is generated, then every home row
// is snapshotted back to back — independent loads the memory system can
// overlap, the software form of issuing row activations before any
// compare retires — and only then does the match stage sweep the
// now-cache-resident snapshots. A key whose home row misses with a
// nonzero reach simply continues down its chain on the single-row step.
// out[i], ok[i] are what Lookup(keys[i], nil) would return, and the
// slice and array statistics end up exactly as after len(keys) single
// Lookups — summed locally and published once per chunk.
func (r *Reader) LookupBatch(keys []bitutil.Ternary, out []LookupResult, ok []bool) {
	s, w := r.s, len(r.row)
	var home [BatchChunk]uint32
	var bound [BatchChunk]int
	for len(keys) > 0 {
		n := min(len(keys), BatchChunk)
		for i := range home[:n] {
			home[i] = s.Index(keys[i].Value)
		}
		for i := range home[:n] {
			bound[i], ok[i] = r.snapshot(home[i], r.chunk[i*w:(i+1)*w])
		}
		var fetched, done, rows, hits uint64
		for i := range home[:n] {
			if ok[i] {
				ok[i] = r.chain(&out[i], keys[i], nil, nil, home[i], r.chunk[i*w:(i+1)*w], bound[i])
				fetched += uint64(out[i].RowsRead)
			}
			if !ok[i] {
				out[i] = LookupResult{}
				continue
			}
			done++
			rows += uint64(out[i].RowsRead)
			if out[i].Found {
				hits++
			}
		}
		s.array.ChargeRowReads(int(fetched))
		s.recordLookups(done, rows, hits)
		keys, out, ok = keys[n:], out[n:], ok[n:]
	}
}
