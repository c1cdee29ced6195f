package caram

import (
	"runtime"
	"sync/atomic"

	"caram/internal/bitutil"
	"caram/internal/match"
	"caram/internal/trace"
)

// maxSnapshotRetries bounds how many times a Reader re-reads a row torn
// by a concurrent writer before giving up and escalating to the locked
// path. A seqlock read section is one row's match, so colliding this many
// consecutive times means the writer side is saturated and waiting
// behind the lock is the better strategy anyway.
const maxSnapshotRetries = 16

// BatchChunk is how far LookupBatch's prefetch stage runs ahead of its
// match stage, in keys, and how many writes one Touch stage runs ahead
// of: enough independent row fetches in flight to hide memory latency,
// few enough that a key's rows are still in L1 when the match stage (or
// the chunk's last write) reaches them.
const BatchChunk = 32

// Reader is a per-goroutine lock-free search port over one slice: the
// software analogue of replicating §3.3's stateless comparator bank so
// several search pipelines can stream rows concurrently. A Reader owns
// its private match kernel (match.Searcher) and its result scratch, so
// Lookup/LookupBatch/LookupBest allocate nothing and share no mutable
// state with other Readers. Rows are matched where they lie, through
// the array's per-row seqlock: a row counts only when its version was
// even before the first word read from it and unchanged after the last
// (matchRow), so nothing a Reader returns, counts or traces comes from
// a torn row — every row it folds in is exactly some state a writer
// published. The match is occupancy-bounded: it tests the slots below
// the row's mark (Slice.bound), loaded inside the same window.
//
// Every method reports ok=false when the lock-free protocol cannot
// certify an answer — a probed row is quarantined, kept tearing past
// maxSnapshotRetries, or (with ECC on) the row's recomputed check word
// disagrees with the stored one. The caller falls back to the
// serialized locked path, which owns the full detect/correct/quarantine
// protocol; the lock-free path itself never corrects, never
// quarantines, and never returns unverified data, so PR 5's
// never-silently-wrong contract is preserved.
//
// A Reader is single-owner (one goroutine at a time) but any number
// of Readers may run concurrently with each other and with the one
// serialized writer.
type Reader struct {
	s       *Slice
	sr      *match.Searcher
	res     match.Result
	retries int // torn rows observed since last TakeRetries
}

// NewReader builds a lock-free search port for this slice. The slice's
// construction (including EnableECC and fault installation) must be
// complete before the first Reader runs.
func (s *Slice) NewReader() *Reader {
	return &Reader{s: s, sr: match.NewSearcher(s.layout, 0)}
}

// TakeRetries returns how many torn rows this Reader re-read since the
// last call, and resets the count. The subsystem layer aggregates these
// into the caram_search_retries_total metric.
func (r *Reader) TakeRetries() int {
	n := r.retries
	r.retries = 0
	return n
}

// matchRow is one row's seqlock read section, run on the live row with
// no copy: load the version; load the row's bound (its mark, published
// with the row); match the slots below it into r.res and read what step
// folds besides (Slice.scan: the reach, a ranked walk's scored records);
// with ECC on, recompute the check word over the live row and load the
// stored one; then load the version again. The row counts only if the
// version was even and is unchanged after all of those reads; a torn row
// is re-read. It charges no access — callers account the rows they
// fetched with one ChargeRowReads. ok=false escalates: the row is
// quarantined, kept tearing, or failed its check word.
func (r *Reader) matchRow(idx uint32, d int, search bitutil.Ternary, score func(match.Record) int) (reach, best int, ok bool) {
	s := r.s
	row := s.array.PeekRow(idx)
	for attempt := 0; attempt < maxSnapshotRetries; attempt++ {
		if s.ecc != nil && s.ecc.quar[idx].Load() {
			return 0, 0, false
		}
		if v := s.array.RowVersion(idx); v&1 == 0 {
			r.sr.SearchPrefixInto(&r.res, row, search, s.bound(idx))
			reach, best = s.scan(d, row, &r.res, score)
			// A mismatch on a row that validates is real corruption (or a
			// fault injector's publish, which leaves the check word
			// alone): the locked path re-reads and owns the
			// correct/quarantine decision.
			sound := s.ecc == nil || checkWord(row) == atomic.LoadUint64(&s.ecc.check[idx])
			if s.array.RowVersion(idx) == v {
				return reach, best, sound
			}
		}
		// Torn by a concurrent writer: yield and re-read.
		r.retries++
		runtime.Gosched()
	}
	return 0, 0, false
}

// chain walks one key's probe chain — the one lock-free fetch loop
// behind Lookup, LookupBatch and LookupBest. Each row is matched in
// place (matchRow) and folded into the walk by Slice.step, the per-row
// step shared with the port-locked Slice.probe. ahead says LookupBatch's
// prefetch stage already hinted the home row; every other row is hinted
// here, just before it is read. With score nil the first match in probe
// order wins; otherwise the whole reach is scanned for the best-scoring
// match. res, the caller's slot, is filled in place and nothing is
// accounted here: its RowsRead is what the caller charges, also when
// ok=false cut the chain short.
func (r *Reader) chain(res *LookupResult, search bitutil.Ternary, score func(match.Record) int, tr *trace.Trace, home uint32, ahead bool) (ok bool) {
	s := r.s
	*res = LookupResult{HomeBucket: home}
	w := walk{res: res}
	rows := s.rows
	for d := 0; d <= w.reach && d < rows; d++ {
		idx := uint32((int(home) + d) % rows)
		if d > 0 || !ahead {
			s.prefetch(idx)
		}
		reach, best, ok := r.matchRow(idx, d, search, score)
		if !ok {
			return false
		}
		if s.step(&w, idx, d, reach, best, &r.res, score, tr) {
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
	ok := r.chain(&res, search, score, tr, r.s.Index(search.Value), false)
	r.s.array.ChargeRowReads(res.RowsRead)
	if !ok {
		return LookupResult{}, false
	}
	r.s.recordLookup(&res)
	return res, true
}

// Lookup is the lock-free LookupTraced: the same probe chain, reach
// rule, trace events and statistics, run on rows read in place under
// their seqlocks. ok=false means the protocol could not certify the
// answer and the caller must retry on the locked path; no lookup
// statistics are recorded and the result is zero then.
func (r *Reader) Lookup(search bitutil.Ternary, tr *trace.Trace) (LookupResult, bool) {
	return r.lookup(search, nil, tr)
}

// LookupBest is the lock-free LookupBestTraced: full-reach scan for
// the best-scoring match, with the same escalation contract as Lookup.
// score also runs on the records of a row that then fails validation,
// whose scores are dropped: it must be a pure function of the record.
func (r *Reader) LookupBest(search bitutil.Ternary, score func(match.Record) int, tr *trace.Trace) (LookupResult, bool) {
	return r.lookup(search, score, tr)
}

// LookupBatch is Lookup over a stream of keys, run as two stages of the
// paper's Table 1 pipeline: the first generates a key's home index and
// issues prefetch hints for the lines that row's read starts with
// (Slice.prefetch), BatchChunk keys ahead of the second, which walks the
// key's chain in place. A hint, unlike a load, retires before its line
// arrives, so the first stage really runs ahead and the row fetches of a
// chunk of keys overlap — the software form of issuing row activations
// before any compare retires. out[i], ok[i] are what Lookup(keys[i],
// nil) would return, and the slice and array statistics end up exactly
// as after len(keys) single Lookups — summed locally and published once.
func (r *Reader) LookupBatch(keys []bitutil.Ternary, out []LookupResult, ok []bool) {
	s := r.s
	var home [BatchChunk]uint32
	for i := range keys[:min(len(keys), BatchChunk)] {
		home[i] = s.Index(keys[i].Value)
		s.prefetch(home[i])
	}
	var fetched, done, rows, hits uint64
	for i := range keys {
		h := home[i%BatchChunk]
		if j := i + BatchChunk; j < len(keys) {
			home[j%BatchChunk] = s.Index(keys[j].Value)
			s.prefetch(home[j%BatchChunk])
		}
		ok[i] = r.chain(&out[i], keys[i], nil, nil, h, true)
		fetched += uint64(out[i].RowsRead)
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
}
