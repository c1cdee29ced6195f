package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strconv"

	"caram/internal/bitutil"
	"caram/internal/iproute"
	"caram/internal/pktclass"
	"caram/internal/swsearch"
	"caram/internal/trigram"
	zipfgen "caram/internal/workload"
)

// Everything the programs receive is made here, from the seed, before
// the first timed request: key sets, typed tables, request bytes and
// the reply bytes the model predicts. The timed loop only copies and
// compares bytes.

// conns is the number of generator connections and pipelineDepth the
// request lines per burst: the closed-loop shape ISSUE 12 fixes for a
// 2-vCPU box (2 pipelining clients, 16 in flight each).
const (
	conns         = 2
	pipelineDepth = 16
	msearchKeys   = 64 // keys per MSEARCH request
	msearchDepth  = 4  // MSEARCH requests per burst
	missShare     = 0.10
)

// scale sizes a workload set. fullScale is what the benchmark runs;
// tests shrink it so the whole package stays under a few seconds.
type scale struct {
	keys        int // exact keys preloaded into engine db
	indexBits   int // db geometry: 2^indexBits rows ...
	slots       int // ... of this many slots
	cycleBursts int // bursts per connection before a stream repeats
	window      int // mixed-wal: keys each connection slides through per half cycle
	prefixes    int // lpm table size
	rules       int // pktclass rule count (ids must fit the 8-bit payload field)
	trigrams    int // trigram entries
	typedBits   int // INDEXBITS of the three typed engines

	ladderBatches int // timed batches per ladder rung
}

// fullScale: 600 000 keys in 2^17 rows of 8 slots is a load factor of
// 0.57 over 13.6 MB of rows, larger than this box's L2.
var fullScale = scale{
	keys:        600_000,
	indexBits:   17,
	slots:       8,
	cycleBursts: 1 << 14,
	window:      1 << 15,
	prefixes:    20_000,
	rules:       250,
	trigrams:    60_000,
	typedBits:   12,

	ladderBatches: 100,
}

// mix64 is the splitmix64 finaliser: a bijection on uint64, so
// distinct inputs give distinct keys without a dedup pass.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// keyspace maps indices to 64-bit keys. Indices below `keys` are
// preloaded; anything above is absent until a workload inserts it.
type keyspace struct {
	base uint64
}

func newKeyspace(seed int64) keyspace {
	return keyspace{base: mix64(uint64(seed) ^ 0x9e3779b97f4a7c15)}
}

func (k keyspace) key(i int) uint64 { return mix64(k.base + uint64(i)) }

// dataOf is the 32-bit payload stored with a key. It is a function of
// the key alone, so any HIT can be validated without a table.
func dataOf(key uint64) uint64 { return mix64(key^0x5851f42d4c957f2d) >> 32 }

// stream is one connection's pre-rendered traffic, cut into bursts:
// burst i sends req[reqEnd[i-1]:reqEnd[i]] and must read back exactly
// want[wantEnd[i-1]:wantEnd[i]]. After the last burst it repeats.
type stream struct {
	req, want       []byte
	reqEnd, wantEnd []int
	lines           int // request lines per burst
}

func (s *stream) bursts() int { return len(s.reqEnd) }

func (s *stream) burst(i int) (req, want []byte) {
	lo, wlo := 0, 0
	if i > 0 {
		lo, wlo = s.reqEnd[i-1], s.wantEnd[i-1]
	}
	return s.req[lo:s.reqEnd[i]], s.want[wlo:s.wantEnd[i]]
}

func (s *stream) endBurst() {
	s.reqEnd = append(s.reqEnd, len(s.req))
	s.wantEnd = append(s.wantEnd, len(s.want))
}

func appendHitReply(dst []byte, data uint64) []byte {
	dst = append(dst, "HIT 0:"...)
	return appendHex016(dst, data)
}

func appendHex016(dst []byte, v uint64) []byte {
	const digits = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		dst = append(dst, digits[v>>uint(shift)&0xf])
	}
	return dst
}

func appendHex(dst []byte, v uint64) []byte { return strconv.AppendUint(dst, v, 16) }

// appendVec renders a 128-bit vector in the wire's <hi>:<lo> form.
func appendVec(dst []byte, v bitutil.Vec128) []byte {
	dst = appendHex(dst, v.Hi)
	dst = append(dst, ':')
	return appendHex(dst, v.Lo)
}

// writeOp is one mutation of the mixed-wal stream, by line number, so
// the model can be replayed to any stop position for the audit.
type writeOp struct {
	line   int
	idx    int // keyspace index
	insert bool
}

// typedTables are the three typed engines' contents, generated once
// and loaded over the wire at every set-up.
type typedTables struct {
	prefixes []iproute.Prefix
	rules    []pktclass.Rule
	ruleKeys [][]bitutil.Ternary // per rule: the ternary keys it owns on the wire
	entries  []trigram.Entry
}

// workload is one traffic mix: its streams, what must be loaded before
// the first timed request, and how replies were predicted.
type workload struct {
	name     string
	why      string
	sc       scale
	keys     keyspace
	streams  []*stream
	routed   bool // timed traffic goes through caram-router to 2 backends
	wal      bool // server runs with -data, is killed and recovered
	needsDB  bool // engine db is preloaded with sc.keys keys
	typed    *typedTables
	writes   [][]writeOp // mixed-wal, per connection
	ownFresh [][]int     // mixed-wal, per connection: indices it may insert
}

var workloadWhy = map[string]string{
	"search-direct":  "uniform SEARCH (AMALu) at one server: the baseline; socket, parse and encode dominate, cluster and wal do nothing",
	"search-routed":  "the identical byte stream through caram-router to 2 backends: the gap to search-direct is the router premium",
	"msearch-direct": "64-key MSEARCH, depth 4: one round trip per 64 lookups, so subsystem, caram and match dominate and the socket does little",
	"typed-search":   "40% lpm SEARCH, 30% pktclass SEARCH, 30% TSEARCH: the ternary kernel, LookupBest and the text-key path",
	"mixed-wal":      "50% Zipf SEARCH (AMALs), 25% INSERT, 25% DELETE on a WAL-backed server, one snapshot per repetition: a read gain that costs writes shows here",
}

var workloadNames = []string{"search-direct", "search-routed", "msearch-direct", "typed-search", "mixed-wal"}

// newWorkload generates the named workload from seed.
func newWorkload(name string, seed int64, sc scale) (*workload, error) {
	w := &workload{name: name, why: workloadWhy[name], sc: sc, keys: newKeyspace(seed)}
	// Each connection draws from its own source, so adding a connection
	// would not change what the others send.
	rngs := make([]*rand.Rand, conns)
	for c := range rngs {
		rngs[c] = zipfgen.NewRand(seed*1000 + int64(c) + 1)
	}
	switch name {
	case "search-direct", "search-routed":
		// One generator, two deployments: the routed stream must be
		// byte-identical to the direct one for the premium to mean
		// anything.
		w.needsDB = true
		w.routed = name == "search-routed"
		for c := 0; c < conns; c++ {
			w.streams = append(w.streams, w.genSearch(rngs[c]))
		}
	case "msearch-direct":
		w.needsDB = true
		for c := 0; c < conns; c++ {
			w.streams = append(w.streams, w.genMSearch(rngs[c]))
		}
	case "typed-search":
		w.typed = genTyped(seed, sc)
		trie := swsearch.NewTrie(32)
		for _, p := range w.typed.prefixes {
			trie.Insert(uint64(p.Addr), p.Len, lpmData(p))
		}
		for c := 0; c < conns; c++ {
			w.streams = append(w.streams, w.genTypedStream(rngs[c], trie))
		}
	case "mixed-wal":
		w.needsDB = true
		w.wal = true
		w.writes = make([][]writeOp, conns)
		w.ownFresh = make([][]int, conns)
		for c := 0; c < conns; c++ {
			w.streams = append(w.streams, w.genMixed(rngs[c], c))
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	return w, nil
}

// hash digests every byte the workload will send and expect. Same seed,
// same hash: the determinism test and the result file both use it.
func (w *workload) hash() string {
	h := sha256.New()
	for _, s := range w.streams {
		h.Write(s.req)
		h.Write(s.want)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// readIndex draws a key index for a read: missShare of them from the
// never-inserted range, the rest uniform over the preloaded keys.
func (w *workload) readIndex(rng *rand.Rand) (idx int, present bool) {
	if rng.Float64() < missShare {
		return absentBase + rng.Intn(w.sc.keys), false
	}
	return rng.Intn(w.sc.keys), true
}

// absentBase starts the index range no workload ever inserts. The
// ranges between sc.keys and absentBase belong to mixed-wal's fresh
// keys.
const absentBase = 1 << 30

func (w *workload) genSearch(rng *rand.Rand) *stream {
	s := &stream{lines: pipelineDepth}
	for b := 0; b < w.sc.cycleBursts; b++ {
		for l := 0; l < pipelineDepth; l++ {
			idx, present := w.readIndex(rng)
			key := w.keys.key(idx)
			s.req = append(s.req, "SEARCH db "...)
			s.req = appendHex(s.req, key)
			s.req = append(s.req, '\n')
			if present {
				s.want = appendHitReply(s.want, dataOf(key))
			} else {
				s.want = append(s.want, "MISS"...)
			}
			s.want = append(s.want, '\n')
		}
		s.endBurst()
	}
	return s
}

func (w *workload) genMSearch(rng *rand.Rand) *stream {
	s := &stream{lines: msearchDepth}
	// A 64-key line is ~1.3 KB; a quarter of the SEARCH cycle keeps the
	// stream near 25 MB per connection while still touching every row.
	for b := 0; b < w.sc.cycleBursts/4; b++ {
		for l := 0; l < msearchDepth; l++ {
			s.req = append(s.req, "MSEARCH"...)
			s.want = append(s.want, "MRESULTS"...)
			for k := 0; k < msearchKeys; k++ {
				idx, present := w.readIndex(rng)
				key := w.keys.key(idx)
				s.req = append(s.req, " db "...)
				s.req = appendHex(s.req, key)
				if present {
					s.want = append(s.want, " HIT:0:"...)
					s.want = appendHex016(s.want, dataOf(key))
				} else {
					s.want = append(s.want, " MISS"...)
				}
			}
			s.req = append(s.req, '\n')
			s.want = append(s.want, '\n')
		}
		s.endBurst()
	}
	return s
}

// lpmData packs a prefix's identity into the 32-bit payload, so a HIT
// names the prefix that won: length in the high byte, next hop low.
func lpmData(p iproute.Prefix) uint64 { return uint64(p.Len)<<8 | uint64(p.NextHop) }

// pktclassData is a rule's payload as the engine stores it: EncodeData
// cut to the 32 data bits of a pktclass row, which is why rule ids stay
// below 256.
func pktclassData(r pktclass.Rule) bitutil.Vec128 {
	return bitutil.FromUint64(pktclass.EncodeData(r).Lo & 0xffffffff)
}

// absentMark is appended to a trigram text to make one that is not in
// the table: the corpus alphabet has no '#'.
const absentMark = "#"

func genTyped(seed int64, sc scale) *typedTables {
	t := &typedTables{
		prefixes: iproute.Generate(iproute.GenConfig{Prefixes: sc.prefixes, Seed: seed}),
		entries:  trigram.Generate(trigram.GenConfig{Entries: sc.trigrams, Seed: seed}),
	}
	for i, p := range t.prefixes {
		t.prefixes[i] = p.Canonical()
	}
	// Rules arrive in descending priority. The engine keeps one row per
	// distinct (value, mask) image, so a key a higher-priority rule
	// already owns is not sent again: any packet matching it matches the
	// owner too, and the oracle picks the owner.
	t.rules = pktclass.GenerateRules(pktclass.GenRulesConfig{Rules: sc.rules, Seed: seed})
	claimed := make(map[bitutil.Ternary]bool)
	for _, r := range t.rules {
		var mine []bitutil.Ternary
		for _, k := range r.TernaryKeys() {
			if !claimed[k] {
				claimed[k] = true
				mine = append(mine, k)
			}
		}
		t.ruleKeys = append(t.ruleKeys, mine)
	}
	return t
}

func (w *workload) genTypedStream(rng *rand.Rand, trie *swsearch.Trie) *stream {
	t := w.typed
	s := &stream{lines: pipelineDepth}
	n := w.sc.cycleBursts / 2 * pipelineDepth
	// The packet trace comes from the package's own generator (70 %
	// rule-directed, 30 % random), seeded from this connection's source.
	packets := pktclass.GenerateTrace(t.rules, n, 0.3, rng.Int63())
	np := 0
	for b := 0; b < w.sc.cycleBursts/2; b++ {
		for l := 0; l < pipelineDepth; l++ {
			switch x := rng.Float64(); {
			case x < 0.4: // lpm: half inside a resident prefix, half uniform
				addr := rng.Uint32()
				if rng.Intn(2) == 0 {
					p := t.prefixes[rng.Intn(len(t.prefixes))]
					if p.Len < 32 {
						addr = p.Addr | addr>>uint(p.Len)
					} else {
						addr = p.Addr
					}
				}
				s.req = append(s.req, "SEARCH ip "...)
				s.req = appendHex(s.req, uint64(addr))
				if v, _, ok := trie.Lookup(uint64(addr)); ok {
					s.want = appendHitReply(s.want, v)
				} else {
					s.want = append(s.want, "MISS"...)
				}
			case x < 0.7: // pktclass
				p := packets[np]
				np++
				s.req = append(s.req, "SEARCH acl "...)
				s.req = appendVec(s.req, p.Key())
				if r := pktclass.Oracle(t.rules, p); r.Matched {
					d := pktclassData(pktclass.Rule{ID: r.RuleID, Action: r.Action, Priority: r.Priority})
					s.want = appendHitReply(s.want, d.Lo)
				} else {
					s.want = append(s.want, "MISS"...)
				}
			default: // trigram text
				e := t.entries[rng.Intn(len(t.entries))]
				s.req = append(s.req, "TSEARCH tri "...)
				s.req = append(s.req, e.Text...)
				if rng.Float64() < missShare {
					s.req = append(s.req, absentMark...)
					s.want = append(s.want, "MISS"...)
				} else {
					s.want = appendHitReply(s.want, uint64(e.Score))
				}
			}
			s.req = append(s.req, '\n')
			s.want = append(s.want, '\n')
		}
		s.endBurst()
	}
	return s
}

// freshBase is where connection c's insertable indices start: above
// the preloaded keys, below absentBase, disjoint per connection.
func (w *workload) freshBase(c int) int { return w.sc.keys + c*w.sc.window }

// genMixed renders connection c's read/write mix. INSERT of a live key
// and DELETE of an absent one are errors on this server, so the
// connection owns the preloaded indices congruent to c and a private
// range of fresh ones, and slides a window across them: DELETE the
// oldest owned key, INSERT a fresh one, for `window` pairs; then the
// same pairs undone. The table is back where it began when the stream
// wraps, the load factor never moves by more than one record, and every
// reply is known when the bytes are rendered. Reads are Zipf(s=1) ranks
// over the connection's own keys, hottest ranks first in the window, so
// reads keep landing on keys the window has deleted.
func (w *workload) genMixed(rng *rand.Rand, c int) *stream {
	s := &stream{lines: pipelineDepth}
	own := w.sc.keys / conns // owned preloaded indices: c, c+conns, ...
	win := w.sc.window
	if win > own {
		win = own
	}
	ownIdx := func(rank int) int { return rank*conns + c }
	zipf := zipfgen.NewZipf(rng, 1, own)

	live := make(map[int]bool, 2*win)
	isLive := func(idx int) bool {
		if v, ok := live[idx]; ok {
			return v
		}
		return idx < w.sc.keys
	}
	for j := 0; j < win; j++ {
		w.ownFresh[c] = append(w.ownFresh[c], w.freshBase(c)+j)
	}
	// The write queue: forward half swaps owned for fresh, backward
	// half swaps them back.
	type pending struct {
		idx    int
		insert bool
	}
	queue := make([]pending, 0, 4*win)
	for j := 0; j < win; j++ {
		queue = append(queue, pending{ownIdx(j), false}, pending{w.freshBase(c) + j, true})
	}
	for j := 0; j < win; j++ {
		queue = append(queue, pending{w.freshBase(c) + j, false}, pending{ownIdx(j), true})
	}

	line := 0
	for len(queue) > 0 || line%pipelineDepth != 0 {
		if len(queue) > 0 && rng.Intn(2) == 0 {
			op := queue[0]
			queue = queue[1:]
			key := w.keys.key(op.idx)
			if op.insert {
				s.req = append(s.req, "INSERT db "...)
				s.req = appendHex(s.req, key)
				s.req = append(s.req, ' ')
				s.req = appendHex(s.req, dataOf(key))
			} else {
				s.req = append(s.req, "DELETE db "...)
				s.req = appendHex(s.req, key)
			}
			live[op.idx] = op.insert
			w.writes[c] = append(w.writes[c], writeOp{line: line, idx: op.idx, insert: op.insert})
			s.want = append(s.want, "OK"...)
		} else {
			var idx int
			switch x := rng.Float64(); {
			case x < missShare:
				idx = absentBase + rng.Intn(w.sc.keys)
			case x < missShare+0.1:
				// Recently inserted keys are read too, or the fresh
				// range would be write-only.
				idx = w.freshBase(c) + rng.Intn(win)
			default:
				idx = ownIdx(zipf.Rank())
			}
			key := w.keys.key(idx)
			s.req = append(s.req, "SEARCH db "...)
			s.req = appendHex(s.req, key)
			if isLive(idx) {
				s.want = appendHitReply(s.want, dataOf(key))
			} else {
				s.want = append(s.want, "MISS"...)
			}
		}
		s.req = append(s.req, '\n')
		s.want = append(s.want, '\n')
		line++
		if line%pipelineDepth == 0 {
			s.endBurst()
		}
	}
	return s
}

// liveAfter replays the mixed-wal model: which of connection c's keys
// are live once it has completed `bursts` bursts (counted across
// wraps). It returns only the indices whose state differs from the
// preload.
func (w *workload) liveAfter(c, bursts int) map[int]bool {
	lines := (bursts % w.streams[c].bursts()) * pipelineDepth
	state := make(map[int]bool)
	for _, op := range w.writes[c] {
		if op.line >= lines {
			break
		}
		state[op.idx] = op.insert
	}
	return state
}
