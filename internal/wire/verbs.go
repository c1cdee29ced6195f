package wire

// ID names a verb; it indexes the table, and both tiers switch on it.
type ID uint8

// The verbs, hottest first: Lookup scans in this order.
const (
	Search ID = iota
	Insert
	Delete
	MSearch
	TSearch
	TInsert
	MInsert
	MDelete
	Explain
	Stats
	Engines
	Create
	Drop
	Health
	Metrics
	Slowlog
	Trace
	WAL
	NumVerbs
)

// Place is how the router places a verb's request on its backends.
type Place uint8

const (
	// Keyed: the ring owner of (engine, key). The engine's home takes
	// the line instead when the engine is pinned, the key does not parse
	// or the probe is masked — unless the router has a merge for the
	// verb's replies (SEARCH), in which case a masked probe scatters.
	Keyed Place = iota
	// Home: the engine's home backend — the typed engines' writes and
	// text reads, which only make sense over the whole rule set.
	Home
	// Scatter: every backend, replies merged; a verb with an engine
	// argument forwards to the home of a pinned engine instead.
	Scatter
	// Custom: the verb has sub-grammars that place differently; the
	// router hangs one route function per such verb off the row.
	Custom
)

// Rule is how one key of a "k=v" reply folds across shards.
type Rule uint8

const (
	Sum      Rule = iota // integers add — the rule of a key that has no other
	Mean                 // mean over the shards that answered (load factors)
	Weighted             // mean weighted by each shard's hits+misses (AMAL)
	Worst                // the sickest health state
	Min                  // the smallest (snapshot_lsn: the fleet's replay bound)
	Same                 // the common value, or "mixed"
	First                // the first shard's value (identity keys)
	Omit                 // node-local: left out of the merged reply
)

// KeyRule gives one reply key its fold rule.
type KeyRule struct {
	Key  string
	Rule Rule
}

// Verb is one row of the table: everything either tier knows about a
// verb before running its handler.
type Verb struct {
	ID    ID
	Name  string // canonical spelling; what a trace records as Cmd
	Usage string // the protocol box line; "ERR usage: "+Usage is the malformed-request reply

	// Argument numbers, counting from 1 after the verb; 0 = the verb has
	// none. Text marks a key that is free text running to end of line.
	Engine, Key, Mask uint8
	Text              bool

	Place      Place
	Idempotent bool // safe to resubmit when its connection died in flight

	// The reply grammar, for the router's fold of "k=v" replies: Strict
	// makes any shard's bad reply the fleet's (a partial sum would
	// overstate); otherwise a shard's ERR shows only if no shard answered.
	Strict bool
	Fold   []KeyRule
}

var verbs = [NumVerbs]Verb{
	Search:  {Name: "SEARCH", Usage: "SEARCH <engine> <key> [mask]", Engine: 1, Key: 2, Mask: 3, Place: Keyed, Idempotent: true},
	Insert:  {Name: "INSERT", Usage: "INSERT <engine> <key> <data>", Engine: 1, Key: 2, Place: Keyed},
	Delete:  {Name: "DELETE", Usage: "DELETE <engine> <key>", Engine: 1, Key: 2, Place: Keyed},
	MSearch: {Name: "MSEARCH", Usage: "MSEARCH <engine> <key> [<engine> <key> ...]", Place: Custom},
	TSearch: {Name: "TSEARCH", Usage: "TSEARCH <engine> <text>", Engine: 1, Key: 2, Text: true, Place: Home, Idempotent: true},
	TInsert: {Name: "TINSERT", Usage: "TINSERT <engine> <score> <text>", Engine: 1, Key: 3, Text: true, Place: Home},
	MInsert: {Name: "MINSERT", Usage: "MINSERT <engine> <key> <mask> <data>", Engine: 1, Key: 2, Place: Home},
	MDelete: {Name: "MDELETE", Usage: "MDELETE <engine> <key> <mask>", Engine: 1, Key: 2, Place: Home},
	Explain: {Name: "EXPLAIN", Usage: "EXPLAIN SEARCH <engine> <key> [mask]", Engine: 2, Key: 3, Mask: 4, Place: Keyed, Idempotent: true},
	Stats: {Name: "STATS", Usage: "STATS <engine>", Engine: 1, Place: Scatter, Idempotent: true,
		Fold: []KeyRule{{"alpha", Mean}, {"amal", Weighted}}},
	Engines: {Name: "ENGINES", Usage: "ENGINES", Place: Scatter},
	Create:  {Name: "CREATE", Usage: "CREATE ENGINE <name> TYPE <type> [INDEXBITS <n>] [SLOTS <n>] [ECC]", Engine: 2, Place: Custom},
	Drop:    {Name: "DROP", Usage: "DROP ENGINE <name>", Engine: 2, Place: Custom},
	Health: {Name: "HEALTH", Usage: "HEALTH [engine [SCRUB]]", Engine: 1, Place: Custom, Idempotent: true,
		Fold: []KeyRule{{"engine", First}, {"state", Worst}}},
	Metrics: {Name: "METRICS", Usage: "METRICS [engine [LATENCY <op>]]", Engine: 1, Place: Custom, Idempotent: true, Strict: true,
		Fold: []KeyRule{{"engine", First}, {"engines", Omit}, {"load", Mean}, {"amal", Weighted}}},
	Slowlog: {Name: "SLOWLOG", Usage: "SLOWLOG GET [n] | SLOWLOG LEN | SLOWLOG RESET", Place: Custom, Strict: true},
	Trace:   {Name: "TRACE", Usage: "TRACE GET <hex-id>[/<span-id>]", Place: Custom},
	WAL: {Name: "WAL", Usage: "WAL STATUS [SYNC]", Place: Scatter, Strict: true,
		Fold: []KeyRule{{"snapshot_lsn", Min}, {"sync", Same}, {"pending", Omit}, {"fsyncs", Omit},
			{"fsync_avg_us", Omit}, {"last_fsync_age_ms", Omit}}},
}

func init() {
	for i := range verbs {
		verbs[i].ID = ID(i)
	}
}

// Table returns the verb rows in ID order. The rows are shared:
// read-only.
func Table() []Verb { return verbs[:] }

// Lookup returns the row of a verb spelled in any case, or nil. It does
// not allocate.
func Lookup(word string) *Verb {
	for i := range verbs {
		if EqualFold(word, verbs[i].Name) {
			return &verbs[i]
		}
	}
	return nil
}

// Rule returns the fold rule of one reply key.
func (v *Verb) Rule(key string) Rule {
	for _, kr := range v.Fold {
		if kr.Key == key {
			return kr.Rule
		}
	}
	return Sum
}

// Status is the outcome of parsing a request line's head.
type Status uint8

const (
	OK                Status = iota
	Empty                    // no verb, before or after an annotation: "ERR empty request"
	UnknownAnnotation        // a '*' field other than *TID: "ERR unknown annotation <word>"
	BadTID                   // *TID without a well-formed id: "ERR usage: "+TIDUsage
	UnknownVerb              // "ERR unknown command <WORD>"
)

// TIDUsage is the usage line of the tracing annotation.
const TIDUsage = "*TID <hex-id>/<span-id> <command ...>"

// Request is a request line parsed as far as both tiers need before
// they diverge: the annotation stripped, the verb looked up, the
// arguments still unscanned.
type Request struct {
	Verb      *Verb   // nil unless Status is OK
	Word      string  // the verb (or unknown annotation) as the client spelled it
	Args      Scanner // positioned just past the verb
	Annotated bool    // the line began with a '*' field, well-formed or not
	Tag       string  // a well-formed annotation as written, through the space before the verb
	TID       uint64  // the *TID annotation's ids; zero without one
	Span      uint32
	Status    Status
}

// Parse reads a request line's head into r, overwriting all of it. It is
// total — every line yields a Request — and does not allocate. It fills
// the caller's Request rather than returning one: a Request returned by
// value is a whole-struct copy per line.
func Parse(r *Request, line string) {
	*r = Request{Args: Scan(line)}
	word, ok := r.Args.Next()
	if ok && word[0] == '*' {
		r.Annotated = true
		if !EqualFold(word, "*TID") {
			r.Word, r.Status = word, UnknownAnnotation
			return
		}
		arg, _ := r.Args.Next()
		if r.TID, r.Span, ok = ParseWireID(arg); !ok {
			r.Status = BadTID
			return
		}
		if word, ok = r.Args.Next(); ok {
			r.Tag = line[:r.Args.i-len(word)]
		}
	}
	if !ok {
		r.Status = Empty
		return
	}
	r.Word = word
	if r.Verb = Lookup(word); r.Verb == nil {
		r.Status = UnknownVerb
	}
}

// MaxText bounds the text argument of TINSERT and TSEARCH. The key image
// is 16 bytes regardless (longer texts are digest-folded), so the bound
// only keeps trace and log fields sane; Identity cuts any key to it.
const MaxText = 256

// Identity is what either tier's trace calls the request: the verb's
// canonical name (an unknown verb as written — a retained trace
// upper-cases it — and "" for a line without a verb), and the engine and
// key arguments at the row's positions (a Text key is the rest of the
// line, at most MaxText bytes of it), "" for one the verb lacks or the
// line is too short to hold. It never allocates.
func (r *Request) Identity() (cmd, engine, key string) {
	v := r.Verb
	if v == nil {
		if r.Status == UnknownVerb {
			cmd = r.Word
		}
		return cmd, "", ""
	}
	sc := r.Args
	for i := uint8(1); i <= max(v.Engine, v.Key); i++ {
		if v.Text && i == v.Key {
			key = sc.Rest()
			break
		}
		f, ok := sc.Next()
		if !ok {
			break
		}
		switch i {
		case v.Engine:
			engine = f
		case v.Key:
			key = f
		}
	}
	return v.Name, engine, key[:min(len(key), MaxText)]
}
