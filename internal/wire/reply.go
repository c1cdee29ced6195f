package wire

import "strings"

// Reply tokens of the wire protocol. MRESULTS slots use the Slot*
// spellings; single SEARCH replies use the bare forms. Their exact
// spelling is the compatibility contract, so both tiers name them here
// instead of respelling them.
const (
	ReplyOK       = "OK"
	ReplyHit      = "HIT"
	ReplyMiss     = "MISS"
	ReplyMissErr  = "MISS!" // explicit miss-with-error (quarantined/unreadable row)
	ReplyMResults = "MRESULTS"

	SlotNoEngine    = "ERR:no-engine"
	SlotUnavailable = "ERR:unavailable"
)

// Connection-level replies: the Endpoint's own lines, each the last
// thing its connection hears. The router's pool matches ReplyBusy to
// know a backend connection never entered service.
const (
	ReplyBusy    = "ERR BUSY"          // accept-time load shed (Limits.MaxConns)
	ReplyTimeout = "ERR timeout"       // read or idle deadline expired; the partial line was not executed
	ReplyTooLong = "ERR line too long" // a request passed MaxLineBytes
	ReplyReadErr = "ERR read: "        // prefix; the transport's error text follows
)

// MaxSlowlogGet bounds the n of SLOWLOG GET n: far above any sane ring
// size, far below anything that could size a hostile allocation.
const MaxSlowlogGet = 1 << 20

// Head returns a reply's first token: "OK" of "OK" and of "OK scrub
// ...", but "MISS!" of "MISS!" — never a prefix of a longer token. It
// is what a trace records as its Result (a view, like any field: the
// collector clones what it retains).
func Head(reply string) string {
	if i := strings.IndexByte(reply, ' '); i >= 0 {
		return reply[:i]
	}
	return reply
}
