// Package dict is a dictionary search engine in the mold of the
// related work's DISP chip (§5.1, Motomura et al.: "a large-capacity
// CAM design for dictionary lookup applications in natural language
// processing"), rebuilt on a CA-RAM slice. It stores words of up to 15
// characters with a value, answers exact lookups in one row access,
// and supports '?'-wildcard pattern matching: patterns whose leading
// two characters are fixed stay single-bucket; fully wild patterns
// fall back to a whole-array sweep through the match processors — the
// massive-data-evaluation capability of §1.
package dict

import (
	"fmt"
	"strings"

	"caram/internal/bitutil"
	"caram/internal/caram"
	"caram/internal/hash"
	"caram/internal/match"
)

// MaxWord is the longest storable word: 15 characters plus a length
// byte in the key's last position, which pins every match — exact,
// wildcard, or prefix-with-mask — to words of the intended length
// (a '?' must match a character, never the zero padding).
const MaxWord = 15

// Dict is the dictionary engine.
type Dict struct {
	slice *caram.Slice
}

// Config sizes the dictionary.
type Config struct {
	IndexBits int // 2^n buckets; default 10
	Slots     int // words per bucket; default 8
}

// New builds an empty dictionary. The index generator hashes the first
// two characters (key bytes 15 and 14, the top of the big-endian
// image), so exact lookups and leading-anchored patterns resolve to
// one bucket.
func New(cfg Config) (*Dict, error) {
	if cfg.IndexBits <= 0 {
		cfg.IndexBits = 10
	}
	if cfg.Slots <= 0 {
		cfg.Slots = 8
	}
	if cfg.IndexBits > 16 {
		return nil, fmt.Errorf("dict: IndexBits %d too large (max 16, two characters)", cfg.IndexBits)
	}
	// The top 16 key bits hold the first two characters; select the
	// low IndexBits of that window so single-character differences
	// spread.
	pos := make([]int, cfg.IndexBits)
	for i := range pos {
		pos[i] = 128 - 16 + i
	}
	slot := 1 + 128 + 32
	slice, err := caram.New(caram.Config{
		IndexBits: cfg.IndexBits,
		RowBits:   cfg.Slots*slot + 16,
		KeyBits:   128,
		DataBits:  32,
		AuxBits:   16,
		Index:     hash.NewBitSelect(pos),
	})
	if err != nil {
		return nil, err
	}
	return &Dict{slice: slice}, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config) *Dict {
	d, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// wordKey pads a word into its 128-bit key: characters from the most
// significant byte down, length in the last byte.
func wordKey(w string) bitutil.Vec128 {
	var buf [16]byte
	copy(buf[:], w)
	buf[15] = byte(len(w))
	return bitutil.FromBytes(buf[:])
}

// keyWord recovers the word from a stored key via its length byte.
func keyWord(k bitutil.Vec128) string {
	b := k.Bytes(128)
	n := int(b[15])
	if n > MaxWord {
		n = MaxWord
	}
	return string(b[:n])
}

// validate rejects unstorable words.
func validate(word string) error {
	if word == "" || len(word) > MaxWord {
		return fmt.Errorf("dict: word length %d outside [1,%d]", len(word), MaxWord)
	}
	if strings.IndexByte(word, 0) >= 0 {
		return fmt.Errorf("dict: word contains NUL")
	}
	return nil
}

// Add stores a word with its value.
func (d *Dict) Add(word string, val uint32) error {
	if err := validate(word); err != nil {
		return err
	}
	return d.slice.Insert(match.Record{
		Key:  bitutil.Exact(wordKey(word)),
		Data: bitutil.FromUint64(uint64(val)),
	})
}

// Remove deletes a word.
func (d *Dict) Remove(word string) error {
	if err := validate(word); err != nil {
		return err
	}
	return d.slice.Delete(bitutil.Exact(wordKey(word)))
}

// Len returns the stored word count.
func (d *Dict) Len() int { return d.slice.Count() }

// Lookup finds a word's value in one bucket access.
func (d *Dict) Lookup(word string) (uint32, bool) {
	if validate(word) != nil {
		return 0, false
	}
	res := d.slice.Lookup(bitutil.Exact(wordKey(word)))
	if !res.Found {
		return 0, false
	}
	return uint32(res.Record.Data.Uint64()), true
}

// Match is one pattern-match result.
type Match struct {
	Word  string
	Value uint32
}

// patternKey builds the ternary query for a '?'-wildcard pattern: each
// '?' masks its byte; the zero padding stays cared, so only words of
// the pattern's exact length match.
func patternKey(pattern string) (bitutil.Ternary, error) {
	if len(pattern) == 0 || len(pattern) > MaxWord {
		return bitutil.Ternary{}, fmt.Errorf("dict: pattern length %d outside [1,%d]", len(pattern), MaxWord)
	}
	var val, mask [16]byte
	for i := 0; i < len(pattern); i++ {
		if pattern[i] == '?' {
			mask[i] = 0xff
		} else {
			val[i] = pattern[i]
		}
	}
	val[15] = byte(len(pattern)) // length byte cared: equal-length words only
	return bitutil.NewTernary(bitutil.FromBytes(val[:]), bitutil.FromBytes(mask[:])), nil
}

// MatchPattern returns every stored word matching the pattern, where
// '?' matches any single character. It also reports the number of row
// accesses spent: one when the leading two characters are fixed (the
// pattern resolves to one bucket chain), or a full-array sweep when
// the wildcards reach the hash window.
func (d *Dict) MatchPattern(pattern string) ([]Match, int, error) {
	q, err := patternKey(pattern)
	if err != nil {
		return nil, 0, err
	}
	anchored := len(pattern) >= 2 && pattern[0] != '?' && pattern[1] != '?'
	if anchored {
		return d.matchAnchored(q)
	}
	// Whole-array evaluation: every bucket streams through the match
	// processors once.
	before := d.slice.Array().Stats().RowReads
	recs := d.slice.SelectWhere(q)
	rows := int(d.slice.Array().Stats().RowReads - before)
	return toMatches(recs), rows, nil
}

// matchAnchored searches the single bucket chain the anchored pattern
// hashes to.
func (d *Dict) matchAnchored(q bitutil.Ternary) ([]Match, int, error) {
	recs, rows := d.slice.SelectChain(q)
	return toMatches(recs), rows, nil
}

func toMatches(recs []match.Record) []Match {
	out := make([]Match, 0, len(recs))
	for _, r := range recs {
		out = append(out, Match{Word: keyWord(r.Key.Value), Value: uint32(r.Data.Uint64())})
	}
	return out
}

// MatchPrefix returns every word beginning with prefix (any length up
// to MaxWord), by masking the tail bytes. The zero padding of shorter
// stored words is masked too, so "ca" matches both "cat" and "ca".
func (d *Dict) MatchPrefix(prefix string) ([]Match, int, error) {
	if err := validate(prefix); err != nil {
		return nil, 0, err
	}
	var val, mask [16]byte
	copy(val[:], prefix)
	for i := len(prefix); i < 16; i++ {
		mask[i] = 0xff // tail and length byte don't care: any length
	}
	q := bitutil.NewTernary(bitutil.FromBytes(val[:]), bitutil.FromBytes(mask[:]))
	if len(prefix) >= 2 {
		return d.matchAnchored(q)
	}
	before := d.slice.Array().Stats().RowReads
	recs := d.slice.SelectWhere(q)
	rows := int(d.slice.Array().Stats().RowReads - before)
	return toMatches(recs), rows, nil
}

// Slice exposes the underlying CA-RAM (statistics, RAM mode).
func (d *Dict) Slice() *caram.Slice { return d.slice }
