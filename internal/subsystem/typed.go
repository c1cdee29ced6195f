package subsystem

import (
	"fmt"

	"caram/internal/caram"
	"caram/internal/hash"
	"caram/internal/iproute"
	"caram/internal/mem"
	"caram/internal/pktclass"
	"caram/internal/trigram"
)

// EngineType selects an engine's key encoding and search semantics —
// the four workload shapes of the paper's case studies served by one
// substrate: exact match (§3), IP longest-prefix match over ternary
// keys (§5), packet classification by highest-priority rule (§6.2 of
// the classifier literature the paper cites), and trigram candidate
// lookup (§6).
type EngineType uint8

const (
	// ExactEngine is first-match exact search on 64-bit keys — the
	// default workload every prior PR exercised.
	ExactEngine EngineType = iota
	// LPMEngine stores 32-bit ternary prefixes (value + don't-care
	// mask) duplicated across their wildcard home buckets and answers
	// SEARCH with the longest (most specific) matching prefix.
	LPMEngine
	// PktClassEngine stores 104-bit five-tuple ternary rules (expanded
	// port ranges) and answers SEARCH with the highest-priority match;
	// the payload encodes (ruleID, action, priority) per
	// pktclass.EncodeData.
	PktClassEngine
	// TrigramEngine stores 128-bit signature keys derived from short
	// texts (trigram.Entry.Key) under a byte-wise DJB index and answers
	// exact candidate lookups.
	TrigramEngine
)

// String returns the wire-level type name.
func (t EngineType) String() string {
	switch t {
	case ExactEngine:
		return "exact"
	case LPMEngine:
		return "lpm"
	case PktClassEngine:
		return "pktclass"
	case TrigramEngine:
		return "trigram"
	}
	return fmt.Sprintf("EngineType(%d)", uint8(t))
}

// ParseEngineType maps a wire-level type name (case-sensitive, the
// canonical lower-case spelling) to its EngineType.
func ParseEngineType(s string) (EngineType, error) {
	switch s {
	case "exact":
		return ExactEngine, nil
	case "lpm":
		return LPMEngine, nil
	case "pktclass":
		return PktClassEngine, nil
	case "trigram":
		return TrigramEngine, nil
	}
	return ExactEngine, fmt.Errorf("subsystem: bad engine type %q", s)
}

// TypedConfig sizes a typed engine. The zero value gets a small
// general-purpose geometry (256 rows of 8 slots).
type TypedConfig struct {
	IndexBits int  // 2^IndexBits rows; 0 = 8
	Slots     int  // slots per row; 0 = 8
	ECC       bool // per-row SEC-DED protection
}

func (c TypedConfig) withDefaults() TypedConfig {
	if c.IndexBits == 0 {
		c.IndexBits = 8
	}
	if c.Slots == 0 {
		c.Slots = 8
	}
	return c
}

// NewTypedEngine builds one engine of the given type. An lpm, pktclass
// or trigram engine is its application's design geometry —
// iproute.SliceConfig with 32-bit payloads, pktclass.SliceConfig,
// trigram.SliceConfig over 2^IndexBits rows — ranked by that
// application's Score and duplicated across wildcarded hash bits by its
// bit selection; an exact engine is 64-bit keys with 32-bit payloads
// under a multiply-shift index. An insert that finds no slot within the
// probe limit fails with caram.ErrFull.
func NewTypedEngine(name string, typ EngineType, tc TypedConfig) (*Engine, error) {
	tc = tc.withDefaults()
	e := &Engine{Name: name, Type: typ}
	if tc.IndexBits < 0 {
		return nil, fmt.Errorf("subsystem: negative index bits %d", tc.IndexBits)
	}
	if (typ == LPMEngine || typ == PktClassEngine) && tc.IndexBits > 16 {
		return nil, fmt.Errorf("subsystem: %v engine supports at most 16 index bits, got %d", typ, tc.IndexBits)
	}
	var cfg caram.Config
	switch typ {
	case ExactEngine:
		cfg = caram.Config{
			IndexBits: tc.IndexBits,
			RowBits:   tc.Slots*(1+64+32) + 16,
			KeyBits:   64,
			DataBits:  32,
			AuxBits:   16,
			Tech:      mem.DRAM,
			Index:     hash.NewMultShift(tc.IndexBits),
		}
	case LPMEngine:
		cfg = iproute.SliceConfig(tc.Slots, 32, hash.NewBitSelect(iproute.HashPositions(tc.IndexBits)))
		e.Score = iproute.Score
	case PktClassEngine:
		cfg = pktclass.SliceConfig(tc.Slots, tc.IndexBits)
		e.Score = pktclass.Score
	case TrigramEngine:
		cfg = trigram.SliceConfig(tc.Slots, 1<<uint(tc.IndexBits))
	default:
		return nil, fmt.Errorf("subsystem: bad engine type %q", typ)
	}
	e.Sel, _ = cfg.Index.(*hash.BitSelect)
	cfg.ECC = tc.ECC
	slice, err := caram.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("subsystem: engine %q: %w", name, err)
	}
	e.Main = slice
	return e, nil
}
