package pktclass

import (
	"fmt"
	"sort"

	"caram/internal/bitutil"
	"caram/internal/cam"
	"caram/internal/caram"
	"caram/internal/hash"
	"caram/internal/match"
	"caram/internal/mem"
)

// Result is one classification outcome.
type Result struct {
	Matched  bool
	RuleID   int
	Action   uint8
	Priority int
	RowsRead int // CA-RAM rows; 0 for pure-TCAM hits searched in parallel
}

// TCAMClassifier is the baseline: every expanded entry in one TCAM,
// physical order by descending priority.
type TCAMClassifier struct {
	dev   *cam.Device
	rules map[int]Rule // by ID
}

// EncodeData encodes the rule's (ID, action, priority) into the 32-bit
// record payload stored beside each expanded key.
func EncodeData(r Rule) bitutil.Vec128 {
	return bitutil.FromUint64(uint64(r.ID)<<24 | uint64(r.Action)<<16 | uint64(uint16(r.Priority)))
}

// DecodeData reverses EncodeData.
func DecodeData(d bitutil.Vec128) (id int, action uint8, prio int) {
	v := d.Uint64()
	return int(v >> 24), uint8(v >> 16), int(uint16(v))
}

// NewTCAMClassifier builds the baseline from a rule set.
func NewTCAMClassifier(rules []Rule, capacity int) (*TCAMClassifier, error) {
	if capacity <= 0 {
		capacity = totalExpansion(rules)
	}
	dev, err := cam.New(cam.Config{Entries: capacity, KeyBits: KeyBits, Kind: cam.Ternary})
	if err != nil {
		return nil, err
	}
	c := &TCAMClassifier{dev: dev, rules: make(map[int]Rule, len(rules))}
	// Classifiers are build-once: physical order IS the priority, so
	// append expanded entries in descending rule priority and let the
	// priority encoder (lowest index wins) resolve multi-matches.
	for _, r := range SortByPriority(rules) {
		if err := r.Validate(); err != nil {
			return nil, err
		}
		c.rules[r.ID] = r
		for _, k := range r.TernaryKeys() {
			if err := dev.Append(match.Record{Key: k, Data: EncodeData(r)}); err != nil {
				return nil, fmt.Errorf("pktclass: rule %d: %w", r.ID, err)
			}
		}
	}
	return c, nil
}

// Entries returns the stored (post-expansion) entry count.
func (c *TCAMClassifier) Entries() int { return c.dev.Len() }

// Classify returns the highest-priority matching rule.
func (c *TCAMClassifier) Classify(p FiveTuple) Result {
	res := c.dev.Search(bitutil.Exact(p.Key()))
	if !res.Found {
		return Result{}
	}
	id, action, prio := DecodeData(res.Record.Data)
	return Result{Matched: true, RuleID: id, Action: action, Priority: prio}
}

// Stats exposes the device activity.
func (c *TCAMClassifier) Stats() cam.Stats { return c.dev.Stats() }

// CARAMClassifier maps the expanded entries onto a CA-RAM hashed by
// destination-address bits, with entries whose hash bits are wildcards
// (or whose home buckets are full) living in a small parallel overflow
// TCAM — the engine structure of §4.3. Classification costs one CA-RAM
// row access; the overflow TCAM searches concurrently.
type CARAMClassifier struct {
	slice    *caram.Slice
	overflow *cam.Device
	sel      *hash.BitSelect
	// dupLimit bounds per-entry duplication before diverting to the
	// overflow TCAM.
	dupLimit int

	Duplicated int // extra copies stored in the CA-RAM
	Overflowed int // entries diverted to the TCAM
}

// CARAMConfig sizes the classifier.
type CARAMConfig struct {
	IndexBits int // hash bits, drawn from the destination address
	Slots     int // keys per bucket
	Overflow  int // overflow TCAM capacity
	DupLimit  int // max copies per entry before diverting (default 4)
}

// HashPositions returns the bit-selection positions SliceConfig's
// generator of n index bits hashes on: the last n bits of the first 16
// destination-address bits (dstIPOff+16 .. dstIPOff+16+n-1), the
// paper's §4.1 selection: ACLs overwhelmingly specify a destination
// prefix of at least /16, so these bits are rarely masked and ternary
// duplication stays bounded, yet they sit low enough to spread the
// clustered allocation blocks across buckets.
func HashPositions(n int) []int {
	pos := make([]int, n)
	for i := range pos {
		pos[i] = dstIPOff + 16 + i
	}
	return pos
}

// SliceConfig is the classifier geometry, NewCARAMClassifier's and the
// served pktclass engine's alike: 2^indexBits rows of slots ternary
// slots (valid bit, 104-bit five-tuple key and mask, 32-bit
// EncodeData payload), a 16-bit reach field, and duplicates allowed
// for the expansion of wildcarded hash bits, indexed by a bit
// selection over HashPositions(indexBits).
func SliceConfig(slots, indexBits int) caram.Config {
	slot := 1 + KeyBits + KeyBits + 32
	return caram.Config{
		IndexBits:       indexBits,
		RowBits:         slots*slot + 16,
		KeyBits:         KeyBits,
		DataBits:        32,
		Ternary:         true,
		AuxBits:         16,
		Tech:            mem.DRAM,
		Index:           hash.NewBitSelect(HashPositions(indexBits)),
		AllowDuplicates: true,
	}
}

// Score ranks a bucket's matching rules by priority, offset by one so
// a zero-priority rule still outranks "no match yet".
func Score(r match.Record) int {
	_, _, prio := DecodeData(r.Data)
	return prio + 1
}

// NewCARAMClassifier builds the CA-RAM engine from a rule set.
func NewCARAMClassifier(rules []Rule, cfg CARAMConfig) (*CARAMClassifier, error) {
	if cfg.IndexBits <= 0 {
		cfg.IndexBits = 10
	}
	if cfg.Slots <= 0 {
		cfg.Slots = 16
	}
	if cfg.DupLimit <= 0 {
		cfg.DupLimit = 4
	}
	if cfg.Overflow <= 0 {
		cfg.Overflow = totalExpansion(rules)
	}
	sc := SliceConfig(cfg.Slots, cfg.IndexBits)
	sc.ProbeLimit = caram.NoProbing // the overflow TCAM takes the spills
	slice, err := caram.New(sc)
	if err != nil {
		return nil, err
	}
	sel := sc.Index.(*hash.BitSelect)
	ovfl, err := cam.New(cam.Config{Entries: cfg.Overflow, KeyBits: KeyBits, Kind: cam.Ternary})
	if err != nil {
		return nil, err
	}
	c := &CARAMClassifier{slice: slice, overflow: ovfl, sel: sel, dupLimit: cfg.DupLimit}

	// Insert highest-priority first so in-bucket order resolves
	// multi-match the right way even without scoring.
	ordered := append([]Rule(nil), rules...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Priority > ordered[j].Priority })
	for _, r := range ordered {
		if err := r.Validate(); err != nil {
			return nil, err
		}
		for _, k := range r.TernaryKeys() {
			rec := match.Record{Key: k, Data: EncodeData(r)}
			homes := sel.TernaryIndices(k)
			if len(homes) > c.dupLimit {
				if err := ovfl.Append(rec); err != nil {
					return nil, fmt.Errorf("pktclass: overflow TCAM: %w", err)
				}
				c.Overflowed++
				continue
			}
			for _, home := range homes {
				if _, err := slice.Place(home, rec); err == caram.ErrFull {
					if err := ovfl.Append(rec); err != nil {
						return nil, fmt.Errorf("pktclass: overflow TCAM: %w", err)
					}
					c.Overflowed++
				} else if err != nil {
					return nil, err
				}
			}
			c.Duplicated += len(homes) - 1
		}
	}
	return c, nil
}

// Classify looks the packet up: one CA-RAM bucket (priority-scored
// across all matches in the bucket) plus the parallel overflow TCAM.
func (c *CARAMClassifier) Classify(p FiveTuple) Result {
	key := bitutil.Exact(p.Key())
	main := c.slice.LookupBest(key, Score)
	out := Result{RowsRead: main.RowsRead}
	bestPrio := -1
	if main.Found {
		id, action, prio := DecodeData(main.Record.Data)
		out.Matched, out.RuleID, out.Action, out.Priority = true, id, action, prio
		bestPrio = prio
	}
	if ovfl := c.overflow.Search(key); ovfl.Found {
		id, action, prio := DecodeData(ovfl.Record.Data)
		if prio > bestPrio {
			out.Matched, out.RuleID, out.Action, out.Priority = true, id, action, prio
		}
	}
	return out
}

// Entries returns (CA-RAM entries, overflow entries).
func (c *CARAMClassifier) Entries() (int, int) { return c.slice.Count(), c.overflow.Len() }

// Slice exposes the underlying CA-RAM for statistics.
func (c *CARAMClassifier) Slice() *caram.Slice { return c.slice }

// totalExpansion sums the rule set's post-expansion entry count.
func totalExpansion(rules []Rule) int {
	n := 0
	for _, r := range rules {
		n += r.ExpansionFactor()
	}
	if n == 0 {
		n = 1
	}
	return n
}
