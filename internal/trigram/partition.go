package trigram

import (
	"fmt"
	"sort"

	"caram/internal/bitutil"
	"caram/internal/caram"
	"caram/internal/match"
)

// The partitioned-database approach of §4.2, completed: the paper maps
// only the 13–16-character partition (40% of the 13,459,881-entry
// Sphinx database) onto CA-RAM; here the *whole* database is split by
// entry length into partitions, each its own CA-RAM slice sized to its
// share. PartitionedDB is itself §3.2's input controller: it routes a
// query by length to its partition's slice, the virtual port, so the
// full database still answers in one row access.

// Partition describes one length class.
type Partition struct {
	Name           string
	MinLen, MaxLen int     // inclusive character bounds
	Share          float64 // fraction of the database (Sphinx-like mix)
}

// SphinxPartitions approximates the full database's length mix; the
// paper states the 13–16 class holds 40% of all entries.
var SphinxPartitions = []Partition{
	{Name: "short", MinLen: 5, MaxLen: 8, Share: 0.08},
	{Name: "mid", MinLen: 9, MaxLen: 12, Share: 0.34},
	{Name: "long", MinLen: 13, MaxLen: 16, Share: 0.40},
	{Name: "xlong", MinLen: 17, MaxLen: 24, Share: 0.18},
}

// PartitionedDB is the full database, one slice per length class.
type PartitionedDB struct {
	partitions []Partition
	slices     map[string]*caram.Slice
	// KeyCollisions counts xlong entries dropped because their
	// head+digest key collided with a stored one (see Entry.Key).
	KeyCollisions int
}

// partitionFor returns the partition index for an entry length, or -1.
func partitionFor(parts []Partition, n int) int {
	for i, p := range parts {
		if n >= p.MinLen && n <= p.MaxLen {
			return i
		}
	}
	return -1
}

// GeneratePartitioned synthesizes a full-database image: total entries
// distributed over the partitions by share, each entry's length within
// its partition's bounds.
func GeneratePartitioned(total int, seed int64, parts []Partition) map[string][]Entry {
	if total <= 0 {
		total = 200000
	}
	out := make(map[string][]Entry, len(parts))
	for i, p := range parts {
		n := int(float64(total) * p.Share)
		if n == 0 {
			n = 1
		}
		out[p.Name] = generateLenRange(n, seed+int64(i)*17, p.MinLen, p.MaxLen)
	}
	return out
}

// generateLenRange is the Generate core with custom length bounds.
func generateLenRange(n int, seed int64, minLen, maxLen int) []Entry {
	// Reuse Generate and post-filter would be wasteful for short
	// bounds, so synthesize directly with the same vocabulary model.
	db := generateWithBounds(n, seed, minLen, maxLen, 0)
	sort.Slice(db, func(i, j int) bool { return db[i].Text < db[j].Text })
	return db
}

// BuildPartitioned loads every partition into its own slice. The
// bucket count scales with the partition's size so that every
// partition sits near targetAlpha.
func BuildPartitioned(dbs map[string][]Entry, parts []Partition, targetAlpha float64) (*PartitionedDB, error) {
	if targetAlpha <= 0 || targetAlpha >= 1 {
		targetAlpha = 0.7
	}
	p := &PartitionedDB{
		partitions: parts,
		slices:     make(map[string]*caram.Slice, len(parts)),
	}
	for _, part := range parts {
		db := dbs[part.Name]
		if len(db) == 0 {
			continue
		}
		// Buckets so that N/(M*S) ~ targetAlpha with S = 96.
		m := int(float64(len(db))/(targetAlpha*KeysPerSliceRow)) + 1
		if m < 4 {
			m = 4
		}
		slice, err := caram.New(SliceConfig(KeysPerSliceRow, m))
		if err != nil {
			return nil, err
		}
		p.slices[part.Name] = slice
		for _, e := range db {
			rec := match.Record{Key: bitutil.Exact(e.Key()), Data: bitutil.FromUint64(uint64(e.Score))}
			switch err := slice.Insert(rec); err {
			case nil:
			case caram.ErrExists:
				p.KeyCollisions++ // digest collision on an xlong key
			default:
				return nil, fmt.Errorf("trigram: partition %s: %w", part.Name, err)
			}
		}
	}
	return p, nil
}

// Lookup routes the query to its length's partition — the virtual-port
// dispatch of §3.2 — and performs one search there.
func (p *PartitionedDB) Lookup(text string) (score uint16, rowsRead int, ok bool) {
	i := partitionFor(p.partitions, len(text))
	if i < 0 {
		return 0, 0, false
	}
	slice, present := p.slices[p.partitions[i].Name]
	if !present {
		return 0, 0, false
	}
	return Lookup(slice, text)
}

// Stats returns per-partition (entries, load factor, AMAL-so-far).
func (p *PartitionedDB) Stats() map[string][3]float64 {
	out := make(map[string][3]float64, len(p.slices))
	for name, slice := range p.slices {
		out[name] = [3]float64{float64(slice.Count()), slice.LoadFactor(), slice.Stats().AMAL()}
	}
	return out
}
