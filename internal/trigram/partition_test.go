package trigram

import "testing"

func TestGeneratePartitionedShares(t *testing.T) {
	dbs := GeneratePartitioned(50000, 1, SphinxPartitions)
	if len(dbs) != len(SphinxPartitions) {
		t.Fatalf("partitions = %d", len(dbs))
	}
	total := 0
	for _, p := range SphinxPartitions {
		db := dbs[p.Name]
		total += len(db)
		want := int(50000 * p.Share)
		if len(db) != want {
			t.Errorf("%s: %d entries, want %d", p.Name, len(db), want)
		}
		for _, e := range db {
			if len(e.Text) < p.MinLen || len(e.Text) > p.MaxLen {
				t.Fatalf("%s: entry %q of length %d outside [%d,%d]",
					p.Name, e.Text, len(e.Text), p.MinLen, p.MaxLen)
			}
		}
	}
	if total < 45000 {
		t.Errorf("total = %d", total)
	}
}

func TestPartitionedLookup(t *testing.T) {
	dbs := GeneratePartitioned(20000, 2, SphinxPartitions)
	p, err := BuildPartitioned(dbs, SphinxPartitions, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if p.KeyCollisions > 5 {
		t.Errorf("%d xlong key collisions; digest scheme suspect", p.KeyCollisions)
	}
	checked := 0
	for _, part := range SphinxPartitions {
		for i, e := range dbs[part.Name] {
			if i%37 != 0 {
				continue
			}
			score, rows, ok := p.Lookup(e.Text)
			if !ok {
				t.Fatalf("%s: entry %q lost", part.Name, e.Text)
			}
			if score != e.Score {
				// Only acceptable for an xlong digest collision.
				if len(e.Text) <= KeyBytes {
					t.Fatalf("%s: entry %q score %d, want %d", part.Name, e.Text, score, e.Score)
				}
			}
			if rows < 1 {
				t.Fatal("no rows read")
			}
			checked++
		}
	}
	if checked < 400 {
		t.Errorf("only %d lookups checked", checked)
	}
	// Out-of-range lengths and misses.
	if _, _, ok := p.Lookup("abc"); ok {
		t.Error("3-char query matched")
	}
	if _, _, ok := p.Lookup("zz qq ww pp ll"); ok {
		t.Error("phantom hit")
	}
	// Per-partition load factors near the target.
	for name, st := range p.Stats() {
		if st[1] < 0.4 || st[1] > 0.95 {
			t.Errorf("%s load factor = %.2f", name, st[1])
		}
	}
	if got := len(p.Stats()); got != len(SphinxPartitions) {
		t.Errorf("Engines = %d", got)
	}
}

func TestLongKeyScheme(t *testing.T) {
	a := Entry{Text: "aaaaaaaaaaaa-tail-one-x"}
	b := Entry{Text: "aaaaaaaaaaaa-tail-two-y"}
	if a.Key() == b.Key() {
		t.Error("different tails produced the same key")
	}
	c := Entry{Text: "bbbbbbbbbbbb-tail-one-x"}
	if a.Key() == c.Key() {
		t.Error("different heads produced the same key")
	}
	// Deterministic.
	if a.Key() != (Entry{Text: a.Text}).Key() {
		t.Error("long key not deterministic")
	}
}

func TestGenerateWithBoundsUnreachable(t *testing.T) {
	// No word-length triple can reach 100+ characters: empty result,
	// no hang.
	db := generateLenRange(10, 1, 100, 120)
	if len(db) != 0 {
		t.Errorf("unreachable bounds produced %d entries", len(db))
	}
}

func TestPartitionForOutOfRange(t *testing.T) {
	if i := partitionFor(SphinxPartitions, 3); i != -1 {
		t.Errorf("length 3 mapped to partition %d", i)
	}
	if i := partitionFor(SphinxPartitions, 30); i != -1 {
		t.Errorf("length 30 mapped to partition %d", i)
	}
	if i := partitionFor(SphinxPartitions, 13); i < 0 || SphinxPartitions[i].Name != "long" {
		t.Errorf("length 13 mapped to %d", i)
	}
}

func TestBuildPartitionedDefaults(t *testing.T) {
	dbs := map[string][]Entry{"long": Generate(GenConfig{Entries: 500, Seed: 4, Vocabulary: 2000})}
	parts := []Partition{{Name: "long", MinLen: 13, MaxLen: 16, Share: 1}}
	p, err := BuildPartitioned(dbs, parts, -1) // alpha clamps to default
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := p.Lookup(dbs["long"][0].Text); !ok {
		t.Error("entry lost under default alpha")
	}
	// Partition present in parts but missing from dbs is skipped.
	parts2 := append(parts, Partition{Name: "ghost", MinLen: 2, MaxLen: 3})
	p2, err := BuildPartitioned(dbs, parts2, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(p2.Stats()); got != 1 {
		t.Errorf("engines = %d", got)
	}
}
