package swsearch

import (
	"math/rand"
	"testing"
)

func TestTrieBasicLPM(t *testing.T) {
	tr := NewTrie(8)
	tr.Insert(0b11000000, 2, 1) // 11*
	tr.Insert(0b11010000, 4, 2) // 1101*
	tr.Insert(0, 0, 99)         // default route

	v, l, ok := tr.Lookup(0b11011111)
	if !ok || v != 2 || l != 4 {
		t.Errorf("Lookup = %d/%d/%v, want 2/4", v, l, ok)
	}
	v, l, ok = tr.Lookup(0b11100000)
	if !ok || v != 1 || l != 2 {
		t.Errorf("Lookup = %d/%d/%v, want 1/2", v, l, ok)
	}
	v, l, ok = tr.Lookup(0b00000000)
	if !ok || v != 99 || l != 0 {
		t.Errorf("default route = %d/%d/%v", v, l, ok)
	}
	if tr.Len() != 3 {
		t.Errorf("Len = %d", tr.Len())
	}
}

func TestTrieNoMatch(t *testing.T) {
	tr := NewTrie(8)
	tr.Insert(0b10000000, 1, 1)
	if _, _, ok := tr.Lookup(0b01111111); ok {
		t.Error("matched outside the only prefix")
	}
}

func TestTrieReinsertAndClamping(t *testing.T) {
	tr := NewTrie(8)
	tr.Insert(0xff, 8, 1)
	tr.Insert(0xff, 8, 2) // overwrite
	if tr.Len() != 1 {
		t.Errorf("Len = %d", tr.Len())
	}
	if v, _, _ := tr.Lookup(0xff); v != 2 {
		t.Errorf("overwrite lost: %d", v)
	}
	tr.Insert(0xaa, 100, 3) // length clamped to width
	if v, l, ok := tr.Lookup(0xaa); !ok || v != 3 || l != 8 {
		t.Errorf("clamped insert = %d/%d/%v", v, l, ok)
	}
	if NewTrie(0).width != 1 || NewTrie(100).width != 64 {
		t.Error("width clamping")
	}
}

func TestTrieAccessCounting(t *testing.T) {
	tr := NewTrie(32)
	tr.Insert(0xC0A80000, 16, 1) // 192.168/16
	tr.Lookup(0xC0A80101)
	c := tr.Counter()
	// Root + 16 nodes.
	if c.Accesses != 17 || c.Lookups != 1 {
		t.Errorf("counter = %+v", c)
	}
}

func TestPathTrieMatchesTrieRandom(t *testing.T) {
	const width = 16
	rng := rand.New(rand.NewSource(21))
	tr := NewTrie(width)
	pt := NewPathTrie(width)
	for i := 0; i < 400; i++ {
		l := rng.Intn(width + 1)
		key := rng.Uint64() & 0xffff
		key = key >> uint(width-l) << uint(width-l) // canonical prefix
		if l == 0 {
			key = 0
		}
		v := uint64(i + 1)
		tr.Insert(key, l, v)
		pt.Insert(key, l, v)
	}
	if tr.Len() != pt.Len() {
		t.Fatalf("Len: trie %d, pathtrie %d", tr.Len(), pt.Len())
	}
	for i := 0; i < 5000; i++ {
		addr := rng.Uint64() & 0xffff
		v1, l1, ok1 := tr.Lookup(addr)
		v2, l2, ok2 := pt.Lookup(addr)
		if ok1 != ok2 || v1 != v2 || l1 != l2 {
			t.Fatalf("addr %04x: trie %d/%d/%v, pathtrie %d/%d/%v",
				addr, v1, l1, ok1, v2, l2, ok2)
		}
	}
	// Path compression must not be more expensive than unibit walking.
	if pt.Counter().AMAL() > tr.Counter().AMAL() {
		t.Errorf("path trie AMAL %.2f > trie %.2f", pt.Counter().AMAL(), tr.Counter().AMAL())
	}
}

func TestPathTrieDefaultRoute(t *testing.T) {
	pt := NewPathTrie(8)
	pt.Insert(0, 0, 42)
	v, l, ok := pt.Lookup(0x5a)
	if !ok || v != 42 || l != 0 {
		t.Errorf("default route = %d/%d/%v", v, l, ok)
	}
	pt.Insert(0x5a, 8, 7)
	if v, _, _ := pt.Lookup(0x5a); v != 7 {
		t.Error("specific route lost")
	}
	if v, _, _ := pt.Lookup(0x00); v != 42 {
		t.Error("default route lost after split")
	}
}

func TestPathTrieEdgeSplit(t *testing.T) {
	pt := NewPathTrie(8)
	pt.Insert(0b11110000, 8, 1)
	pt.Insert(0b11000000, 2, 2) // splits the single compressed edge
	if v, l, ok := pt.Lookup(0b11110000); !ok || v != 1 || l != 8 {
		t.Errorf("long = %d/%d/%v", v, l, ok)
	}
	if v, l, ok := pt.Lookup(0b11001111); !ok || v != 2 || l != 2 {
		t.Errorf("short = %d/%d/%v", v, l, ok)
	}
	if _, _, ok := pt.Lookup(0b00110000); ok {
		t.Error("phantom match")
	}
}

// The §4.1 claim: software LPM needs ~4-6+ dependent accesses; a
// realistic prefix set in a path-compressed trie still averages well
// above 2.
func TestSoftwareLPMNeedsManyAccesses(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pt := NewPathTrie(32)
	for i := 0; i < 20000; i++ {
		l := 16 + rng.Intn(9) // /16../24
		key := rng.Uint64() & 0xffffffff
		key = key >> uint(32-l) << uint(32-l)
		pt.Insert(key, l, uint64(i))
	}
	for i := 0; i < 10000; i++ {
		pt.Lookup(rng.Uint64() & 0xffffffff)
	}
	if amal := pt.Counter().AMAL(); amal < 2 {
		t.Errorf("path trie AMAL = %.2f, expected pointer-chasing cost", amal)
	}
}
