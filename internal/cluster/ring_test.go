package cluster

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"caram/internal/bitutil"
	"caram/internal/wire"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestRingGolden pins the ring's assignments to a golden file: the
// hash is seedless FNV-1a, so a given (backends, replicas, key)
// triple must route identically across processes, runs, and machines
// forever. A hash or ring change shows up as a loud golden diff, not
// a silent cluster-wide remap.
func TestRingGolden(t *testing.T) {
	r, err := NewRing([]string{"alpha:7071", "beta:7072", "gamma:7073"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	for i := 0; i < 64; i++ {
		key := bitutil.FromParts(uint64(i)*0x9e3779b97f4a7c15, uint64(i))
		fmt.Fprintf(&out, "db %016x:%016x -> %s\n", key.Hi, key.Lo, r.Label(r.Owner("db", key)))
	}
	for _, eng := range []string{"db", "aux", "ip", "rules", "tri", "z"} {
		fmt.Fprintf(&out, "home %s -> %s\n", eng, r.Label(r.OwnerEngine(eng)))
	}
	goldenPath := filepath.Join("testdata", "ring.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("ring assignments changed:\n--- got ---\n%s--- want ---\n%s", out.String(), want)
	}
}

// TestRingRebalance is the consistent-hashing contract: removing one
// of N backends moves exactly the keys that backend owned — every
// other key keeps its owner — and that set is about 1/N of the total.
func TestRingRebalance(t *testing.T) {
	labels := []string{"a:1", "b:1", "c:1", "d:1", "e:1"}
	const removed = 2 // "c:1"
	full, err := NewRing(labels, 0)
	if err != nil {
		t.Fatal(err)
	}
	rest := append(append([]string{}, labels[:removed]...), labels[removed+1:]...)
	smaller, err := NewRing(rest, 0)
	if err != nil {
		t.Fatal(err)
	}
	const nKeys = 10_000
	moved, owned := 0, 0
	for i := 0; i < nKeys; i++ {
		key := bitutil.FromParts(uint64(i)*0x9e3779b97f4a7c15+7, uint64(i)*0xbf58476d1ce4e5b9)
		before := full.Label(full.Owner("db", key))
		after := smaller.Label(smaller.Owner("db", key))
		if before == labels[removed] {
			owned++
			continue // must move somewhere; any new owner is fine
		}
		if before != after {
			moved++
		}
	}
	if moved != 0 {
		t.Errorf("%d keys not owned by the removed backend changed owner", moved)
	}
	frac := float64(owned) / nKeys
	limit := 1.0/float64(len(labels)) + 0.05
	if frac > limit {
		t.Errorf("removed backend owned %.3f of keys, want <= %.3f (~1/N + eps)", frac, limit)
	}
	if frac < 0.5/float64(len(labels)) {
		t.Errorf("removed backend owned %.3f of keys — suspiciously uneven for %d replicas", frac, DefaultReplicas)
	}
}

// TestRingSpread checks that virtual nodes keep every backend's share
// of the key space within sane bounds of even.
func TestRingSpread(t *testing.T) {
	labels := []string{"a:1", "b:1", "c:1", "d:1"}
	r, err := NewRing(labels, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, len(labels))
	const nKeys = 10_000
	for i := 0; i < nKeys; i++ {
		counts[r.Owner("db", bitutil.FromUint64(uint64(i)*0x2545f4914f6cdd1d))]++
	}
	even := nKeys / len(labels)
	for b, c := range counts {
		if c < even/2 || c > even*2 {
			t.Errorf("backend %s owns %d of %d keys (even share %d)", labels[b], c, nKeys, even)
		}
	}
}

// TestRingValidation rejects the configurations that would make
// routing ambiguous.
func TestRingValidation(t *testing.T) {
	if _, err := NewRing(nil, 0); err == nil {
		t.Error("empty backend list accepted")
	}
	if _, err := NewRing([]string{"a:1", ""}, 0); err == nil {
		t.Error("empty label accepted")
	}
	if _, err := NewRing([]string{"a:1", "a:1"}, 0); err == nil {
		t.Error("duplicate label accepted")
	}
}

// TestOwnerDomains: engine-home hashing and engine+key hashing are
// distinct domains, and the key participates by value — every wire
// spelling of a key routes identically.
func TestOwnerDomains(t *testing.T) {
	r, err := NewRing([]string{"a:1", "b:1", "c:1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	va, _ := wire.ParseVec("dead")
	vb, _ := wire.ParseVec("0:dead")
	vc, _ := wire.ParseVec("0:000000000000dead")
	if va != vb || va != vc {
		t.Fatalf("spellings parse unequal: %v %v %v", va, vb, vc)
	}
	if r.Owner("db", va) != r.Owner("db", vb) || r.Owner("db", va) != r.Owner("db", vc) {
		t.Error("key spellings route differently")
	}
	// Engine-name boundary: ("ab", key c…) must not collide with
	// ("a", key bc…) — the separator byte keeps the domains apart.
	k1, _ := wire.ParseVec("1")
	same := 0
	for i := 0; i < 64; i++ {
		k := bitutil.FromUint64(uint64(i))
		if r.Owner("ab", k) == r.Owner("a", k) {
			same++
		}
	}
	_ = k1
	if same == 64 {
		t.Error("engines \"ab\" and \"a\" always co-route — engine name may not be mixing into the hash")
	}
}
