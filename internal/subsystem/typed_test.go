package subsystem_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"caram/internal/bitutil"
	"caram/internal/caram"
	"caram/internal/iproute"
	"caram/internal/match"
	"caram/internal/pktclass"
	"caram/internal/subsystem"
	"caram/internal/trigram"
)

// matchRecord builds a record from a ternary key and a small payload.
func matchRecord(key bitutil.Ternary, data uint64) match.Record {
	return match.Record{Key: key, Data: bitutil.FromUint64(data)}
}

// TestTypedEngineGeometry checks each engine type's slice geometry,
// and that a served lpm, pktclass or trigram engine is its
// application's design: the slice config the experiments build, at the
// same slot and row counts, apart from ECC, the lpm engine's 32-bit
// payload (Table 2 stores an 8-bit next hop) and the classifier's
// disabled probing (its overflow TCAM takes the spills).
func TestTypedEngineGeometry(t *testing.T) {
	cases := []struct {
		typ               subsystem.EngineType
		keyBits, dataBits int
		ternary           bool
	}{
		{subsystem.ExactEngine, 64, 32, false},
		{subsystem.LPMEngine, 32, 32, true},
		{subsystem.PktClassEngine, 104, 32, true},
		{subsystem.TrigramEngine, 128, trigram.ScoreBits, false},
	}
	for _, tc := range cases {
		e, err := subsystem.NewTypedEngine("x", tc.typ, subsystem.TypedConfig{IndexBits: 6, Slots: 4})
		if err != nil {
			t.Fatalf("%v: %v", tc.typ, err)
		}
		cfg := e.Main.Config()
		if cfg.KeyBits != tc.keyBits || cfg.DataBits != tc.dataBits || cfg.Ternary != tc.ternary {
			t.Errorf("%v: KeyBits=%d DataBits=%d Ternary=%v, want %d/%d/%v",
				tc.typ, cfg.KeyBits, cfg.DataBits, cfg.Ternary, tc.keyBits, tc.dataBits, tc.ternary)
		}
		if e.Type != tc.typ {
			t.Errorf("%v: engine Type = %v", tc.typ, e.Type)
		}
		if tc.ternary != (e.Sel != nil) {
			t.Errorf("%v: ternary engines and only they carry a bit-selection function", tc.typ)
		}
	}

	served := func(typ subsystem.EngineType, indexBits, slots int) caram.Config {
		t.Helper()
		e, err := subsystem.NewTypedEngine("x", typ, subsystem.TypedConfig{IndexBits: indexBits, Slots: slots, ECC: true})
		if err != nil {
			t.Fatalf("%v at 2^%d rows of %d slots: %v", typ, indexBits, slots, err)
		}
		return e.Main.Config()
	}
	same := func(what string, got, want caram.Config) {
		t.Helper()
		if !got.ECC {
			t.Errorf("%s: served engine dropped ECC", what)
		}
		got.ECC = false
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: served config\n%+v\nwant the design's\n%+v", what, got, want)
		}
	}
	for _, d := range iproute.Table2Designs {
		d.R = min(d.R, 8)
		ev, err := iproute.Evaluate(nil, d, 1)
		if err != nil {
			t.Fatalf("Table 2 design %s: %v", d.Name, err)
		}
		want := ev.Slice.Config()
		got := served(subsystem.LPMEngine, want.IndexBits, d.Slots())
		if got.DataBits != 32 || got.RowBits-want.RowBits != d.Slots()*(32-iproute.NextHopBits) {
			t.Errorf("lpm as Table 2 design %s: DataBits=%d RowBits=%d, want 32-bit payloads beside the design's %d bits",
				d.Name, got.DataBits, got.RowBits, want.RowBits)
		}
		got.DataBits, got.RowBits = want.DataBits, want.RowBits
		same("lpm as Table 2 design "+d.Name, got, want)
	}
	cls, err := pktclass.NewCARAMClassifier(nil, pktclass.CARAMConfig{IndexBits: 6, Slots: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := cls.Slice().Config()
	got := served(subsystem.PktClassEngine, 6, 4)
	if want.ProbeLimit != caram.NoProbing || got.ProbeLimit != 0 {
		t.Errorf("pktclass ProbeLimit: served %d, classifier %d; want 0 and NoProbing", got.ProbeLimit, want.ProbeLimit)
	}
	got.ProbeLimit = want.ProbeLimit
	same("pktclass as the classifier", got, want)
	twins := 0
	for _, d := range trigram.Table3Designs {
		d.R = 6
		if b := d.Buckets(); b&(b-1) != 0 {
			continue // B's 5 x 2^R rows: no served twin
		}
		twins++
		ev, err := trigram.Evaluate(nil, d)
		if err != nil {
			t.Fatalf("Table 3 design %s: %v", d.Name, err)
		}
		want := ev.Slice.Config()
		same("trigram as Table 3 design "+d.Name, served(subsystem.TrigramEngine, want.IndexBits, d.Slots()), want)
	}
	if twins != 3 {
		t.Errorf("%d of Table 3's designs have a served twin, want A, C and D", twins)
	}

	// Type round trip and rejection.
	for _, typ := range []subsystem.EngineType{subsystem.ExactEngine, subsystem.LPMEngine,
		subsystem.PktClassEngine, subsystem.TrigramEngine} {
		back, err := subsystem.ParseEngineType(typ.String())
		if err != nil || back != typ {
			t.Errorf("round trip %v: %v, %v", typ, back, err)
		}
	}
	if _, err := subsystem.ParseEngineType("wat"); err == nil {
		t.Error("ParseEngineType accepted garbage")
	}
	if _, err := subsystem.NewTypedEngine("x", subsystem.LPMEngine, subsystem.TypedConfig{IndexBits: 20}); err == nil {
		t.Error("lpm engine accepted more index bits than the 32-bit key has selectable positions")
	}
	for _, typ := range []subsystem.EngineType{subsystem.ExactEngine, subsystem.LPMEngine,
		subsystem.PktClassEngine, subsystem.TrigramEngine} {
		if _, err := subsystem.NewTypedEngine("x", typ, subsystem.TypedConfig{IndexBits: -1}); err == nil {
			t.Errorf("%v engine accepted -1 index bits", typ)
		}
	}
}

// TestTypedDuplicateInsert pins the duplicated-write contract at the
// engine layer: reinserting an identical masked rule fails with
// caram.ErrExists (no partial second copy), and deleting it removes
// every duplicated home so a fresh insert succeeds again.
func TestTypedDuplicateInsert(t *testing.T) {
	e, err := subsystem.NewTypedEngine("ip", subsystem.LPMEngine, subsystem.TypedConfig{IndexBits: 6, Slots: 8})
	if err != nil {
		t.Fatal(err)
	}
	// A /4 prefix wildcards hash positions 16..21 entirely: 64 copies.
	rule := bitutil.NewTernary(bitutil.FromUint64(0xA0000000), bitutil.FromUint64(0x0FFFFFFF))
	rec := matchRecord(rule, 7)
	if err := e.Insert(rec, nil); err != nil {
		t.Fatal(err)
	}
	if n := e.Main.Count(); n != 64 {
		t.Fatalf("duplicated copies = %d, want 64", n)
	}
	if err := e.Insert(rec, nil); !errors.Is(err, caram.ErrExists) {
		t.Fatalf("reinsert = %v, want ErrExists", err)
	}
	if n := e.Main.Count(); n != 64 {
		t.Fatalf("count after rejected reinsert = %d, want 64", n)
	}
	if err := e.Delete(rule); err != nil {
		t.Fatal(err)
	}
	if n := e.Main.Count(); n != 0 {
		t.Fatalf("count after delete = %d, want 0 (stale duplicated copies)", n)
	}
	if err := e.Delete(rule); !errors.Is(err, caram.ErrNotFound) {
		t.Fatalf("double delete = %v, want ErrNotFound", err)
	}
	if err := e.Insert(rec, nil); err != nil {
		t.Fatalf("insert after full delete: %v", err)
	}
}

// TestTypedCreateDropChurn hammers engine lifecycle against live
// traffic: a stable exact engine serves Search/Insert/Delete/MSearch
// from many goroutines while other goroutines create and drop typed
// engines (own namespaces) in a loop, including searches aimed at
// engines that may vanish mid-flight — those must answer a clean
// no-engine error, never hang or panic. Run under -race by the
// typed-guard tier.
func TestTypedCreateDropChurn(t *testing.T) {
	const (
		nLifecycle = 4
		nTraffic   = 8
		nAimed     = 4
		iters      = 150
	)
	c := subsystem.NewConcurrent(subsystem.New(0))
	defer c.Close()
	if err := c.CreateEngine("stable", subsystem.ExactEngine, subsystem.TypedConfig{IndexBits: 6, Slots: 8}); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 32; k++ {
		rec := matchRecord(bitutil.Exact(bitutil.FromUint64(k)), 0x100+k)
		if err := c.Insert("stable", rec); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	var fail atomic.Value
	record := func(format string, args ...any) {
		fail.CompareAndSwap(nil, fmt.Sprintf(format, args...))
	}
	types := []subsystem.EngineType{subsystem.ExactEngine, subsystem.LPMEngine,
		subsystem.PktClassEngine, subsystem.TrigramEngine}
	for g := 0; g < nLifecycle; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("churn%d", g)
			for i := 0; i < iters; i++ {
				typ := types[i%len(types)]
				if err := c.CreateEngine(name, typ, subsystem.TypedConfig{IndexBits: 4, Slots: 2}); err != nil {
					record("create %s: %v", name, err)
					return
				}
				if got, err := c.EngineType(name); err != nil || got != typ {
					record("engine type of %s = %v, %v", name, got, err)
					return
				}
				if typ == subsystem.ExactEngine {
					rec := matchRecord(bitutil.Exact(bitutil.FromUint64(uint64(i))), uint64(i))
					if err := c.Insert(name, rec); err != nil {
						record("insert into fresh %s: %v", name, err)
						return
					}
				}
				if err := c.DropEngine(name); err != nil {
					record("drop %s: %v", name, err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < nTraffic; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(4000 + g)))
			for i := 0; i < iters; i++ {
				k := uint64(rng.Intn(32))
				switch i % 2 {
				case 0:
					sr, err := c.Search("stable", bitutil.Exact(bitutil.FromUint64(k)))
					if err != nil || !sr.Found || sr.Record.Data.Uint64() != 0x100+k {
						record("stable search %d: %+v, %v", k, sr, err)
						return
					}
				default:
					out := c.MSearch([]subsystem.PortKey{
						{Port: "stable", Key: bitutil.Exact(bitutil.FromUint64(k))},
						{Port: "stable", Key: bitutil.Exact(bitutil.FromUint64((k + 1) % 32))},
					})
					for _, r := range out {
						if r.Err != nil || !r.Result.Found {
							record("stable msearch: %+v", r)
							return
						}
					}
				}
			}
		}(g)
	}
	// Searches aimed at engines that appear and disappear: any answer
	// is legal except a hang, a panic, or a found-record from a
	// just-created empty engine. The MSEARCH also names the stable
	// engine, so a share on a just-dropped engine runs beside a live
	// share, which must still answer.
	for g := 0; g < nAimed; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				name := fmt.Sprintf("churn%d", i%nLifecycle)
				sr, err := c.Search(name, bitutil.Exact(bitutil.FromUint64(99)))
				if err == nil && sr.Found {
					record("search on churning empty engine %s found a record", name)
					return
				}
				k := uint64(i % 32)
				out := c.MSearch([]subsystem.PortKey{
					{Port: "stable", Key: bitutil.Exact(bitutil.FromUint64(k))},
					{Port: name, Key: bitutil.Exact(bitutil.FromUint64(99))},
				})
				if r := out[0]; r.Err != nil || !r.Result.Found || r.Result.Record.Data.Uint64() != 0x100+k {
					record("stable slot of msearch beside %s: %+v", name, r)
					return
				}
				if out[1].Err == nil && out[1].Result.Found {
					record("msearch on churning empty engine %s found a record", name)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if msg := fail.Load(); msg != nil {
		t.Fatal(msg)
	}
	if got := c.Engines(); len(got) != 1 || got[0] != "stable" {
		t.Fatalf("engines after churn = %v, want [stable]", got)
	}
}
