package server

import (
	"fmt"
	"strings"
	"testing"

	"caram/internal/subsystem"
)

// Parser hardening for the typed-engine wire surface: every malformed
// line draws a deterministic single-line ERR (mirroring the parseVec
// discipline — trailing garbage, bad numbers, and type mismatches are
// all rejected, never silently tolerated).
func TestTypedCommandParsing(t *testing.T) {
	s := typedServer(t)
	mustOK(t, s, "CREATE ENGINE ip TYPE lpm INDEXBITS 6 SLOTS 8")
	mustOK(t, s, "CREATE ENGINE tri TYPE trigram INDEXBITS 6")
	mustOK(t, s, "CREATE ENGINE db TYPE exact INDEXBITS 6")

	createUsage := "ERR usage: CREATE ENGINE <name> TYPE <type> [INDEXBITS <n>] [SLOTS <n>] [ECC]"
	cases := []struct{ req, want string }{
		// CREATE grammar.
		{"CREATE", createUsage},
		{"CREATE TABLE x TYPE lpm", createUsage},
		{"CREATE ENGINE", createUsage},
		{"CREATE ENGINE x", createUsage},
		{"CREATE ENGINE x TYPE", createUsage},
		{"CREATE ENGINE x KIND lpm", createUsage},
		{"CREATE ENGINE x TYPE lpm INDEXBITS", createUsage},
		{"CREATE ENGINE x TYPE lpm INDEXBITS four", createUsage},
		{"CREATE ENGINE x TYPE lpm BOGUS 3", createUsage},
		{"CREATE ENGINE x TYPE wat", `ERR subsystem: bad engine type "wat"`},
		{"CREATE ENGINE x TYPE lpm INDEXBITS 0", "ERR indexbits out of range [1,12]"},
		{"CREATE ENGINE x TYPE lpm INDEXBITS 13", "ERR indexbits out of range [1,12]"},
		{"CREATE ENGINE x TYPE lpm SLOTS 0", "ERR slots out of range [1,64]"},
		{"CREATE ENGINE x TYPE lpm SLOTS 65", "ERR slots out of range [1,64]"},
		{"CREATE ENGINE bad name! TYPE lpm", createUsage}, // "name!" parses as a stray option
		{"CREATE ENGINE a/b TYPE lpm", `ERR bad engine name "a/b"`},
		{"CREATE ENGINE " + strings.Repeat("x", 33) + " TYPE lpm",
			fmt.Sprintf("ERR bad engine name %q", strings.Repeat("x", 33))},
		{"CREATE ENGINE ip TYPE lpm", `ERR subsystem: engine "ip" already registered`},
		// DROP grammar.
		{"DROP", "ERR usage: DROP ENGINE <name>"},
		{"DROP ENGINE", "ERR usage: DROP ENGINE <name>"},
		{"DROP ENGINE a b", "ERR usage: DROP ENGINE <name>"},
		{"DROP TABLE ip", "ERR usage: DROP ENGINE <name>"},
		{"DROP ENGINE nosuch", `ERR subsystem: no engine "nosuch"`},
		// MINSERT / MDELETE grammar and type gates.
		{"MINSERT", "ERR usage: MINSERT <engine> <key> <mask> <data>"},
		{"MINSERT ip 1 2", "ERR usage: MINSERT <engine> <key> <mask> <data>"},
		{"MINSERT ip 1 2 3 4", "ERR usage: MINSERT <engine> <key> <mask> <data>"},
		{"MINSERT ip 1z 2 3", `ERR bad hex "1z"`},
		{"MINSERT ip 1 0x2 3", `ERR bad hex "0x2"`},
		{"MINSERT ip 1 2 -3", `ERR bad hex "-3"`},
		{"MINSERT nosuch 1 2 3", `ERR subsystem: no engine "nosuch"`},
		{"MINSERT db 1 2 3", "ERR minsert: engine type exact"},
		{"MINSERT tri 1 2 3", "ERR minsert: engine type trigram"},
		{"MDELETE", "ERR usage: MDELETE <engine> <key> <mask>"},
		{"MDELETE ip 1 2 3", "ERR usage: MDELETE <engine> <key> <mask>"},
		{"MDELETE ip zz 2", `ERR bad hex "zz"`},
		{"MDELETE db 1 2", "ERR mdelete: engine type exact"},
		// TINSERT / TSEARCH grammar and type gates.
		{"TINSERT", "ERR usage: TINSERT <engine> <score> <text>"},
		{"TINSERT tri 5", "ERR usage: TINSERT <engine> <score> <text>"},
		{"TINSERT tri xyz hello", `ERR bad score "xyz"`},
		{"TINSERT tri 10000 hello", `ERR bad score "10000"`}, // > 16 bits
		{"TINSERT tri 5 " + strings.Repeat("a", 257), "ERR text too long"},
		{"TINSERT ip 5 hello", "ERR tinsert: engine type lpm"},
		{"TINSERT nosuch 5 hello", `ERR subsystem: no engine "nosuch"`},
		{"TSEARCH", "ERR usage: TSEARCH <engine> <text>"},
		{"TSEARCH tri", "ERR usage: TSEARCH <engine> <text>"},
		{"TSEARCH tri " + strings.Repeat("a", 257), "ERR text too long"},
		{"TSEARCH db hello", "ERR tsearch: engine type exact"},
	}
	for _, tc := range cases {
		if got := s.Exec(tc.req); got != tc.want {
			t.Errorf("%s\n  got  %q\n  want %q", tc.req, got, tc.want)
		}
	}

	// Keyword case-insensitivity and idempotent round trips.
	mustOK(t, s, "create engine Tmp TYPE lpm indexbits 4 slots 2 ecc")
	mustOK(t, s, "drop engine Tmp")
	if got := s.Exec("DROP ENGINE Tmp"); got != `ERR subsystem: no engine "Tmp"` {
		t.Errorf("second drop => %q", got)
	}
}

// TestTypedEngineLimit fills the process to maxEngines and checks the
// protocol-level cap: the next CREATE draws a deterministic ERR and
// registers nothing, and dropping one engine frees one slot.
func TestTypedEngineLimit(t *testing.T) {
	s := typedServer(t)
	for i := 0; len(s.con.Engines()) < maxEngines; i++ {
		mustOK(t, s, fmt.Sprintf("CREATE ENGINE e%d TYPE exact INDEXBITS 1 SLOTS 1", i))
	}
	if got := s.Exec("CREATE ENGINE over TYPE exact INDEXBITS 1 SLOTS 1"); got != "ERR engine limit reached" {
		t.Fatalf("create past limit => %q", got)
	}
	mustOK(t, s, "DROP ENGINE e0")
	mustOK(t, s, "CREATE ENGINE over TYPE exact INDEXBITS 1 SLOTS 1")
	if n := len(s.con.Engines()); n != maxEngines {
		t.Fatalf("engine count = %d, want %d", n, maxEngines)
	}
}

// TestWritesWiderThanEngineRefused: a write that sets a key, mask or
// data bit at or above the engine's KeyBits or DataBits is refused
// before the journal, where it used to be acked and then stored cut to
// the engine's widths — answering no SEARCH of either spelling, or
// another record's payload, and failing Slice.Verify. Reads of a wide
// key keep their MISS; the widest writes that fit are served as before.
func TestWritesWiderThanEngineRefused(t *testing.T) {
	sub := subsystem.New(0)
	var engines []*subsystem.Engine
	for name, typ := range map[string]subsystem.EngineType{"db": subsystem.ExactEngine, "ip": subsystem.LPMEngine} {
		e, err := subsystem.NewTypedEngine(name, typ, subsystem.TypedConfig{IndexBits: 6})
		if err == nil {
			err = sub.AddEngine(e)
		}
		if err != nil {
			t.Fatal(err)
		}
		engines = append(engines, e)
	}
	s := New(sub)
	t.Cleanup(func() { s.Close() })
	for _, c := range []struct{ req, want string }{
		{"INSERT db deadbeef:cafe 45", "ERR key wider than 64 bits"},
		{"SEARCH db deadbeef:cafe", "MISS"},
		{"SEARCH db cafe", "MISS"},
		{"MSEARCH db deadbeef:cafe db cafe", "MRESULTS MISS MISS"},
		{"DELETE db deadbeef:cafe", "ERR key wider than 64 bits"},
		{"INSERT db 5 1ffffffff", "ERR data wider than 32 bits"},
		{"SEARCH db 5", "MISS"},
		{"INSERT db ffffffffffffffff ffffffff", "OK"},
		{"SEARCH db ffffffffffffffff", "HIT 0:00000000ffffffff"},
		{"MINSERT ip 1:0a000000 ffffffff:ff000000 7", "ERR key wider than 32 bits"},
		{"MINSERT ip 0a000000 1:ff 7", "ERR key wider than 32 bits"},
		{"MDELETE ip 1:0a000000 ff", "ERR key wider than 32 bits"},
		{"INSERT ip 0a000001 123456789", "ERR data wider than 32 bits"},
		{"SEARCH ip 0a000001", "MISS"},
		{"MINSERT ip 0a000000 ff ffffffff", "OK"},
		{"SEARCH ip 0a000001", "HIT 0:00000000ffffffff"},
		{"MINSERT db 5 1 2", "ERR minsert: engine type exact"}, // the type is judged first
		{"INSERT nope 1:0 2", "ERR subsystem: no engine \"nope\""},
	} {
		if got := s.Exec(c.req); got != c.want {
			t.Errorf("%s => %q, want %q", c.req, got, c.want)
		}
	}
	for _, e := range engines {
		if n := e.Main.Count(); n != 1 {
			t.Errorf("engine %s holds %d records, want 1", e.Name, n)
		}
		if v := e.Main.Verify(); v != "" {
			t.Errorf("engine %s: %s", e.Name, v)
		}
	}
}
