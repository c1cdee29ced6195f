package wire

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// example builds a well-formed request from a verb's usage line: the
// mandatory part of its first alternative, placeholders filled in.
func example(v *Verb) string {
	usage, _, _ := strings.Cut(v.Usage, " | ")
	usage, _, _ = strings.Cut(usage, "[")
	return strings.NewReplacer(
		"<engine>", "db", "<name>", "db", "<key>", "dead", "<mask>", "ff", "<data>", "42",
		"<score>", "1", "<text>", "hello world", "<type>", "exact", "<hex-id>", "1f",
	).Replace(strings.TrimSpace(usage))
}

// variants is the seed corpus one table row contributes: its example
// bare, lower-cased, *TID-tagged, one field short and one field long.
func variants(v *Verb) []string {
	ex := example(v)
	short := ex[:max(strings.LastIndexByte(ex, ' '), 0)]
	return []string{ex, strings.ToLower(ex), "*TID 1f/1 " + ex, "*tid 0/0  " + ex, short, ex + " extra"}
}

func TestLookupEveryRow(t *testing.T) {
	for i := range Table() {
		v := &Table()[i]
		if v.ID != ID(i) || v.Name == "" || !strings.HasPrefix(v.Usage, v.Name) {
			t.Errorf("row %d malformed: %+v", i, v)
		}
		for _, spell := range []string{v.Name, strings.ToLower(v.Name), v.Name[:1] + strings.ToLower(v.Name[1:])} {
			if got := Lookup(spell); got != v {
				t.Errorf("Lookup(%q) = %v, want the %s row", spell, got, v.Name)
			}
		}
		if v.Key != 0 && v.Key <= v.Engine || v.Mask != 0 && v.Mask != v.Key+1 || v.Text && v.Key == 0 {
			t.Errorf("%s: positions engine=%d key=%d mask=%d text=%v do not line up", v.Name, v.Engine, v.Key, v.Mask, v.Text)
		}
	}
	for _, w := range []string{"", "SEARCHX", "SEARC", "*TID", "ＳＥＡＲＣＨ"} {
		if Lookup(w) != nil {
			t.Errorf("Lookup(%q) found a row", w)
		}
	}
}

func TestParseHead(t *testing.T) {
	for _, tc := range []struct {
		line      string
		status    Status
		verb      string
		annotated bool
		tid       uint64
		span      uint32
		tag       string
	}{
		{"SEARCH db dead", OK, "SEARCH", false, 0, 0, ""},
		{"  search\tdb dead", OK, "SEARCH", false, 0, 0, ""},
		{"*TID 1f/1 SEARCH db dead", OK, "SEARCH", true, 0x1f, 1, "*TID 1f/1 "},
		{" *tid 1F  insert db 1 2", OK, "INSERT", true, 0x1f, 0, " *tid 1F  "},
		{"*TID 1f/1 *TID 2/2 SEARCH db dead", UnknownVerb, "", true, 0x1f, 1, "*TID 1f/1 "},
		{"", Empty, "", false, 0, 0, ""},
		{" \t ", Empty, "", false, 0, 0, ""},
		{"*TID 1f/1", Empty, "", true, 0x1f, 1, ""},
		{"*TID", BadTID, "", true, 0, 0, ""},
		{"*TID zz SEARCH db dead", BadTID, "", true, 0, 0, ""},
		{"*TID 1f/ SEARCH db dead", BadTID, "", true, 0, 0, ""},
		{"*TID 1f/4294967296 SEARCH db dead", BadTID, "", true, 0, 0, ""},
		{"*FOO SEARCH db dead", UnknownAnnotation, "", true, 0, 0, ""},
		{"BOGUS x", UnknownVerb, "", false, 0, 0, ""},
	} {
		var r Request
		Parse(&r, tc.line)
		name := ""
		if r.Verb != nil {
			name = r.Verb.Name
		}
		if r.Status != tc.status || name != tc.verb || r.Annotated != tc.annotated ||
			r.TID != tc.tid || r.Span != tc.span || r.Tag != tc.tag {
			t.Errorf("Parse(%q) = status %d verb %q annotated %v id %x/%d tag %q", tc.line,
				r.Status, name, r.Annotated, r.TID, r.Span, r.Tag)
		}
	}
}

// TestIdentity: what a trace calls a request — the verb's canonical
// name (an unknown one as written), and the engine and key at the row's
// positions, for every verb, not for three of them; a key cut to MaxText.
func TestIdentity(t *testing.T) {
	long := strings.Repeat("x", MaxText+44)
	for _, tc := range []struct{ line, cmd, engine, key string }{
		{"SEARCH db dead ff", "SEARCH", "db", "dead"},
		{"*TID 1/1 insert db beef 7", "INSERT", "db", "beef"},
		{"MINSERT ip a0 ff 8", "MINSERT", "ip", "a0"},
		{"MDELETE ip a0 ff", "MDELETE", "ip", "a0"},
		{"TSEARCH tri  hello  world ", "TSEARCH", "tri", "hello  world"},
		{"TINSERT tri 2a the quick fox", "TINSERT", "tri", "the quick fox"},
		{"tsearch tri " + long, "TSEARCH", "tri", long[:MaxText]},
		{"EXPLAIN SEARCH db dead", "EXPLAIN", "db", "dead"},
		{"STATS db", "STATS", "db", ""},
		{"HEALTH", "HEALTH", "", ""},
		{"DROP ENGINE ip", "DROP", "ip", ""},
		{"MSEARCH db dead db beef", "MSEARCH", "", ""},
		{"SEARCH db", "SEARCH", "db", ""},
		{"TSEARCH tri", "TSEARCH", "tri", ""},
		{"bogus db dead", "bogus", "", ""},
		{"*TID 1/1", "", "", ""},
		{"*FOO SEARCH db dead", "", "", ""},
	} {
		var r Request
		Parse(&r, tc.line)
		if c, e, k := r.Identity(); c != tc.cmd || e != tc.engine || k != tc.key {
			t.Errorf("Identity(%.40q) = %q, %q, %.40q; want %q, %q, %.40q", tc.line, c, e, k, tc.cmd, tc.engine, tc.key)
		}
	}
}

// TestParseZeroAlloc: the whole request grammar — scan, annotation,
// verb lookup in either case, identity, key — runs without allocating.
// Run by `make alloc-guard`.
func TestParseZeroAlloc(t *testing.T) {
	lines := []string{"SEARCH db dead", "search db 0:dead ff", "*TID 1f/1 tsearch tri the quick fox",
		"MSEARCH db 1 db 2", "*TID zz SEARCH db dead", "bogus", ""}
	if n := testing.AllocsPerRun(100, func() {
		for _, line := range lines {
			var r Request
			Parse(&r, line)
			r.Identity()
			r.Args.Count()
			if f, ok := r.Args.Next(); ok {
				ParseVec(f)
			}
		}
	}); n != 0 {
		t.Fatalf("request parse allocated %.1f times per run, want 0", n)
	}
}

// FuzzRequest: Parse is total, allocation-free and case-blind on every
// input. The seed corpus is generated from the table, so a new row is
// fuzzed from the day it is added.
func FuzzRequest(f *testing.F) {
	for i := range Table() {
		for _, line := range variants(&Table()[i]) {
			f.Add(line)
		}
	}
	for _, line := range []string{"", "*TID", "*TID zz SEARCH db dead", "*FOO x", "*TID 1f/1", "BOGUS", "SEARCH db \x00\xff"} {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		var r Request
		if n := testing.AllocsPerRun(1, func() {
			Parse(&r, line)
			r.Identity()
		}); n != 0 {
			t.Fatalf("Parse(%q) allocated", line)
		}
		if (r.Status == OK) != (r.Verb != nil) {
			t.Fatalf("Parse(%q): status %d with verb %v", line, r.Status, r.Verb)
		}
		if Lookup(strings.ToUpper(r.Word)) != Lookup(r.Word) || Lookup(strings.ToLower(r.Word)) != Lookup(r.Word) {
			t.Fatalf("Lookup is case-sensitive on %q", r.Word)
		}
		if r.Tag != "" && r.Verb != nil {
			// What a tier that forwards the inner command must get back
			// by stripping the tag: the same verb over the same arguments.
			var inner Request
			Parse(&inner, strings.TrimPrefix(line, r.Tag))
			ic, ie, ik := inner.Identity()
			if c, e, k := r.Identity(); !r.Annotated || inner.Verb != r.Verb || inner.Annotated || ic != c || ie != e || ik != k {
				t.Fatalf("Parse(%q): tag %q does not strip to the same request", line, r.Tag)
			}
		}
	})
}

// FuzzScanner holds Scanner to its doc comment: over any string — ASCII
// or not, valid UTF-8 or not — its fields are strings.Fields', and Count
// is how many there are. The seeds put field ends on both sides of the
// scanner's eight-byte steps and every kind of separator and non-separator
// byte those steps stop at.
func FuzzScanner(f *testing.F) {
	for _, s := range []string{
		"", " ", "SEARCH db dead", " \t\n\v\f\rx\r\n",
		"abcdefgh", "abcdefgh ", "abcdefghi jklmnopq", "1234567 12345678 123456789",
		"MSEARCH db 0123456789abcdef db fedcba9876543210:0123456789abcdef",
		"abcdefg hij", "x y\u0085z　", "abcdefghijk l",
		"\x00\x1f\x7f!~ \x7f\x7f\x7f\x7f\x7f\x7f\x7f\x7f", "ab\xffcdefgh\xc0 e\xe2\x80",
		strings.Repeat("k", 64) + "\v" + strings.Repeat("q", 17),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		var got []string
		sc := Scan(s)
		n := sc.Count()
		for field, ok := sc.Next(); ok; field, ok = sc.Next() {
			got = append(got, field)
		}
		if want := strings.Fields(s); !slices.Equal(got, want) || n != len(want) {
			t.Fatalf("Scan(%q) = %q (Count %d), strings.Fields = %q", s, got, n, want)
		}
	})
}

// boxLines returns the request half ("usage -> reply") of every line of
// the protocol box that sits between open and end in text.
func boxLines(t *testing.T, text, open, end string) []string {
	t.Helper()
	_, box, ok := strings.Cut(text, open)
	if !ok {
		t.Fatalf("no protocol box after %q", open)
	}
	box, _, _ = strings.Cut(box, end)
	var lines []string
	for _, l := range strings.Split(box, "\n") {
		l = strings.TrimPrefix(l, "//")
		if strings.HasPrefix(strings.TrimSpace(l), "->") {
			continue // a reply continued from the line above
		}
		l, _, _ = strings.Cut(l, "->")
		if l = strings.TrimSpace(l); l != "" {
			lines = append(lines, l)
		}
	}
	return lines
}

// TestProtocolDocsMatchTable: the protocol box is written down twice,
// in this package's comment and in README's Lookup service section,
// and both must be the table — every row's usage line verbatim, and no
// line without a row. Likewise the connection-level replies: both list
// exactly the four constants the Endpoint sends.
func TestProtocolDocsMatchTable(t *testing.T) {
	doc, err := os.ReadFile("doc.go")
	if err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(readme), "## Lookup service")
	for name, lines := range map[string][]string{
		"doc.go":    boxLines(t, string(doc), "case-insensitive):\n//\n", "//\n// Each line above"),
		"README.md": boxLines(t, section, "```\n", "```"),
	} {
		seen := map[string]bool{}
		for _, l := range lines {
			seen[l] = true
		}
		for i := range Table() {
			if u := Table()[i].Usage; !seen[u] {
				t.Errorf("%s: no box line for %q", name, u)
			}
			delete(seen, Table()[i].Usage)
		}
		for l := range seen {
			t.Errorf("%s: box line %q has no table row", name, l)
		}
	}
	want := []string{ReplyBusy, ReplyTimeout, ReplyTooLong, ReplyReadErr + "<error>"}
	_, section, _ = strings.Cut(section, "Connection-level replies")
	for name, lines := range map[string][]string{
		"doc.go":    boxLines(t, string(doc), "before it:\n//\n", "//\n// A stream that ends"),
		"README.md": boxLines(t, section, "```\n", "```"),
	} {
		if !slices.Equal(lines, want) {
			t.Errorf("%s: connection-level replies listed as %q, want %q", name, lines, want)
		}
	}
}
