package server

import (
	"strconv"
	"strings"
	"time"

	"caram/internal/bitutil"
	"caram/internal/match"
	"caram/internal/subsystem"
	"caram/internal/trace"
	"caram/internal/trigram"
)

// Typed-engine wire surface: engine lifecycle (CREATE ENGINE / DROP
// ENGINE) plus the commands whose key encodings the generic
// INSERT/SEARCH line format cannot carry — masked ternary writes for
// the lpm and pktclass engines (MINSERT / MDELETE) and text-keyed
// trigram operations (TINSERT / TSEARCH). Reads stay on the existing
// commands: SEARCH <engine> <key> answers an LPM lookup with the
// longest matching prefix and a pktclass lookup with the
// highest-priority matching rule, because the engine's type carries
// the ranking.

// maxEngines bounds how many engines one server will host — a
// protocol-level guard so a misbehaving (or fuzzing) client cannot
// grow the process without bound through CREATE ENGINE.
const maxEngines = 64

// Geometry bounds for wire-created engines, same motivation.
const (
	maxCreateIndexBits = 12
	maxCreateSlots     = 64
)

// maxTextBytes bounds the text argument of TINSERT/TSEARCH. The key
// image is 16 bytes regardless (longer texts are digest-folded), so
// the cap only keeps trace/log fields sane.
const maxTextBytes = 256

// validEngineName reports whether the name is safe to echo into every
// downstream surface (metrics labels, trace JSON, ENGINES listings):
// 1-32 bytes of [A-Za-z0-9_.-].
func validEngineName(s string) bool {
	if len(s) == 0 || len(s) > 32 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '_', c == '.', c == '-':
		default:
			return false
		}
	}
	return true
}

// execCreateAppend answers CREATE ENGINE <name> TYPE <type>
// [INDEXBITS <n>] [SLOTS <n>] [ECC].
func (s *Server) execCreateAppend(dst []byte, fs *FieldScanner) []byte {
	const usage = "ERR usage: CREATE ENGINE <name> TYPE <type> [INDEXBITS <n>] [SLOTS <n>] [ECC]"
	kw, ok := fs.next()
	if !ok || !asciiEqualFold(kw, "ENGINE") {
		return append(dst, usage...)
	}
	name, ok1 := fs.next()
	tkw, ok2 := fs.next()
	typS, ok3 := fs.next()
	if !ok1 || !ok2 || !ok3 || !asciiEqualFold(tkw, "TYPE") {
		return append(dst, usage...)
	}
	var tc subsystem.TypedConfig
	for {
		opt, ok := fs.next()
		if !ok {
			break
		}
		switch {
		case asciiEqualFold(opt, "ECC"):
			tc.ECC = true
		case asciiEqualFold(opt, "INDEXBITS"), asciiEqualFold(opt, "SLOTS"):
			valS, ok := fs.next()
			if !ok {
				return append(dst, usage...)
			}
			v, err := strconv.Atoi(valS)
			if err != nil {
				return append(dst, usage...)
			}
			if asciiEqualFold(opt, "INDEXBITS") {
				if v < 1 || v > maxCreateIndexBits {
					return append(dst, "ERR indexbits out of range [1,12]"...)
				}
				tc.IndexBits = v
			} else {
				if v < 1 || v > maxCreateSlots {
					return append(dst, "ERR slots out of range [1,64]"...)
				}
				tc.Slots = v
			}
		default:
			return append(dst, usage...)
		}
	}
	if !validEngineName(name) {
		dst = append(dst, "ERR bad engine name "...)
		return strconv.AppendQuote(dst, name)
	}
	typ, err := subsystem.ParseEngineType(typS)
	if err != nil {
		return appendErr(dst, err)
	}
	if len(s.con.Engines()) >= maxEngines {
		return append(dst, "ERR engine limit reached"...)
	}
	// The roster keeps the name; the request line it came from does not
	// outlive this call (Handle passes a view of its read buffer).
	if err := s.con.CreateEngine(strings.Clone(name), typ, tc); err != nil {
		return appendErr(dst, err)
	}
	return append(dst, "OK"...)
}

// execDropAppend answers DROP ENGINE <name>.
func (s *Server) execDropAppend(dst []byte, fs *FieldScanner) []byte {
	const usage = "ERR usage: DROP ENGINE <name>"
	kw, ok := fs.next()
	name, ok1 := fs.next()
	if _, extra := fs.next(); !ok || !ok1 || extra || !asciiEqualFold(kw, "ENGINE") {
		return append(dst, usage...)
	}
	if err := s.con.DropEngine(name); err != nil {
		return appendErr(dst, err)
	}
	return append(dst, "OK"...)
}

// ternaryWritable reports whether the engine accepts masked writes
// (its rows store a mask and its inserts duplicate over wildcard hash
// bits).
func ternaryWritable(t subsystem.EngineType) bool {
	return t == subsystem.LPMEngine || t == subsystem.PktClassEngine
}

// execMInsertAppend answers MINSERT <engine> <key> <mask> <data> — the
// masked (ternary) insert for lpm/pktclass engines. Mask bits are
// don't-cares; value bits under the mask are zeroed on storage, so
// equal rules have equal row images.
func (s *Server) execMInsertAppend(dst []byte, fs *FieldScanner, tr *trace.Trace) []byte {
	eng, ok1 := fs.next()
	keyS, ok2 := fs.next()
	maskS, ok3 := fs.next()
	dataS, ok4 := fs.next()
	if _, extra := fs.next(); !ok1 || !ok2 || !ok3 || !ok4 || extra {
		return append(dst, "ERR usage: MINSERT <engine> <key> <mask> <data>"...)
	}
	tr.Request("MINSERT", eng, keyS)
	key, err := parseVec(keyS)
	if err != nil {
		return appendErr(dst, err)
	}
	mask, err := parseVec(maskS)
	if err != nil {
		return appendErr(dst, err)
	}
	data, err := parseVec(dataS)
	if err != nil {
		return appendErr(dst, err)
	}
	typ, err := s.con.EngineType(eng)
	if err != nil {
		return appendErr(dst, err)
	}
	if !ternaryWritable(typ) {
		dst = append(dst, "ERR minsert: engine type "...)
		return append(dst, typ.String()...)
	}
	rec := match.Record{Key: bitutil.NewTernary(key, mask), Data: data}
	if err := s.con.InsertTraced(eng, rec, tr); err != nil {
		return appendErr(dst, err)
	}
	return append(dst, "OK"...)
}

// execMDeleteAppend answers MDELETE <engine> <key> <mask> — removes the
// exact (key, mask) rule, every duplicated copy included.
func (s *Server) execMDeleteAppend(dst []byte, fs *FieldScanner, tr *trace.Trace) []byte {
	eng, ok1 := fs.next()
	keyS, ok2 := fs.next()
	maskS, ok3 := fs.next()
	if _, extra := fs.next(); !ok1 || !ok2 || !ok3 || extra {
		return append(dst, "ERR usage: MDELETE <engine> <key> <mask>"...)
	}
	tr.Request("MDELETE", eng, keyS)
	key, err := parseVec(keyS)
	if err != nil {
		return appendErr(dst, err)
	}
	mask, err := parseVec(maskS)
	if err != nil {
		return appendErr(dst, err)
	}
	typ, err := s.con.EngineType(eng)
	if err != nil {
		return appendErr(dst, err)
	}
	if !ternaryWritable(typ) {
		dst = append(dst, "ERR mdelete: engine type "...)
		return append(dst, typ.String()...)
	}
	if err := s.con.DeleteTraced(eng, bitutil.NewTernary(key, mask), tr); err != nil {
		return appendErr(dst, err)
	}
	return append(dst, "OK"...)
}

// trigramEngineOf resolves the engine for a text-keyed command,
// insisting on the trigram type.
func (s *Server) trigramEngineOf(dst []byte, cmd, eng string) ([]byte, bool) {
	typ, err := s.con.EngineType(eng)
	if err != nil {
		return appendErr(dst, err), false
	}
	if typ != subsystem.TrigramEngine {
		dst = append(dst, "ERR "...)
		dst = append(dst, cmd...)
		dst = append(dst, ": engine type "...)
		return append(dst, typ.String()...), false
	}
	return dst, true
}

// execTInsertAppend answers TINSERT <engine> <score> <text...>: the
// text (rest of the line, spaces allowed) is folded into the trigram
// key image and stored with the 16-bit hex score.
func (s *Server) execTInsertAppend(dst []byte, fs *FieldScanner, tr *trace.Trace) []byte {
	const usage = "ERR usage: TINSERT <engine> <score> <text>"
	eng, ok1 := fs.next()
	scoreS, ok2 := fs.next()
	text := fs.rest()
	if !ok1 || !ok2 || text == "" {
		return append(dst, usage...)
	}
	if len(text) > maxTextBytes {
		return append(dst, "ERR text too long"...)
	}
	tr.Request("TINSERT", eng, text)
	score, err := strconv.ParseUint(scoreS, 16, 16)
	if err != nil {
		dst = append(dst, "ERR bad score "...)
		return strconv.AppendQuote(dst, scoreS)
	}
	var ok bool
	if dst, ok = s.trigramEngineOf(dst, "tinsert", eng); !ok {
		return dst
	}
	rec := match.Record{
		Key:  bitutil.Exact(trigram.Entry{Text: text}.Key()),
		Data: bitutil.FromUint64(score),
	}
	if err := s.con.InsertTraced(eng, rec, tr); err != nil {
		return appendErr(dst, err)
	}
	return append(dst, "OK"...)
}

// execTSearchAppend answers TSEARCH <engine> <text...> with the same
// HIT/MISS/MISS! shapes as SEARCH; a hit's payload is the entry's
// score.
func (s *Server) execTSearchAppend(dst []byte, fs *FieldScanner, tr *trace.Trace) []byte {
	eng, ok1 := fs.next()
	text := fs.rest()
	if !ok1 || text == "" {
		return append(dst, "ERR usage: TSEARCH <engine> <text>"...)
	}
	if len(text) > maxTextBytes {
		return append(dst, "ERR text too long"...)
	}
	tr.Request("TSEARCH", eng, text)
	var ok bool
	if dst, ok = s.trigramEngineOf(dst, "tsearch", eng); !ok {
		return dst
	}
	if tr.Enabled() {
		tr.Span(trace.KindParse, tr.Begin)
	}
	sr, err := s.con.SearchTraced(eng, bitutil.Exact(trigram.Entry{Text: text}.Key()), tr)
	if err != nil {
		return appendErr(dst, err)
	}
	var encStart time.Time
	if tr.Enabled() {
		encStart = time.Now()
	}
	switch {
	case !sr.Found && sr.Erred:
		dst = append(dst, "MISS!"...)
	case !sr.Found:
		dst = append(dst, "MISS"...)
	default:
		dst = append(dst, "HIT "...)
		dst = appendHex(dst, sr.Record.Data.Hi)
		dst = append(dst, ':')
		dst = appendHex016(dst, sr.Record.Data.Lo)
	}
	if tr.Enabled() {
		tr.Span(trace.KindEncode, encStart)
	}
	return dst
}

// asciiEqualFold is a case-insensitive ASCII comparison (the command
// words are ASCII by construction).
func asciiEqualFold(s, t string) bool {
	if len(s) != len(t) {
		return false
	}
	for i := 0; i < len(s); i++ {
		c, d := s[i], t[i]
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		if d >= 'a' && d <= 'z' {
			d -= 'a' - 'A'
		}
		if c != d {
			return false
		}
	}
	return true
}
