package server

import (
	"strconv"
	"strings"

	"caram/internal/bitutil"
	"caram/internal/subsystem"
	"caram/internal/trace"
	"caram/internal/trigram"
	"caram/internal/wire"
)

// Typed-engine wire surface: engine lifecycle (CREATE ENGINE / DROP
// ENGINE) plus the commands whose key encodings the generic
// INSERT/SEARCH line format cannot carry — masked ternary writes for
// the lpm and pktclass engines (MINSERT / MDELETE) and text-keyed
// trigram operations (TINSERT / TSEARCH). The typed writes parse and
// apply with INSERT and DELETE (parseWrite, applyRun); their engine-type
// gate is here. Reads stay on the existing commands: SEARCH <engine>
// <key> answers an LPM lookup with the longest matching prefix and a
// pktclass lookup with the highest-priority matching rule, because the
// engine's type carries the ranking.

// maxEngines bounds how many engines one server will host — a
// protocol-level guard so a misbehaving (or fuzzing) client cannot
// grow the process without bound through CREATE ENGINE.
const maxEngines = 64

// Geometry bounds for wire-created engines, same motivation.
const (
	maxCreateIndexBits = 12
	maxCreateSlots     = 64
)

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
func (s *Server) execCreateAppend(dst []byte, v *wire.Verb, fs *wire.Scanner) []byte {
	kw, ok := fs.Next()
	if !ok || !wire.EqualFold(kw, "ENGINE") {
		return appendUsage(dst, v)
	}
	name, ok1 := fs.Next()
	tkw, ok2 := fs.Next()
	typS, ok3 := fs.Next()
	if !ok1 || !ok2 || !ok3 || !wire.EqualFold(tkw, "TYPE") {
		return appendUsage(dst, v)
	}
	var tc subsystem.TypedConfig
	for {
		opt, ok := fs.Next()
		if !ok {
			break
		}
		switch {
		case wire.EqualFold(opt, "ECC"):
			tc.ECC = true
		case wire.EqualFold(opt, "INDEXBITS"), wire.EqualFold(opt, "SLOTS"):
			valS, ok := fs.Next()
			if !ok {
				return appendUsage(dst, v)
			}
			n, err := strconv.Atoi(valS)
			if err != nil {
				return appendUsage(dst, v)
			}
			if wire.EqualFold(opt, "INDEXBITS") {
				if n < 1 || n > maxCreateIndexBits {
					return append(dst, "ERR indexbits out of range [1,12]"...)
				}
				tc.IndexBits = n
			} else {
				if n < 1 || n > maxCreateSlots {
					return append(dst, "ERR slots out of range [1,64]"...)
				}
				tc.Slots = n
			}
		default:
			return appendUsage(dst, v)
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
	return append(dst, wire.ReplyOK...)
}

// execDropAppend answers DROP ENGINE <name>.
func (s *Server) execDropAppend(dst []byte, v *wire.Verb, fs *wire.Scanner) []byte {
	kw, ok := fs.Next()
	name, ok1 := fs.Next()
	if _, extra := fs.Next(); !ok || !ok1 || extra || !wire.EqualFold(kw, "ENGINE") {
		return appendUsage(dst, v)
	}
	if err := s.con.DropEngine(name); err != nil {
		return appendErr(dst, err)
	}
	return append(dst, wire.ReplyOK...)
}

// ternaryWritable reports whether the engine accepts masked writes
// (its rows store a mask and its inserts duplicate over wildcard hash
// bits).
func ternaryWritable(t subsystem.EngineType) bool {
	return t == subsystem.LPMEngine || t == subsystem.PktClassEngine
}

// isTrigram is the type a text-keyed verb insists on.
func isTrigram(t subsystem.EngineType) bool { return t == subsystem.TrigramEngine }

// gateType insists that the engine a verb names, when the verb is one
// only some engine types serve, is of one of them. An unknown engine
// passes: the executor refuses it at admission, which counts it.
func (s *Server) gateType(dst []byte, v *wire.Verb, eng string, accepts func(subsystem.EngineType) bool) ([]byte, bool) {
	typ, err := s.con.EngineType(eng)
	if err != nil || accepts(typ) {
		return dst, true
	}
	dst = append(append(dst, "ERR "...), strings.ToLower(v.Name)...)
	dst = append(dst, ": engine type "...)
	return append(dst, typ.String()...), false
}

// execTSearchAppend answers TSEARCH <engine> <text...> with the same
// HIT/MISS/MISS! shapes as SEARCH; a hit's payload is the entry's
// score.
func (s *Server) execTSearchAppend(dst []byte, v *wire.Verb, fs *wire.Scanner, sv *served, tr *trace.Trace) []byte {
	eng, ok1 := fs.Next()
	text := fs.Rest()
	if !ok1 || text == "" {
		return appendUsage(dst, v)
	}
	if len(text) > wire.MaxText {
		return append(dst, "ERR text too long"...)
	}
	var ok bool
	if dst, ok = s.gateType(dst, v, eng, isTrigram); !ok {
		return dst
	}
	return s.searchAppend(dst, eng, bitutil.Exact(trigram.Entry{Text: text}.Key()), sv, tr)
}
