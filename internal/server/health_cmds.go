package server

import "caram/internal/wire"

// Wire access to the fault-tolerance layer: the HEALTH command.
//
// Like EXPLAIN, HEALTH is built for determinism: it prints only state
// and counters — never timings — so a scripted session produces the
// same bytes every run and the golden test can hold the format. On an
// engine without error coding every counter reads zero and the state
// is healthy, which keeps the command meaningful (and golden-testable)
// on ECC-less servers.

// execHealthAppend answers the HEALTH command.
//
//	HEALTH                  one "name=state" pair per engine
//	HEALTH <engine>         state plus the error-coding counters
//	HEALTH <engine> SCRUB   run the scrub pass, report repairs
func (s *Server) execHealthAppend(dst []byte, v *wire.Verb, fs *wire.Scanner) []byte {
	eng, hasEng := fs.Next()
	if !hasEng {
		dst = append(dst, "HEALTH"...)
		for _, name := range s.con.Engines() {
			h, _ := s.con.Health(name)
			dst = append(dst, ' ')
			dst = append(dst, name...)
			dst = append(dst, '=')
			dst = append(dst, h.String()...)
		}
		return dst
	}
	sub, hasSub := fs.Next()
	if _, extra := fs.Next(); extra {
		return appendUsage(dst, v)
	}
	if hasSub {
		if !wire.EqualFold(sub, "SCRUB") {
			return appendUsage(dst, v)
		}
		rep, err := s.con.Scrub(eng)
		if err != nil {
			return appendErr(dst, err)
		}
		dst = append(dst, "OK scrub engine="...)
		dst = append(dst, eng...)
		dst = appendKV(dst, "rows", rep.RepairedRows)
		dst = appendKV(dst, "bits", rep.RepairedBits)
		return appendKV(dst, "released", rep.Released)
	}
	hi, err := s.con.HealthInfo(eng)
	if err != nil {
		return appendErr(dst, err)
	}
	dst = append(dst, "HEALTH engine="...)
	dst = append(dst, eng...)
	dst = append(dst, " state="...)
	dst = append(dst, hi.State.String()...)
	dst = appendKV(dst, "quarantined", hi.Quarantined)
	dst = appendKV(dst, "corrected", hi.Ecc.CorrectedBits)
	dst = appendKV(dst, "uncorrectable", hi.Ecc.Uncorrectable)
	dst = appendKV(dst, "read_errors", hi.Ecc.ReadErrors)
	dst = appendKV(dst, "scrubs", hi.Ecc.ScrubRuns)
	return appendKV(dst, "scrub_bits", hi.Ecc.ScrubRepairedBits)
}
