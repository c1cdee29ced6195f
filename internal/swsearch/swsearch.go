// Package swsearch implements the software search baseline CA-RAM is
// measured against in IP lookup (§4.1): binary tries for longest-prefix
// match, unibit (Trie) and path-compressed (PathTrie). Each counts the
// memory accesses a lookup performs — the unit the paper's comparison
// is framed in, since a pointer-chasing software search costs one
// (likely cache-missing) memory access per node. The trie is also the
// LPM oracle the iproute, server and load-harness tests check against.
package swsearch

// Counter accumulates simulated memory accesses.
type Counter struct {
	Lookups  uint64
	Accesses uint64
}

// AMAL returns the average memory accesses per lookup.
func (c Counter) AMAL() float64 {
	if c.Lookups == 0 {
		return 0
	}
	return float64(c.Accesses) / float64(c.Lookups)
}
