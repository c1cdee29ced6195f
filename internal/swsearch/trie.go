package swsearch

// Binary tries for longest-prefix match — the software IP-lookup
// baseline of §4.1 ("software-based approaches usually require at
// least 4 to 6 memory accesses for forwarding one packet"). Trie is a
// plain unibit trie: one node visit (= one memory access) per prefix
// bit. PathTrie applies path compression, skipping single-child runs,
// which shortens chains but still leaves several dependent accesses.

// Trie is a unibit binary trie over fixed-width keys.
type Trie struct {
	root  *trieNode
	width int
	n     int
	ctr   Counter
}

type trieNode struct {
	child  [2]*trieNode
	hasVal bool
	value  uint64
}

// NewTrie builds a trie over keys of the given bit width (e.g. 32 for
// IPv4 addresses). The most significant bit branches first.
func NewTrie(width int) *Trie {
	if width < 1 {
		width = 1
	}
	if width > 64 {
		width = 64
	}
	return &Trie{root: &trieNode{}, width: width}
}

// Insert stores value under the prefix given by the top length bits of
// key. length 0 installs a default route at the root.
func (t *Trie) Insert(key uint64, length int, value uint64) {
	if length < 0 {
		length = 0
	}
	if length > t.width {
		length = t.width
	}
	n := t.root
	for i := 0; i < length; i++ {
		b := key >> uint(t.width-1-i) & 1
		if n.child[b] == nil {
			n.child[b] = &trieNode{}
		}
		n = n.child[b]
	}
	if !n.hasVal {
		t.n++
	}
	n.hasVal = true
	n.value = value
}

// Lookup returns the longest-prefix match for key, charging one memory
// access per node visited.
func (t *Trie) Lookup(key uint64) (value uint64, length int, ok bool) {
	t.ctr.Lookups++
	n := t.root
	t.ctr.Accesses++
	if n.hasVal {
		value, length, ok = n.value, 0, true
	}
	for i := 0; i < t.width; i++ {
		b := key >> uint(t.width-1-i) & 1
		if n.child[b] == nil {
			break
		}
		n = n.child[b]
		t.ctr.Accesses++
		if n.hasVal {
			value, length, ok = n.value, i+1, true
		}
	}
	return value, length, ok
}

// Len returns the number of stored prefixes.
func (t *Trie) Len() int { return t.n }

// Counter returns the access counter.
func (t *Trie) Counter() Counter { return t.ctr }

// PathTrie is a path-compressed binary trie: chains of single-child,
// valueless nodes are skipped by storing a skip stride, so a lookup
// performs one access per *branching or valued* node only.
type PathTrie struct {
	root  *pathNode
	width int
	n     int
	ctr   Counter
}

type pathNode struct {
	// skipLen bits of skipBits (MSB-aligned within skipLen) are
	// consumed before this node's branch point.
	skipBits uint64
	skipLen  int
	child    [2]*pathNode
	hasVal   bool
	value    uint64
	valLen   int // prefix length of the stored value
}

// NewPathTrie builds a path-compressed trie over keys of the given
// width.
func NewPathTrie(width int) *PathTrie {
	if width < 1 {
		width = 1
	}
	if width > 64 {
		width = 64
	}
	return &PathTrie{width: width}
}

// Insert stores value under the top length bits of key. For simplicity
// and correctness the compressed trie is rebuilt from a side list on
// each insert batch boundary; Insert here performs direct incremental
// insertion by splitting compressed edges.
func (p *PathTrie) Insert(key uint64, length int, value uint64) {
	if length < 0 {
		length = 0
	}
	if length > p.width {
		length = p.width
	}
	key = extract(key, p.width, 0, length) << uint(64-length) >> uint(64-max(length, 1)) // normalized top bits
	p.root = p.insert(p.root, key, length, 0, value, length)
	// n is maintained inside insert via pointer; recompute lazily is
	// costly — track with a walk-free counter instead:
}

// insert places the remaining prefix bits (bits [depth, length) of the
// original prefix, MSB-first in key's low 'length' bits) below n.
func (p *PathTrie) insert(n *pathNode, key uint64, length, depth int, value uint64, valLen int) *pathNode {
	rem := length - depth
	if n == nil {
		p.n++
		return &pathNode{
			skipBits: extractLow(key, length, depth, rem),
			skipLen:  rem,
			hasVal:   true,
			value:    value,
			valLen:   valLen,
		}
	}
	// Compare against n's skip run.
	common := 0
	for common < n.skipLen && common < rem {
		if bitOf(n.skipBits, n.skipLen, common) != bitOf(extractLow(key, length, depth, rem), rem, common) {
			break
		}
		common++
	}
	if common < n.skipLen {
		// Split n's edge at 'common'.
		tail := &pathNode{
			skipBits: lowBits(n.skipBits, n.skipLen, common+1),
			skipLen:  n.skipLen - common - 1,
			child:    n.child,
			hasVal:   n.hasVal,
			value:    n.value,
			valLen:   n.valLen,
		}
		branch := &pathNode{
			skipBits: highBits(n.skipBits, n.skipLen, common),
			skipLen:  common,
		}
		branch.child[bitOf(n.skipBits, n.skipLen, common)] = tail
		if common == rem {
			// New prefix ends exactly at the branch point.
			branch.hasVal, branch.value, branch.valLen = true, value, valLen
			p.n++
		} else {
			nb := bitOf(extractLow(key, length, depth, rem), rem, common)
			branch.child[nb] = p.insert(nil, key, length, depth+common+1, value, valLen)
		}
		return branch
	}
	// The whole skip run matched.
	if rem == n.skipLen {
		if !n.hasVal {
			p.n++
		}
		n.hasVal, n.value, n.valLen = true, value, valLen
		return n
	}
	b := bitOf(extractLow(key, length, depth, rem), rem, n.skipLen)
	n.child[b] = p.insert(n.child[b], key, length, depth+n.skipLen+1, value, valLen)
	return n
}

// Lookup returns the longest-prefix match for key, charging one access
// per compressed node visited.
func (p *PathTrie) Lookup(key uint64) (value uint64, length int, ok bool) {
	p.ctr.Lookups++
	n := p.root
	depth := 0
	for n != nil {
		p.ctr.Accesses++
		// Verify the skip run.
		matched := true
		for i := 0; i < n.skipLen; i++ {
			if depth+i >= p.width || bitOf(n.skipBits, n.skipLen, i) != key>>uint(p.width-1-depth-i)&1 {
				matched = false
				break
			}
		}
		if !matched {
			break
		}
		depth += n.skipLen
		if n.hasVal {
			value, length, ok = n.value, n.valLen, true
		}
		if depth >= p.width {
			break
		}
		b := key >> uint(p.width-1-depth) & 1
		n = n.child[b]
		depth++
	}
	return value, length, ok
}

// Len returns the number of stored prefixes.
func (p *PathTrie) Len() int { return p.n }

// Counter returns the access counter.
func (p *PathTrie) Counter() Counter { return p.ctr }

// Bit-string helpers: a run of L bits is stored MSB-first in the low L
// bits of a uint64.

func bitOf(run uint64, runLen, i int) uint64 { return run >> uint(runLen-1-i) & 1 }

func lowBits(run uint64, runLen, from int) uint64 {
	if from >= runLen {
		return 0
	}
	return run & (1<<uint(runLen-from) - 1)
}

func highBits(run uint64, runLen, count int) uint64 {
	if count <= 0 {
		return 0
	}
	return run >> uint(runLen-count)
}

// extract returns bits [from, from+count) of the top 'width' bits of
// key, MSB-first in the low bits of the result.
func extract(key uint64, width, from, count int) uint64 {
	if count <= 0 {
		return 0
	}
	return key >> uint(width-from-count) & (1<<uint(count) - 1)
}

// extractLow returns bits [depth, depth+count) of a prefix whose top
// 'length' bits sit in key's low 'length' bits.
func extractLow(key uint64, length, depth, count int) uint64 {
	if count <= 0 {
		return 0
	}
	return key >> uint(length-depth-count) & (1<<uint(count) - 1)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
