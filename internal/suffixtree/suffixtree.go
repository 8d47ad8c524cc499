// Package suffixtree finds every repeated substring of an integer string,
// with all its occurrences: the outliner's candidate discovery. Negative
// symbols are sentinels, which match nothing, not even each other.
//
// It builds an enhanced suffix array (Abouelhoda, Kurtz & Ohlebusch, JDA
// 2004): SA-IS (Nong, Zhang & Chan 2009) sorts the suffixes and the Φ form of
// Kasai et al. (2001) computes the LCP array. The lcp-intervals are the
// internal nodes of the suffix tree LLVM's MachineOutliner builds, so the
// repeats and NodeCount are that tree's. A Builder reuses its storage: a
// Build on a string no longer than the last allocates nothing. Inputs hold
// under 2³¹−1 symbols, each below 2³¹−3; bucket storage grows with the largest.
package suffixtree

import "math"

// Tree is the enhanced suffix array of an int slice. It aliases its
// Builder's storage, is valid until the next Build, and is not safe for
// concurrent use: ForEachRepeat uses that storage as scratch.
type Tree struct {
	s     []int
	sa    []int   // starts of s's suffixes in sorted order
	lcp   []int32 // lcp[i]: common sentinel-free prefix of suffixes sa[i-1], sa[i]; 0 at 0 and n
	stack []int32 // ForEachRepeat's scratch, at least len(s)+1 long
	nodes int
}

// Builder holds the reusable storage; the zero value is ready to use. It is
// not safe for concurrent use.
type Builder struct {
	tree Tree
	sa   []int
	// text is s as SA-IS sorts it, then the LCP array. work is SA-IS's suffix
	// array with the recursion inside it, then Φ and PLCP, then the Tree's stack.
	text, work []int32
	types      []bool  // SA-IS's S-type flags, one recursion level after another
	bkt        []int32 // SA-IS's bucket pointers
}

// sentinel is every negative symbol of the sorted text, and the LCP
// comparison stops at it, which gives the intervals distinct sentinels would.
// 0 is the terminator SA-IS wants at the end; symbol v ≥ 0 is v+2.
const sentinel = 1

// New builds the enhanced suffix array of s with a throwaway Builder.
func New(s []int) *Tree {
	return new(Builder).Build(s)
}

// Build constructs the enhanced suffix array of s in the Builder's storage;
// the next Build invalidates it.
func (b *Builder) Build(s []int) *Tree {
	n := len(s)
	text, k := resize(b.text, n+1), sentinel+1
	for i, v := range s {
		text[i] = sentinel
		if v >= 0 {
			text[i], k = int32(v)+2, max(k, v+3)
		}
	}
	if n > math.MaxInt32-1 || k > math.MaxInt32 {
		panic("suffixtree: input past 2^31-2 symbols or symbol past 2^31-4")
	}
	text[n] = 0
	work := resize(b.work, n+1)
	b.types = resize(b.types, 2*(n+1))
	b.bkt = resize(b.bkt, max(k, n/2+2)) // a recursion's alphabet is at most half its text
	b.sais(text, work, k, b.types)
	sa := resize(b.sa, n)
	for i := range sa {
		sa[i] = int(work[i+1]) // work[0] is the terminator's suffix
	}
	b.text, b.work, b.sa = text, work, sa

	// Φ(p) is the suffix sorted just before p (-1 for the first). Overwriting
	// it in text order with PLCP(p) = lcp(p, Φ(p)) is linear, because
	// PLCP(p+1) ≥ PLCP(p) − 1; the unique terminator ends every comparison.
	phi, prev := work[:n], int32(-1)
	for _, p := range sa {
		phi[p], prev = prev, int32(p)
	}
	h := int32(0)
	for p := int32(0); p < int32(n); p++ {
		if q := phi[p]; q < 0 {
			h = 0
		} else {
			for text[p+h] == text[q+h] && text[p+h] > sentinel {
				h++
			}
		}
		phi[p], h = h, max(h-1, 0)
	}
	lcp := text[:n+1]
	for i, p := range sa {
		lcp[i] = phi[p]
	}
	lcp[n] = 0
	b.tree = Tree{s: s, sa: sa, lcp: lcp, stack: work, nodes: 1 + n}
	b.tree.ForEachRepeat(1, 2, func(Repeat) { b.tree.nodes++ })
	return &b.tree
}

// sais fills sa with the suffix array of t, whose symbols are below k and
// whose last symbol, 0, occurs nowhere else. types (2·len(t) long) and b.bkt
// are its scratch. The reduced problem, at most half as long, lives inside
// sa: its text at the back, its suffix array at the front.
func (b *Builder) sais(t, sa []int32, k int, types []bool) {
	n := len(t)
	if n == 1 {
		sa[0] = 0
		return
	}
	st := types[:n] // st[i]: suffix i is S-type, smaller than suffix i+1
	st[n-1] = true
	for i := n - 2; i >= 0; i-- {
		st[i] = t[i] < t[i+1] || t[i] == t[i+1] && st[i+1]
	}

	// Sort the LMS substrings by inducing from the LMS positions.
	fill(sa, -1)
	bkt := b.buckets(t, k, true)
	for i := int32(n - 1); i > 0; i-- {
		if isLMS(st, i) {
			bkt[t[i]]--
			sa[bkt[t[i]]] = i
		}
	}
	b.induce(t, sa, st, k)

	// Name them, equal substrings alike, and gather the names in text order
	// at the back of sa: the reduced text.
	n1 := 0
	for _, p := range sa {
		if isLMS(st, p) {
			sa[n1] = p
			n1++
		}
	}
	names := sa[n1:]
	fill(names, -1)
	name, prev := int32(-1), int32(-1)
	for _, p := range sa[:n1] {
		if prev < 0 || !equalLMS(t, st, p, prev) {
			name++
		}
		names[p/2], prev = name, p // LMS positions are at least two apart
	}
	for i, j := n-1, n-1; i >= n1; i-- {
		if sa[i] >= 0 {
			sa[j] = sa[i]
			j--
		}
	}
	t1, sa1 := sa[n-n1:], sa[:n1]

	// Sort the LMS suffixes: recurse, unless every name is distinct.
	if int(name)+1 < n1 {
		b.sais(t1, sa1, int(name)+1, types[n:])
	} else {
		for i, c := range t1 {
			sa1[c] = int32(i)
		}
	}

	// Induce the suffix array from the sorted LMS suffixes.
	for i, j := int32(1), 0; i < int32(n); i++ {
		if isLMS(st, i) {
			t1[j] = i
			j++
		}
	}
	for i, r := range sa1 {
		sa1[i] = t1[r]
	}
	fill(sa[n1:], -1)
	bkt = b.buckets(t, k, true)
	for i := n1 - 1; i >= 0; i-- {
		p := sa[i]
		sa[i] = -1
		bkt[t[p]]--
		sa[bkt[t[p]]] = p
	}
	b.induce(t, sa, st, k)
}

// induce sorts the L-type suffixes from the S-type ones placed in sa, then
// every S-type suffix from the L-type ones.
func (b *Builder) induce(t, sa []int32, st []bool, k int) {
	bkt := b.buckets(t, k, false)
	for i := 0; i < len(sa); i++ {
		if j := sa[i] - 1; j >= 0 && !st[j] {
			sa[bkt[t[j]]] = j
			bkt[t[j]]++
		}
	}
	bkt = b.buckets(t, k, true)
	for i := len(sa) - 1; i >= 0; i-- {
		if j := sa[i] - 1; j >= 0 && st[j] {
			bkt[t[j]]--
			sa[bkt[t[j]]] = j
		}
	}
}

// buckets returns where each symbol's bucket of the suffix array starts, or
// ends (exclusive) when end is set.
func (b *Builder) buckets(t []int32, k int, end bool) []int32 {
	bkt := b.bkt[:k]
	clear(bkt)
	for _, c := range t {
		bkt[c]++
	}
	sum := int32(0)
	for c, cnt := range bkt {
		sum += cnt
		bkt[c] = sum - cnt
		if end {
			bkt[c] = sum
		}
	}
	return bkt
}

// isLMS reports whether suffix i is S-type after an L-type one.
func isLMS(st []bool, i int32) bool { return i > 0 && st[i] && !st[i-1] }

// equalLMS reports whether the LMS substrings at p ≠ q (through the next LMS
// position) are equal. The unique terminator keeps both inside the text.
func equalLMS(t []int32, st []bool, p, q int32) bool {
	for d := int32(0); ; d++ {
		if t[p+d] != t[q+d] || st[p+d] != st[q+d] {
			return false
		}
		if d > 0 && (isLMS(st, p+d) || isLMS(st, q+d)) {
			return isLMS(st, p+d) && isLMS(st, q+d)
		}
	}
}

// NodeCount returns the suffix tree's node count, reported per round: the
// root, one leaf per symbol and one internal node per lcp-interval.
func (t *Tree) NodeCount() int { return t.nodes }

// Repeat is one repeated substring: its length and the start of every
// occurrence. Starts is the repeat's lcp-interval of the suffix array, in
// suffix order, not position order; nested repeats share it, so callers sort
// a copy. It is invalidated by the Builder's next Build.
type Repeat struct {
	Length int
	Starts []int
}

// ForEachRepeat calls fn, in no particular order, for every right-maximal
// repeated substring — every lcp-interval — of length ≥ minLen occurring
// ≥ minCount times. It walks the LCP array once with a stack holding, per
// open interval, the latest index with its value (values strictly increase):
// an interval closes when a smaller value arrives and starts at the index
// below its own.
func (t *Tree) ForEachRepeat(minLen, minCount int, fn func(Repeat)) {
	stack := t.stack[:1]
	stack[0] = 0 // lcp[0] = 0: the root interval, never closed
	for i := 1; i < len(t.lcp); i++ {
		h := t.lcp[i]
		for top := stack[len(stack)-1]; h < t.lcp[top]; top = stack[len(stack)-1] {
			stack = stack[:len(stack)-1]
			lb, length := int(stack[len(stack)-1]), int(t.lcp[top])
			if length >= minLen && i-lb >= minCount {
				fn(Repeat{Length: length, Starts: t.sa[lb:i]})
			}
		}
		switch top := &stack[len(stack)-1]; {
		case h > t.lcp[*top]:
			stack = append(stack, int32(i))
		case h == t.lcp[*top]:
			*top = int32(i) // the interval goes on; any above it starts here
		}
	}
}

// resize returns buf at length n, reallocating only when it is too short.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

func fill(s []int32, v int32) {
	for i := range s {
		s[i] = v
	}
}
