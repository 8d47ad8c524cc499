// Package suffixtree implements a suffix tree over integer alphabets using
// Ukkonen's online construction. It is the candidate-discovery structure of
// the machine outliner, mirroring llvm/ADT/SuffixTree: the outliner maps each
// machine instruction to an integer (identical instructions share an integer,
// un-outlinable instructions get fresh sentinels) and asks the tree for every
// repeated substring together with all of its occurrences.
//
// Construction goes through a Builder so the outliner can amortize storage
// across rounds: nodes live in one slab, children live in a flat
// open-addressed edge table instead of a map per node, and every buffer is
// reused by the next Build. Inputs are limited to 2³¹−1 symbols (node fields
// are int32) — far beyond any whole-program instruction string.
package suffixtree

const (
	noNode  = int32(-1)
	leafEnd = int32(-2) // sentinel edge end meaning "grows with the string"
)

type node struct {
	start int32 // edge label is s[start:end)
	end   int32 // leafEnd for leaves while building
	link  int32 // suffix link

	// Filled in by groupEdges(): this node's outgoing edges are
	// edges[edgeLo:edgeHi), in creation order. Equal means leaf.
	edgeLo, edgeHi int32

	// Filled in by annotate():
	depth    int32 // string depth (length of the substring this node spells)
	leafLo   int32 // [leafLo, leafHi) into leafStarts: leaves beneath this node
	leafHi   int32
	suffixIx int32 // for leaves: starting index of the suffix; -1 otherwise
}

// edge is one parent→child link keyed by the first symbol of its label.
type edge struct {
	parent, sym, child int32
}

// Tree is an immutable suffix tree over an int slice. Trees returned by a
// Builder alias its storage and are valid only until the next Build call.
type Tree struct {
	s          []int
	nodes      []node
	leafStarts []int
}

const root = int32(0)

// Builder holds the reusable storage of suffix-tree construction. The zero
// value is ready to use; a Builder is not safe for concurrent use.
type Builder struct {
	s     []int
	nodes []node
	edges []edge

	// Open-addressed hash table mapping (parent, sym) to an index into
	// edges; -1 is empty. Only used during build — groupEdges supersedes it.
	table []int32
	mask  uint32

	scratch    []edge // scatter target for grouping edges by parent
	cnt        []int32
	leafStarts []int
	stack      []dfsFrame
}

type dfsFrame struct {
	v     int32
	depth int32
	next  int32 // cursor into edges[edgeLo:edgeHi)
}

// New builds the suffix tree of s with a throwaway Builder. The caller must
// ensure s ends with (and is internally separated by) symbols that occur
// exactly once — the outliner uses negative sentinels — so that every suffix
// ends at a leaf.
func New(s []int) *Tree {
	return new(Builder).Build(s)
}

// Build constructs the suffix tree of s, reusing the Builder's storage. The
// returned Tree (and any Repeat.Starts handed out from it) is invalidated by
// the next Build.
func (b *Builder) Build(s []int) *Tree {
	b.s = s
	if cap(b.nodes) < 1 {
		b.nodes = make([]node, 0, 2*len(s)+2)
	}
	b.nodes = b.nodes[:0]
	b.nodes = append(b.nodes, node{start: -1, end: -1, link: noNode, suffixIx: -1})
	if cap(b.edges) < 1 {
		b.edges = make([]edge, 0, 2*len(s)+2) // one edge per non-root node
	}
	b.edges = b.edges[:0]
	b.resetTable(4 * (len(s) + 1))
	b.build()
	b.groupEdges()
	b.annotate()
	return &Tree{s: s, nodes: b.nodes, leafStarts: b.leafStarts}
}

// NodeCount returns the number of nodes in the tree (root included) — the
// structure-size figure the telemetry layer reports per outlining round.
func (t *Tree) NodeCount() int { return len(t.nodes) }

func (b *Builder) newNode(start, end int32) int32 {
	b.nodes = append(b.nodes, node{start: start, end: end, link: noNode, suffixIx: -1})
	return int32(len(b.nodes) - 1)
}

func (b *Builder) edgeLen(v, pos int32) int32 {
	n := &b.nodes[v]
	end := n.end
	if end == leafEnd {
		end = pos + 1
	}
	return end - n.start
}

// ---- (parent, sym) → child lookup during construction ----

func edgeHash(parent, sym int32) uint64 {
	return (uint64(uint32(parent))<<32 | uint64(uint32(sym))) * 0x9e3779b97f4a7c15
}

func (b *Builder) resetTable(want int) {
	size := 16
	for size < want {
		size <<= 1
	}
	if cap(b.table) >= size {
		b.table = b.table[:size]
	} else {
		b.table = make([]int32, size)
	}
	for i := range b.table {
		b.table[i] = -1
	}
	b.mask = uint32(size - 1)
}

func (b *Builder) grow() {
	old := b.edges
	b.resetTable(2 * len(b.table))
	for i, e := range old {
		slot := uint32(edgeHash(e.parent, e.sym)>>32) & b.mask
		for b.table[slot] != -1 {
			slot = (slot + 1) & b.mask
		}
		b.table[slot] = int32(i)
	}
}

func (b *Builder) child(v, sym int32) (int32, bool) {
	slot := uint32(edgeHash(v, sym)>>32) & b.mask
	for {
		ei := b.table[slot]
		if ei == -1 {
			return 0, false
		}
		if e := &b.edges[ei]; e.parent == v && e.sym == sym {
			return e.child, true
		}
		slot = (slot + 1) & b.mask
	}
}

func (b *Builder) setChild(v, sym, child int32) {
	slot := uint32(edgeHash(v, sym)>>32) & b.mask
	for {
		ei := b.table[slot]
		if ei == -1 {
			break
		}
		if e := &b.edges[ei]; e.parent == v && e.sym == sym {
			e.child = child
			return
		}
		slot = (slot + 1) & b.mask
	}
	b.edges = append(b.edges, edge{parent: v, sym: sym, child: child})
	b.table[slot] = int32(len(b.edges) - 1)
	if 4*len(b.edges) >= 3*len(b.table) {
		b.grow()
	}
}

// build runs Ukkonen's algorithm.
func (b *Builder) build() {
	s := b.s
	activeNode, activeLen := root, int32(0)
	activeEdge := int32(0)
	remaining := int32(0)
	for pos := int32(0); pos < int32(len(s)); pos++ {
		remaining++
		lastNew := noNode
		for remaining > 0 {
			if activeLen == 0 {
				activeEdge = pos
			}
			child, ok := b.child(activeNode, int32(s[activeEdge]))
			if !ok {
				// No edge: create a leaf here.
				leaf := b.newNode(pos, leafEnd)
				b.setChild(activeNode, int32(s[activeEdge]), leaf)
				if lastNew != noNode {
					b.nodes[lastNew].link = activeNode
					lastNew = noNode
				}
			} else {
				if el := b.edgeLen(child, pos); activeLen >= el {
					// Walk down.
					activeEdge += el
					activeLen -= el
					activeNode = child
					continue
				}
				if s[b.nodes[child].start+activeLen] == s[pos] {
					// Symbol already present: extend the active point.
					if lastNew != noNode && activeNode != root {
						b.nodes[lastNew].link = activeNode
						lastNew = noNode
					}
					activeLen++
					break
				}
				// Split the edge.
				splitEnd := b.nodes[child].start + activeLen
				split := b.newNode(b.nodes[child].start, splitEnd)
				b.setChild(activeNode, int32(s[activeEdge]), split)
				leaf := b.newNode(pos, leafEnd)
				b.setChild(split, int32(s[pos]), leaf)
				b.nodes[child].start = splitEnd
				b.setChild(split, int32(s[splitEnd]), child)
				if lastNew != noNode {
					b.nodes[lastNew].link = split
				}
				lastNew = split
			}
			remaining--
			if activeNode == root && activeLen > 0 {
				activeLen--
				activeEdge = pos - remaining + 1
			} else if activeNode != root {
				if l := b.nodes[activeNode].link; l != noNode {
					activeNode = l
				} else {
					activeNode = root
				}
			}
		}
	}
}

// groupEdges arranges edges so each node's children are the contiguous run
// edges[edgeLo:edgeHi): one counting sort by parent. The sort is stable and
// edges arrive in Ukkonen's (deterministic) insertion order, so the children
// of a node stay in the order they were created. No consumer needs them
// ordered by symbol: node numbering — and with it ForEachRepeat's order —
// comes from construction, and child order only decides the order of the
// leaves below a node, that is the order inside Repeat.Starts.
func (b *Builder) groupEdges() {
	n := len(b.nodes)
	if cap(b.cnt) >= n+1 {
		b.cnt = b.cnt[:n+1]
		clear(b.cnt)
	} else {
		b.cnt = make([]int32, n+1)
	}
	for _, e := range b.edges {
		b.cnt[e.parent+1]++
	}
	for i := 1; i <= n; i++ {
		b.cnt[i] += b.cnt[i-1]
	}
	for v := range b.nodes {
		b.nodes[v].edgeLo = b.cnt[v]
		b.nodes[v].edgeHi = b.cnt[v+1]
	}
	if cap(b.scratch) >= len(b.edges) {
		b.scratch = b.scratch[:len(b.edges)]
	} else {
		b.scratch = make([]edge, len(b.edges))
	}
	for _, e := range b.edges { // scatter, consuming cnt as cursors
		b.scratch[b.cnt[e.parent]] = e
		b.cnt[e.parent]++
	}
	b.edges, b.scratch = b.scratch, b.edges
}

// annotate computes string depths, suffix indices for leaves, and the
// DFS-contiguous leaf ranges for every node.
func (b *Builder) annotate() {
	n := int32(len(b.s))
	if cap(b.leafStarts) >= len(b.s)+1 {
		b.leafStarts = b.leafStarts[:0]
	} else {
		b.leafStarts = make([]int, 0, len(b.s)+1)
	}
	stack := b.stack[:0]
	stack = append(stack, dfsFrame{v: root, depth: 0, next: b.nodes[root].edgeLo})
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		nd := &b.nodes[f.v]
		if f.next == nd.edgeLo { // first visit
			nd.depth = f.depth
			nd.leafLo = int32(len(b.leafStarts))
			if nd.edgeLo == nd.edgeHi {
				// Leaf: its suffix starts at n - depth.
				nd.suffixIx = n - f.depth
				b.leafStarts = append(b.leafStarts, int(nd.suffixIx))
			}
		}
		if f.next < nd.edgeHi {
			c := b.edges[f.next]
			f.next++
			cn := &b.nodes[c.child]
			end := cn.end
			if end == leafEnd {
				end = n
			}
			stack = append(stack, dfsFrame{
				v:     c.child,
				depth: f.depth + end - cn.start,
				next:  cn.edgeLo,
			})
			continue
		}
		nd.leafHi = int32(len(b.leafStarts))
		stack = stack[:len(stack)-1]
	}
	b.stack = stack[:0]
}

// Repeat is one repeated substring: its length and the start index of every
// occurrence in the input. Starts is unordered — it lists the leaves below
// the repeat's node in tree order, which follows construction, not position —
// so a caller that needs ascending positions sorts a copy. Starts aliases
// internal storage; callers must not modify it, and it is invalidated by the
// Builder's next Build.
type Repeat struct {
	Length int
	Starts []int
}

// ForEachRepeat calls fn for every right-maximal repeated substring of
// length ≥ minLen occurring ≥ minCount times. These are exactly the internal
// nodes of the tree; any shorter/more-frequent prefix of a reported repeat is
// right-maximal too and is reported separately.
func (t *Tree) ForEachRepeat(minLen, minCount int, fn func(Repeat)) {
	for v := range t.nodes {
		nd := &t.nodes[v]
		if int32(v) == root || nd.edgeLo == nd.edgeHi {
			continue // root or leaf
		}
		count := int(nd.leafHi - nd.leafLo)
		if int(nd.depth) < minLen || count < minCount {
			continue
		}
		fn(Repeat{Length: int(nd.depth), Starts: t.leafStarts[nd.leafLo:nd.leafHi]})
	}
}

// Substring returns the input symbols for a repeat occurrence.
func (t *Tree) Substring(start, length int) []int {
	return t.s[start : start+length]
}
