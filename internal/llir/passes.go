package llir

import (
	"slices"
	"strconv"
	"strings"
)

// ---- Dead code elimination ----

// pure reports whether an instruction has no side effects and may be removed
// when its result is unused.
func pure(in *Inst) bool {
	switch in.Op {
	case Const, GlobalAddr, Bin, Cmp, Not, Neg, Load, Phi:
		return true
	}
	return false
}

// DCE removes pure instructions whose results are never used, iterating to a
// fixed point.
func DCE(f *Func) {
	used := make([]bool, f.NumValues+1) // by value number
	mark := func(v Value) {
		if uint(v) < uint(len(used)) {
			used[v] = true
		}
	}
	for {
		for _, b := range f.Blocks {
			for i := range b.Insts {
				in := &b.Insts[i]
				// An instruction's own Dst is a def, not a use; everything
				// else read counts.
				mark(in.A)
				mark(in.B)
				e := in.Ext
				if e == nil {
					continue
				}
				if in.Op != Call { // Call's ErrDst is a def
					mark(e.ErrDst)
				}
				for _, a := range e.Args {
					mark(a)
				}
				for _, inc := range e.Incomings {
					mark(inc.Val)
				}
			}
		}
		removed := 0
		for _, b := range f.Blocks {
			w := 0
			for r := range b.Insts {
				in := &b.Insts[r]
				if pure(in) && in.Dst != None && uint(in.Dst) < uint(len(used)) && !used[in.Dst] {
					removed++
					continue
				}
				if w != r {
					b.Insts[w] = *in
				}
				w++
			}
			b.Insts = b.Insts[:w]
		}
		if removed == 0 {
			return
		}
		clear(used)
	}
}

// ---- CFG simplification ----

// SimplifyCFG removes unreachable blocks, threads jumps through empty
// forwarding blocks, and merges single-successor/single-predecessor pairs.
//
// Labels are resolved to block indices once. The indices stay valid through
// all four steps because a removed block only leaves a nil hole in f.Blocks,
// closed in one sweep at the end.
func SimplifyCFG(f *Func) {
	n := len(f.Blocks)
	if n == 0 || n == 1 && !startsWithPhi(f.Blocks[0]) {
		return // a lone block without phis has nothing to remove, thread or merge
	}
	c := cfg{f: f, idx: make(map[string]int32, n)}
	for i, b := range f.Blocks {
		c.idx[b.Label] = int32(i)
	}
	tables := make([]int32, 3*n)
	c.fwd, c.predCnt, c.stack = tables[:n], tables[n:2*n], tables[2*n:2*n]
	c.reach = make([]bool, n)

	c.removeUnreachable()
	c.threadEmptyBlocks()
	c.mergeStraightPairs()
	c.removeUnreachable()

	kept := f.Blocks[:0]
	for _, b := range f.Blocks {
		if b != nil {
			kept = append(kept, b)
		}
	}
	clear(f.Blocks[len(kept):])
	f.Blocks = kept
}

// cfg is SimplifyCFG's view of a function: blocks by index (nil once
// removed) and per-block tables.
type cfg struct {
	f       *Func
	idx     map[string]int32 // label -> index in f.Blocks
	reach   []bool
	fwd     []int32 // threadEmptyBlocks: the block a forwarding block jumps to, or -1
	predCnt []int32 // mergeStraightPairs: CFG edges entering each block
	stack   []int32
}

func startsWithPhi(b *Block) bool { return len(b.Insts) > 0 && b.Insts[0].Op == Phi }

// succs returns the indices of the blocks b's terminator names: the first n
// of s. A label that names no block is skipped.
func (c *cfg) succs(b *Block) (s [2]int32, n int) {
	t := b.Terminator()
	if t == nil {
		return s, 0
	}
	add := func(label string) {
		if i, ok := c.idx[label]; ok && c.f.Blocks[i] != nil {
			s[n] = i
			n++
		}
	}
	switch t.Op {
	case Br:
		add(t.Sym)
	case CondBr:
		add(t.Sym)
		add(t.Else())
	}
	return s, n
}

func (c *cfg) removeUnreachable() {
	blocks := c.f.Blocks
	clear(c.reach)
	c.reach[0] = true
	c.stack = append(c.stack[:0], 0)
	for len(c.stack) > 0 {
		b := blocks[c.stack[len(c.stack)-1]]
		c.stack = c.stack[:len(c.stack)-1]
		succs, n := c.succs(b)
		for _, s := range succs[:n] {
			if !c.reach[s] {
				c.reach[s] = true
				c.stack = append(c.stack, s)
			}
		}
	}
	for i := range blocks {
		if !c.reach[i] {
			blocks[i] = nil
		}
	}
	// Prune phi incomings from removed predecessors.
	for _, b := range blocks {
		if b == nil {
			continue
		}
		for i := range b.Insts {
			in := &b.Insts[i]
			if in.Op != Phi {
				break // phis always come first
			}
			e := in.Ext
			if e == nil {
				continue
			}
			keptInc := e.Incomings[:0]
			for _, inc := range e.Incomings {
				if p, ok := c.idx[inc.Pred]; ok && c.reach[p] {
					keptInc = append(keptInc, inc)
				}
			}
			e.Incomings = keptInc
		}
	}
}

// threadEmptyBlocks redirects branches that target a block containing only
// "br X" to X directly, provided the final target has no phis (phi
// incomings would need repair).
func (c *cfg) threadEmptyBlocks() {
	blocks := c.f.Blocks
	nFwd := 0
	for i, b := range blocks {
		c.fwd[i] = -1
		if b == nil || len(b.Insts) != 1 || b.Insts[0].Op != Br {
			continue
		}
		if t, ok := c.idx[b.Insts[0].Sym]; ok && blocks[t] != nil && !startsWithPhi(blocks[t]) {
			c.fwd[i] = t
			nFwd++
		}
	}
	if nFwd == 0 {
		return
	}
	resolve := func(label string) string {
		l, ok := c.idx[label]
		if !ok || blocks[l] == nil {
			return label
		}
		// Bounded walk: a cycle of forwarding blocks is an empty infinite
		// loop and must stay one.
		for seen := 0; seen <= nFwd && c.fwd[l] >= 0; seen++ {
			l = c.fwd[l]
		}
		return blocks[l].Label
	}
	for _, b := range blocks {
		if b == nil {
			continue
		}
		t := b.Terminator()
		if t == nil {
			continue
		}
		switch t.Op {
		case Br:
			t.Sym = resolve(t.Sym)
		case CondBr:
			t.Sym = resolve(t.Sym)
			if t.Ext != nil {
				t.Ext.Else = resolve(t.Ext.Else)
			}
		}
	}
}

// mergeStraightPairs merges B into A when A ends "br B" and B's only
// predecessor is A. One forward scan suffices: a merge leaves every other
// block's predecessor count, phis and terminator as they were, so no block
// before A becomes mergeable, and A itself is retried with B's terminator.
func (c *cfg) mergeStraightPairs() {
	blocks := c.f.Blocks
	clear(c.predCnt)
	for _, b := range blocks {
		if b == nil {
			continue
		}
		succs, n := c.succs(b)
		for _, s := range succs[:n] {
			c.predCnt[s]++
		}
	}
	for ai := 0; ai < len(blocks); {
		a := blocks[ai]
		var t *Inst
		if a != nil {
			t = a.Terminator()
		}
		if t == nil || t.Op != Br {
			ai++
			continue
		}
		bi, ok := c.idx[t.Sym]
		if !ok || int(bi) == ai || blocks[bi] == nil || c.predCnt[bi] != 1 || startsWithPhi(blocks[bi]) {
			ai++
			continue
		}
		b := blocks[bi]
		// Splice B's instructions over A's terminator.
		a.Insts = append(a.Insts[:len(a.Insts)-1], b.Insts...)
		blocks[bi] = nil
		// Phi incomings naming B as pred now come from A; only B's
		// successors — now A's — can hold any.
		succs, n := c.succs(a)
		for _, s := range succs[:n] {
			blk := blocks[s]
			for i := range blk.Insts {
				in := &blk.Insts[i]
				if in.Op != Phi {
					break
				}
				for j, inc := range in.Incomings() {
					if inc.Pred == b.Label {
						in.Ext.Incomings[j].Pred = a.Label
					}
				}
			}
		}
	}
}

// ---- Function merging ----

// MergeStats reports what a merge did.
type MergeStats struct {
	Groups  int // sets of functions merged into one
	Removed int // functions deleted, net of the merged functions added
}

// MergeFunctions deduplicates structurally identical functions (LLVM's
// MergeFunctions pass — the 0.9% row of the paper's Table I): bodies that
// hash identically after value/label normalization are collapsed onto one
// representative and all call sites are rewritten.
func MergeFunctions(m *Module) MergeStats { return merge(m, nil, false) }

// MergeFunctionsKeeping is MergeFunctions with external linkage: functions
// named in keep may be referenced from outside the module (the per-module
// pipeline merges before the system link), so they can serve as a group's
// representative but are never deleted — only call sites inside m see the
// rewrite, and deleting a kept function would leave other modules calling
// an undefined symbol.
func MergeFunctionsKeeping(m *Module, keep map[string]bool) MergeStats {
	return merge(m, keep, false)
}

// MergeSimilarFunctions is the similar policy (Table I's FMSA row, in the
// exact-alignment form of an optimistic global function merger): it folds
// identical functions as MergeFunctionsKeeping does, and merges functions
// that differ only in integer constants into one body, named after the first
// with a "$fmsa" suffix, that takes the differing constants as trailing
// parameters every call site passes. A set merges only when that saves LLIR
// instructions: (members−1)·body + differing > differing · call sites. Main,
// address-taken and kept functions never merge this way: the merged body
// replaces every member, and only the module's own calls pass the constants.
func MergeSimilarFunctions(m *Module, keep map[string]bool) MergeStats {
	return merge(m, keep, true)
}

// redirect is where references to a deleted function go: to, with consts
// appended to a call's arguments.
type redirect struct {
	to     string
	consts []int64
}

func merge(m *Module, keep map[string]bool, similar bool) MergeStats {
	// Group the functions by structural key, hashing each once. The key is
	// exact — equal keys mean identical functions up to value and label
	// naming — so the map compares whole keys and no digest stands in for
	// them; only a key seen for the first time is copied out of the hasher's
	// buffer. Under the similar policy the key erases Const immediates, which
	// the hasher collects instead: a group is then one shape, and its members
	// with equal constants are identical.
	h := funcHasher{eraseConsts: similar}
	calls := make(map[string]int32)           // similar: call sites by callee
	taken := make(map[string]bool)            // similar: functions whose address is taken
	constOff := make([]int32, len(m.Funcs)+1) // by function: its constants in h.consts
	groupOf := make(map[string]int32)
	group := make([]int32, len(m.Funcs)) // by function: its group, -1 for main
	var size []int32                     // by group
	for i, f := range m.Funcs {
		group[i] = -1
		if f.Name != "main" {
			key := h.key(f)
			g, ok := groupOf[string(key)]
			if !ok {
				g = int32(len(size))
				groupOf[string(key)] = g
				size = append(size, 0)
			}
			group[i] = g
			size[g]++
		}
		constOff[i+1] = int32(len(h.consts))
		if !similar {
			continue
		}
		for _, b := range f.Blocks {
			for j := range b.Insts {
				if in := &b.Insts[j]; in.Op == Call {
					calls[in.Sym]++
				} else if in.Op == GlobalAddr {
					taken[in.Sym] = true
				}
			}
		}
	}
	consts := func(i int32) []int64 { return h.consts[constOff[i]:constOff[i+1]] }
	// Lay the groups out back to back, members (function indices) in module
	// order.
	off := make([]int32, len(size)+1)
	for g, n := range size {
		off[g+1] = off[g] + n
	}
	members := make([]int32, off[len(size)])
	for i := range m.Funcs {
		if g := group[i]; g >= 0 {
			members[off[g+1]-size[g]] = int32(i)
			size[g]--
		}
	}

	redirects := make(map[string]redirect)
	var added []*Func
	var stats MergeStats
	for g := range size {
		dups := members[off[g]:off[g+1]]
		if len(dups) < 2 {
			continue
		}
		// Members with equal constants are contiguous, and among them a kept
		// function is the preferred representative: the duplicates folded
		// into it then resolve to a symbol that survives the link.
		slices.SortFunc(dups, func(a, b int32) int {
			if c := slices.Compare(consts(a), consts(b)); c != 0 {
				return c
			}
			fa, fb := m.Funcs[a], m.Funcs[b]
			if keep[fa.Name] != keep[fb.Name] {
				if keep[fa.Name] {
					return -1
				}
				return 1
			}
			return strings.Compare(fa.Name, fb.Name)
		})
		var classes [][]int32 // similar: the sets of identical members that may merge
		for len(dups) > 0 {
			n := 1
			for n < len(dups) && slices.Equal(consts(dups[0]), consts(dups[n])) {
				n++
			}
			class := dups[:n]
			dups = dups[n:]
			rep := m.Funcs[class[0]]
			removed, mergeable := 0, similar && !keep[rep.Name]
			for _, i := range class {
				f := m.Funcs[i]
				mergeable = mergeable && !taken[f.Name]
				if f != rep && !keep[f.Name] {
					redirects[f.Name] = redirect{to: rep.Name}
					removed++
				}
			}
			if removed > 0 {
				stats.Groups++
				stats.Removed += removed
			}
			if mergeable {
				classes = append(classes, class)
			}
		}
		if len(classes) > 1 {
			if f := mergeSimilar(m, classes, consts, calls, redirects); f != nil {
				added = append(added, f)
				stats.Groups++
				stats.Removed += len(classes) - 1
			}
		}
	}
	if len(redirects) == 0 {
		return stats
	}
	kept := m.Funcs[:0]
	for _, f := range m.Funcs {
		if _, gone := redirects[f.Name]; gone {
			delete(m.funcIndex, f.Name)
			continue
		}
		kept = append(kept, f)
	}
	clear(m.Funcs[len(kept):])
	m.Funcs = kept
	for _, f := range added {
		m.AddFunc(f)
	}
	for _, f := range m.Funcs {
		redirectCalls(f, redirects)
	}
	return stats
}

// mergeSimilar merges classes, the distinct functions of one shape, each
// with the duplicates folded into it, into one parameterized function when
// that saves instructions, and redirects every member to it. It returns the
// merged function, or nil.
func mergeSimilar(m *Module, classes [][]int32, consts func(int32) []int64, calls map[string]int32, redirects map[string]redirect) *Func {
	rep, base := m.Funcs[classes[0][0]], consts(classes[0][0])
	differs := make([]bool, len(base))
	nDiff, sites := 0, 0
	for _, class := range classes {
		for _, i := range class {
			sites += int(calls[m.Funcs[i].Name])
		}
		for k, c := range consts(class[0]) {
			if c != base[k] && !differs[k] {
				differs[k] = true
				nDiff++
			}
		}
	}
	// Arguments travel in x0-x7. Every body but one goes, the constants
	// leave it, and every call site gains a Const per differing constant.
	if rep.NumParams+nDiff > 8 || (len(classes)-1)*rep.NumInsts()+nDiff <= nDiff*sites {
		return nil
	}
	merged := mergedFunc(rep, differs, nDiff)
	for _, class := range classes {
		extra := make([]int64, 0, nDiff)
		for k, c := range consts(class[0]) {
			if differs[k] {
				extra = append(extra, c)
			}
		}
		for _, i := range class {
			redirects[m.Funcs[i].Name] = redirect{to: merged.Name, consts: extra}
		}
	}
	return merged
}

// mergedFunc clones rep with the constants at the sites differs marks turned
// into fresh trailing parameters. Value ids above the old parameter range
// shift up to make room for them. The clone's records are its own.
func mergedFunc(rep *Func, differs []bool, nDiff int) *Func {
	to := make([]Value, rep.NumValues+1) // old value -> new value
	for v := range to {
		to[v] = Value(v)
		if v > rep.NumParams {
			to[v] += Value(nDiff)
		}
	}
	site, param := 0, Value(rep.NumParams)
	for _, b := range rep.Blocks {
		for i := range b.Insts {
			if in := &b.Insts[i]; in.Op == Const {
				if differs[site] {
					param++
					if uint(in.Dst) < uint(len(to)) {
						to[in.Dst] = param
					}
				}
				site++
			}
		}
	}
	res := func(v Value) Value {
		if uint(v) < uint(len(to)) {
			return to[v]
		}
		return v // only a malformed function has such a value
	}
	merged := &Func{
		Name:      rep.Name + "$fmsa",
		Module:    rep.Module,
		NumParams: rep.NumParams + nDiff,
		Throws:    rep.Throws,
		NumValues: rep.NumValues + nDiff,
	}
	site = 0
	for _, b := range rep.Blocks {
		nb := &Block{Label: b.Label, Insts: make([]Inst, 0, len(b.Insts))}
		for _, in := range b.Insts {
			if in.Op == Const {
				if site++; differs[site-1] {
					continue // now a parameter
				}
			}
			in.Dst, in.A, in.B = res(in.Dst), res(in.A), res(in.B)
			if e := in.Ext; e != nil {
				ne := &Ext{ErrDst: res(e.ErrDst), Else: e.Else, Args: slices.Clone(e.Args), Incomings: slices.Clone(e.Incomings)}
				for j := range ne.Args {
					ne.Args[j] = res(ne.Args[j])
				}
				for j := range ne.Incomings {
					ne.Incomings[j].Val = res(ne.Incomings[j].Val)
				}
				in.Ext = ne
			}
			nb.Insts = append(nb.Insts, in)
		}
		merged.Blocks = append(merged.Blocks, nb)
	}
	return merged
}

// redirectCalls points f's references to deleted functions at their
// replacements, in place where no constant is to be passed. A block with a
// call that must now pass constants gets a new instruction slice, sized
// once, with a Const before the call per constant, and the call a record of
// its own, so the slice and record it was copied from keep their operands.
func redirectCalls(f *Func, redirects map[string]redirect) {
	for _, b := range f.Blocks {
		extra := 0
		for i := range b.Insts {
			if in := &b.Insts[i]; in.Op == Call || in.Op == GlobalAddr {
				if r, ok := redirects[in.Sym]; ok && len(r.consts) == 0 {
					in.Sym = r.to
				} else if ok {
					extra += len(r.consts)
				}
			}
		}
		if extra == 0 {
			continue
		}
		out := make([]Inst, 0, len(b.Insts)+extra)
		for _, in := range b.Insts {
			if r, ok := redirects[in.Sym]; ok && in.Op == Call {
				var e Ext
				if in.Ext != nil {
					e = *in.Ext
				}
				e.Args = append(make([]Value, 0, len(e.Args)+len(r.consts)), e.Args...)
				for _, c := range r.consts {
					v := f.NewValue()
					out = append(out, Inst{Op: Const, Dst: v, Imm: c})
					e.Args = append(e.Args, v)
				}
				in.Sym, in.Ext = r.to, &e
			}
			out = append(out, in)
		}
		b.Insts = out
	}
}

// funcHasher renders functions into structural keys: value numbers and
// labels renamed in traversal order, so two functions differing only in
// naming or value numbering get equal keys. The key buffer and the renaming
// tables are reused from function to function.
type funcHasher struct {
	eraseConsts bool    // render every Const's immediate as 0: the similar policy's shape key
	consts      []int64 // eraseConsts: the erased immediates of every key so far, in order

	buf      []byte
	valNames []int32 // by value number: traversal-order name, 0 = not seen
	nVals    int32
	labNames map[string]int
}

// key returns f's key. The bytes are valid until the next call.
func (h *funcHasher) key(f *Func) []byte {
	h.valNames = zeroed(h.valNames, f.NumValues+1)
	h.nVals = 0
	if h.labNames == nil {
		h.labNames = make(map[string]int)
	}
	clear(h.labNames)

	b := h.buf[:0]
	b = append(b, 'p')
	b = strconv.AppendInt(b, int64(f.NumParams), 10)
	b = append(b, " t"...)
	b = strconv.AppendBool(b, f.Throws)
	b = append(b, ';')
	for i := 0; i < f.NumParams; i++ {
		h.valName(f.Param(i))
	}
	for _, blk := range f.Blocks {
		b = h.label(append(b, 'L'), blk.Label)
		b = append(b, ':')
		for i := range blk.Insts {
			in := &blk.Insts[i]
			b = strconv.AppendUint(b, uint64(in.Op), 10)
			b = h.value(append(b, '('), in.Dst)
			b = h.value(append(b, ','), in.A)
			b = h.value(append(b, ','), in.B)
			b = h.value(append(b, ','), in.ErrDst())
			imm := in.Imm
			if h.eraseConsts && in.Op == Const {
				h.consts = append(h.consts, imm)
				imm = 0
			}
			b = strconv.AppendInt(append(b, ','), imm, 10)
			b = strconv.AppendUint(append(b, ','), uint64(in.BinOp), 10)
			b = strconv.AppendUint(append(b, ','), uint64(in.Cond), 10)
			switch in.Op {
			case Call, GlobalAddr:
				b = append(append(b, ",@"...), in.Sym...)
			case Br:
				b = h.label(append(b, ",L"...), in.Sym)
			case CondBr:
				b = h.label(append(b, ",L"...), in.Sym)
				b = h.label(append(b, ",L"...), in.Else())
			}
			for _, a := range in.Args() {
				b = h.value(append(b, ",a"...), a)
			}
			for _, inc := range in.Incomings() {
				b = h.label(append(b, ",[L"...), inc.Pred)
				b = h.value(append(b, ':'), inc.Val)
				b = append(b, ']')
			}
			b = append(b, ");"...)
		}
	}
	h.buf = b
	return b
}

// valName returns v's traversal-order name, assigning the next one on first
// sight. None is 0. A value number past the function's declared range (which
// only a malformed function has) is reported by ok == false.
func (h *funcHasher) valName(v Value) (name int32, ok bool) {
	if v == None {
		return 0, true
	}
	if uint(v) >= uint(len(h.valNames)) {
		return 0, false
	}
	if h.valNames[v] == 0 {
		h.nVals++
		h.valNames[v] = h.nVals
	}
	return h.valNames[v], true
}

// value appends v's name. An out-of-range value is appended raw behind an
// 'x', which no name can start with: such functions only ever equal
// themselves up to naming of their in-range values, so the key stays exact.
func (h *funcHasher) value(b []byte, v Value) []byte {
	if name, ok := h.valName(v); ok {
		return strconv.AppendInt(b, int64(name), 10)
	}
	return strconv.AppendInt(append(b, 'x'), int64(v), 10)
}

func (h *funcHasher) label(b []byte, l string) []byte {
	id, ok := h.labNames[l]
	if !ok {
		id = len(h.labNames) + 1
		h.labNames[l] = id
	}
	return strconv.AppendInt(b, int64(id), 10)
}

// zeroed returns s resized to n zero elements, reusing s's backing array
// when it is large enough (and growing it with headroom when it is not, so a
// run of ever larger functions regrows it a logarithmic number of times).
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/2)
	}
	s = s[:n]
	clear(s)
	return s
}
