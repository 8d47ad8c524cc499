package llir

import (
	"fmt"
	"slices"

	"outliner/internal/sir"
)

// Runtime entry points the lowering emits calls to. The interpreter
// (internal/exec) implements them; the verifier and linker treat them as
// always-available externals.
const (
	RTRetain      = "swift_retain"
	RTRelease     = "swift_release"
	RTAllocObject = "swift_allocObject"
	RTAllocArray  = "swift_allocArray"
	RTArrayAppend = "swift_arrayAppend"
	RTPrintInt    = "print_int"
	RTPrintBool   = "print_bool"
	RTPrintStr    = "print_str"
)

// Objective-C flavoured modules use the objc runtime's reference counting
// entry points (appgen rewrites Swift modules' calls for its ObjC modules).
const (
	RTObjCRetain  = "objc_retain"
	RTObjCRelease = "objc_release"
)

// RuntimeSyms is the set of runtime symbols as a lookup table.
var RuntimeSyms = map[string]bool{
	RTRetain: true, RTRelease: true, RTAllocObject: true, RTAllocArray: true,
	RTArrayAppend: true, RTPrintInt: true, RTPrintBool: true, RTPrintStr: true,
	RTObjCRetain: true, RTObjCRelease: true,
}

// SwiftGCMetadata is the module-flag value our Swift-like frontend stamps,
// mirroring the "Objective-C Garbage Collection" flag of §VI-2.
const SwiftGCMetadata = "swift abi-v5.2 bits-0x17"

// FromSIR lowers a SIR module to LLIR, constructing SSA form with the
// algorithm of Braun et al. (the simple and efficient SSA construction used
// while translating from a non-SSA representation).
func FromSIR(m *sir.Module) (*Module, error) {
	return new(Lowerer).FromSIR(m)
}

// Lowerer lowers one module after another, the way a worker lane of a build
// does, keeping its SSA-construction tables from each module to the next. The
// modules it returns are its callers' alone: nothing in them points into the
// Lowerer or into the SIR they were lowered from, so the SIR's storage may be
// reused as soon as FromSIR returns. The zero value is ready to use. A
// Lowerer is not safe for concurrent use.
type Lowerer struct{ lo lowerer }

// FromSIR lowers m as the package-level FromSIR does.
func (l *Lowerer) FromSIR(m *sir.Module) (*Module, error) {
	out := NewModule(m.Name)
	out.Metadata["Objective-C Garbage Collection"] = SwiftGCMetadata
	for _, g := range m.Globals {
		words := append([]int64(nil), g.Words...)
		out.Globals = append(out.Globals, &Global{Name: g.Name, Module: m.Name, Words: words})
	}
	lo := &l.lo
	defer func() { lo.src, lo.dst = nil, nil }()
	for _, f := range m.Funcs {
		lf, err := lo.lowerFunc(f)
		if err != nil {
			return nil, fmt.Errorf("llir: lowering @%s: %w", f.Name, err)
		}
		out.AddFunc(lf)
	}
	return out, nil
}

// lowerer holds one function's SSA-construction state. Blocks are numbered
// once, in SIR order, and every table is a slice indexed by block number,
// SIR variable or LLIR value number; the slices keep their storage from one
// function to the next, across modules on a Lowerer. What the lowered
// function keeps — its instructions, argument lists, phi incomings and Ext
// records — is carved from fresh chunks the lowerer never reuses.
type lowerer struct {
	src *sir.Func
	dst *Func

	blockIdx map[string]int32 // SIR label -> block number
	blocks   []blockState
	predOff  []int32 // preds[predOff[b]:predOff[b+1]] are block b's predecessors
	preds    []int32

	// currentDef of Braun's construction: per SIR variable a chain of
	// (block, value) definitions, most recent first. A variable is defined
	// in few blocks, and almost every lookup asks for the block being
	// filled, whose entry heads the chain.
	defHead []int32 // by variable: index+1 into defs, 0 = undefined
	defs    []varDef

	phis     []Inst  // every phi of the function, in creation order
	phiBlock []int32 // aligned with phis: the block that owns it
	phiOf    []int32 // by LLIR value: index+1 into phis, 0 = not a phi
	pending  []pendingPhi
	sealBuf  []pendingPhi

	body        []Inst // block bodies back to back, in fill order
	entryConsts []Inst // zero constants for never-written variables, newest last
	caps        []Value

	// Output chunks (see newVals / newIncomings / newExt).
	valChunk []Value
	incChunk []Incoming
	extChunk []Ext

	// assemble's grouping of phis by block.
	phiOrder []int32
	phiOff   []int32

	// removeTrivialPhis' substitution, by LLIR value, and the values it set.
	subst     []Value
	substKeys []Value
}

type varDef struct {
	block int32
	val   Value
	next  int32 // index+1 into defs
}

// pendingPhi is an operand-less phi created in a block that was not sealed
// yet, chained per block.
type pendingPhi struct {
	variable sir.Value
	phi      Value
	next     int32 // index+1 into pending
}

type blockState struct {
	sealed, filled     bool
	pendingHead        int32 // index+1 into lowerer.pending
	bodyStart, bodyEnd int32 // window of lowerer.body
}

func (lo *lowerer) lowerFunc(f *sir.Func) (*Func, error) {
	lo.src = f
	lo.dst = &Func{
		Name:      f.Name,
		Module:    f.Module,
		NumParams: f.NumParams,
		Throws:    f.Throws,
		NumValues: f.NumParams,
	}
	nb := len(f.Blocks)
	if lo.blockIdx == nil {
		lo.blockIdx = make(map[string]int32)
	}
	clear(lo.blockIdx)
	for i, b := range f.Blocks {
		lo.blockIdx[b.Label] = int32(i)
	}
	lo.blocks = zeroed(lo.blocks, nb)
	lo.defHead = zeroed(lo.defHead, f.NumValues+1)
	lo.defs = lo.defs[:0]
	lo.phis, lo.phiBlock = lo.phis[:0], lo.phiBlock[:0]
	lo.phiOf = lo.phiOf[:0]
	lo.pending = lo.pending[:0]
	lo.body, lo.entryConsts = lo.body[:0], lo.entryConsts[:0]

	// Predecessors from the SIR CFG, grouped by target block.
	off := zeroed(lo.predOff, nb+1)
	lo.predOff = off
	nSucc := 0
	for _, b := range f.Blocks {
		succs, n := blockSuccs(b)
		for _, s := range succs[:n] {
			t, ok := lo.blockIdx[s]
			if !ok {
				return nil, fmt.Errorf("block %s branches to unknown block %s", b.Label, s)
			}
			off[t+1]++
			nSucc++
		}
	}
	for b := 0; b < nb; b++ {
		off[b+1] += off[b]
	}
	lo.preds = zeroed(lo.preds, nSucc)
	for bi, b := range f.Blocks {
		succs, n := blockSuccs(b)
		for _, s := range succs[:n] {
			t := lo.blockIdx[s]
			lo.preds[off[t]] = int32(bi)
			off[t]++
		}
	}
	// The fill advanced off[b] to the end of b's group: shift back down.
	copy(off[1:], off[:nb])
	off[0] = 0

	// Parameters are SSA values 1..N, defined at entry.
	for i := 0; i < f.NumParams; i++ {
		lo.writeVar(sir.Value(i+1), 0, Value(i+1))
	}
	lo.trySeal(0)

	for bi, b := range f.Blocks {
		if err := lo.fillBlock(int32(bi), b); err != nil {
			return nil, err
		}
		lo.blocks[bi].filled = true
		// Seal successors whose predecessors are all filled.
		succs, n := blockSuccs(b)
		for _, s := range succs[:n] {
			lo.trySeal(lo.blockIdx[s])
		}
		lo.trySeal(int32(bi))
	}
	// Seal anything left (blocks with unreachable predecessors).
	for bi := range f.Blocks {
		lo.seal(int32(bi))
	}

	lo.assemble()
	lo.removeTrivialPhis()
	return lo.dst, nil
}

// assemble builds the function's blocks — phis first, then the body — as
// windows into one instruction slab.
func (lo *lowerer) assemble() {
	nb := len(lo.src.Blocks)
	// Group the phis by owning block, keeping creation order.
	off := zeroed(lo.phiOff, nb+1)
	lo.phiOff = off
	for _, b := range lo.phiBlock {
		off[b+1]++
	}
	for b := 0; b < nb; b++ {
		off[b+1] += off[b]
	}
	order := zeroed(lo.phiOrder, len(lo.phis))
	lo.phiOrder = order
	for i, b := range lo.phiBlock {
		order[off[b]] = int32(i)
		off[b]++
	}
	// off[b] is now the end of b's group.

	slab := make([]Inst, 0, len(lo.phis)+len(lo.entryConsts)+len(lo.body))
	blocks := make([]Block, nb)
	lo.dst.Blocks = make([]*Block, nb)
	at := int32(0)
	for bi, b := range lo.src.Blocks {
		start := len(slab)
		for _, pi := range order[at:off[bi]] {
			slab = append(slab, lo.phis[pi])
		}
		at = off[bi]
		if bi == 0 {
			for i := len(lo.entryConsts) - 1; i >= 0; i-- {
				slab = append(slab, lo.entryConsts[i])
			}
		}
		bs := &lo.blocks[bi]
		slab = append(slab, lo.body[bs.bodyStart:bs.bodyEnd]...)
		blocks[bi] = Block{Label: b.Label, Insts: slab[start:len(slab):len(slab)]}
		lo.dst.Blocks[bi] = &blocks[bi]
	}
}

// blockSuccs returns the labels b's terminator names: the first n of succs.
func blockSuccs(b *sir.Block) (succs [2]string, n int) {
	last := &b.Insts[len(b.Insts)-1]
	switch last.Op {
	case sir.Br:
		return [2]string{last.Sym}, 1
	case sir.CondBr:
		return [2]string{last.Sym, last.Sym2}, 2
	}
	return succs, 0
}

func (lo *lowerer) predsOf(block int32) []int32 {
	return lo.preds[lo.predOff[block]:lo.predOff[block+1]]
}

func (lo *lowerer) trySeal(block int32) {
	if lo.blocks[block].sealed {
		return
	}
	for _, p := range lo.predsOf(block) {
		if !lo.blocks[p].filled {
			return
		}
	}
	lo.seal(block)
}

func (lo *lowerer) seal(block int32) {
	bs := &lo.blocks[block]
	if bs.sealed {
		return
	}
	bs.sealed = true
	// addPhiOperands can allocate fresh values (new phis in predecessors),
	// so the iteration order here decides value numbering: ascending
	// variable, whatever order the reads came in.
	todo := lo.sealBuf[:0]
	for e := bs.pendingHead; e != 0; e = lo.pending[e-1].next {
		todo = append(todo, lo.pending[e-1])
	}
	bs.pendingHead = 0
	slices.SortFunc(todo, func(a, b pendingPhi) int { return int(a.variable - b.variable) })
	lo.sealBuf = todo[:0]
	for _, p := range todo {
		lo.addPhiOperands(p.variable, p.phi, block)
	}
}

func (lo *lowerer) writeVar(variable sir.Value, block int32, val Value) {
	if int(variable) >= len(lo.defHead) {
		lo.defHead = append(lo.defHead, make([]int32, int(variable)+1-len(lo.defHead))...)
	}
	for e := lo.defHead[variable]; e != 0; e = lo.defs[e-1].next {
		if d := &lo.defs[e-1]; d.block == block {
			d.val = val
			return
		}
	}
	lo.defs = append(lo.defs, varDef{block: block, val: val, next: lo.defHead[variable]})
	lo.defHead[variable] = int32(len(lo.defs))
}

func (lo *lowerer) readVar(variable sir.Value, block int32) Value {
	if int(variable) < len(lo.defHead) {
		for e := lo.defHead[variable]; e != 0; e = lo.defs[e-1].next {
			if d := &lo.defs[e-1]; d.block == block {
				return d.val
			}
		}
	}
	return lo.readVarRecursive(variable, block)
}

func (lo *lowerer) readVarRecursive(variable sir.Value, block int32) Value {
	var val Value
	preds := lo.predsOf(block)
	switch {
	case !lo.blocks[block].sealed:
		val = lo.newPhi(block)
		lo.pending = append(lo.pending, pendingPhi{variable: variable, phi: val, next: lo.blocks[block].pendingHead})
		lo.blocks[block].pendingHead = int32(len(lo.pending))
	case len(preds) == 1:
		val = lo.readVar(variable, preds[0])
	case len(preds) == 0:
		// Read of a variable never written on this path: materialize zero
		// at the top of the entry block. SwiftLite locals are always
		// initialized before use, but registers reused across short-circuit
		// arms can reach here.
		val = lo.dst.NewValue()
		lo.entryConsts = append(lo.entryConsts, Inst{Op: Const, Dst: val, Imm: 0})
	default:
		val = lo.newPhi(block)
		lo.writeVar(variable, block, val)
		lo.addPhiOperands(variable, val, block)
	}
	lo.writeVar(variable, block, val)
	return val
}

func (lo *lowerer) newPhi(block int32) Value {
	dst := lo.dst.NewValue()
	lo.phis = append(lo.phis, Inst{Op: Phi, Dst: dst})
	lo.phiBlock = append(lo.phiBlock, block)
	if int(dst) >= len(lo.phiOf) {
		lo.phiOf = append(lo.phiOf, make([]int32, int(dst)+1-len(lo.phiOf))...)
	}
	lo.phiOf[dst] = int32(len(lo.phis))
	return dst
}

func (lo *lowerer) addPhiOperands(variable sir.Value, phiDst Value, block int32) {
	preds := lo.predsOf(block)
	incs := lo.newIncomings(len(preds))
	for _, p := range preds {
		// Reading the predecessor can create further phis, moving lo.phis:
		// the phi is addressed by index only after the loop.
		incs = append(incs, Incoming{Pred: lo.src.Blocks[p].Label, Val: lo.readVar(variable, p)})
	}
	lo.phis[lo.phiOf[phiDst]-1].Ext = lo.newExt(Ext{Incomings: incs})
}

// newVals returns an empty argument list of capacity n carved from a chunk
// the lowered function will own: one allocation serves many instructions.
// The capacity is exact, so a later append cannot reach a neighbour.
func (lo *lowerer) newVals(n int) []Value {
	if len(lo.valChunk) < n {
		lo.valChunk = make([]Value, max(n, 512))
	}
	s := lo.valChunk[:0:n]
	lo.valChunk = lo.valChunk[n:]
	return s
}

// newIncomings is newVals for phi incoming lists.
func (lo *lowerer) newIncomings(n int) []Incoming {
	if len(lo.incChunk) < n {
		lo.incChunk = make([]Incoming, max(n, 128))
	}
	s := lo.incChunk[:0:n]
	lo.incChunk = lo.incChunk[n:]
	return s
}

// newExt returns e as a record carved from a chunk the lowered function will
// own, or nil when e holds nothing (Inst.Ext's invariant).
func (lo *lowerer) newExt(e Ext) *Ext {
	if e.ErrDst == None && e.Else == "" && len(e.Args) == 0 && len(e.Incomings) == 0 {
		return nil
	}
	if len(lo.extChunk) == 0 {
		lo.extChunk = make([]Ext, 128)
	}
	p := &lo.extChunk[0]
	*p = e
	lo.extChunk = lo.extChunk[1:]
	return p
}

func (lo *lowerer) emit(in Inst) { lo.body = append(lo.body, in) }

// def allocates the SSA value a write of variable v in block produces.
func (lo *lowerer) def(v sir.Value, block int32) Value {
	nv := lo.dst.NewValue()
	lo.writeVar(v, block, nv)
	return nv
}

func (lo *lowerer) cnst(imm int64) Value {
	v := lo.dst.NewValue()
	lo.emit(Inst{Op: Const, Dst: v, Imm: imm})
	return v
}

// readArgs appends the current values of args to dst, in order.
func (lo *lowerer) readArgs(dst []Value, args []sir.Value, block int32) []Value {
	for _, a := range args {
		dst = append(dst, lo.readVar(a, block))
	}
	return dst
}

// arg1 is the record of a runtime call's one-element argument list.
func (lo *lowerer) arg1(v Value) *Ext { return lo.newExt(Ext{Args: append(lo.newVals(1), v)}) }

// fillBlock translates one SIR block.
func (lo *lowerer) fillBlock(label int32, b *sir.Block) error {
	lo.blocks[label].bodyStart = int32(len(lo.body))
	read := func(v sir.Value) Value { return lo.readVar(v, label) }
	def := func(v sir.Value) Value { return lo.def(v, label) }
	emit, cnst := lo.emit, lo.cnst
	readArgs := func(args []sir.Value) []Value { return lo.readArgs(lo.newVals(len(args)), args, label) }

	for i := range b.Insts {
		in := &b.Insts[i]
		switch in.Op {
		case sir.ConstInt:
			emit(Inst{Op: Const, Dst: def(in.Dst), Imm: in.Imm})
		case sir.ConstStr:
			emit(Inst{Op: GlobalAddr, Dst: def(in.Dst), Sym: in.Sym})
		case sir.ConstNil:
			emit(Inst{Op: Const, Dst: def(in.Dst), Imm: 0})
		case sir.Move:
			lo.writeVar(in.Dst, label, read(in.A)) // pure renaming in SSA
		case sir.Bin:
			a, bv := read(in.A), read(in.B)
			emit(Inst{Op: Bin, Dst: def(in.Dst), BinOp: BinKind(in.BinOp), A: a, B: bv})
		case sir.Cmp:
			a, bv := read(in.A), read(in.B)
			emit(Inst{Op: Cmp, Dst: def(in.Dst), Cond: CondKind(in.Cond), A: a, B: bv})
		case sir.Not:
			emit(Inst{Op: Not, Dst: def(in.Dst), A: read(in.A)})
		case sir.Neg:
			emit(Inst{Op: Neg, Dst: def(in.Dst), A: read(in.A)})
		case sir.Br:
			emit(Inst{Op: Br, Sym: in.Sym})
		case sir.CondBr:
			emit(Inst{Op: CondBr, A: read(in.A), Sym: in.Sym, Ext: lo.newExt(Ext{Else: in.Sym2})})
		case sir.Call:
			call := Inst{Op: Call, Sym: in.Sym, Throws: in.Throws}
			ext := Ext{Args: readArgs(in.Args)}
			if in.Dst != sir.None {
				call.Dst = def(in.Dst)
			}
			if in.Throws {
				ext.ErrDst = def(in.ErrDst)
			}
			call.Ext = lo.newExt(ext)
			emit(call)
		case sir.CallClosure:
			clo := read(in.A)
			fp := lo.dst.NewValue()
			emit(Inst{Op: Load, Dst: fp, A: clo, Imm: 8})
			args := append(lo.newVals(1+len(in.Args)), clo)
			call := Inst{Op: CallInd, A: fp, Ext: lo.newExt(Ext{Args: lo.readArgs(args, in.Args, label)})}
			if in.Dst != sir.None {
				call.Dst = def(in.Dst)
			}
			emit(call)
		case sir.Ret:
			ret := Inst{Op: Ret, A: read(in.A)}
			if lo.src.Throws {
				ret.B = cnst(0)
			}
			emit(ret)
		case sir.RetVoid:
			ret := Inst{Op: Ret}
			if lo.src.Throws {
				ret.B = cnst(0)
			}
			emit(ret)
		case sir.Throw:
			emit(Inst{Op: Ret, B: read(in.A)})
		case sir.Retain:
			emit(Inst{Op: Call, Sym: RTRetain, Ext: lo.arg1(read(in.A))})
		case sir.Release:
			emit(Inst{Op: Call, Sym: RTRelease, Ext: lo.arg1(read(in.A))})
		case sir.AllocObject:
			n := cnst(in.Imm)
			emit(Inst{Op: Call, Sym: RTAllocObject, Dst: def(in.Dst), Ext: lo.arg1(n)})
		case sir.FieldGet:
			emit(Inst{Op: Load, Dst: def(in.Dst), A: read(in.A), Imm: 8 * (1 + in.Imm)})
		case sir.FieldSet:
			a, bv := read(in.A), read(in.B)
			emit(Inst{Op: Store, A: a, Imm: 8 * (1 + in.Imm), B: bv})
		case sir.AllocArray:
			emit(Inst{Op: Call, Sym: RTAllocArray, Dst: def(in.Dst), Ext: lo.arg1(read(in.A))})
		case sir.ArrayGet:
			addr := lo.arrayAddr(read(in.A), read(in.B))
			emit(Inst{Op: Load, Dst: def(in.Dst), A: addr, Imm: 16})
		case sir.ArraySet:
			addr := lo.arrayAddr(read(in.A), read(in.B))
			emit(Inst{Op: Store, A: addr, Imm: 16, B: read(in.C)})
		case sir.ArrayLen:
			emit(Inst{Op: Load, Dst: def(in.Dst), A: read(in.A), Imm: 8})
		case sir.StrGet:
			addr := lo.arrayAddr(read(in.A), read(in.B))
			emit(Inst{Op: Load, Dst: def(in.Dst), A: addr, Imm: 8})
		case sir.StrLen:
			emit(Inst{Op: Load, Dst: def(in.Dst), A: read(in.A), Imm: 0})
		case sir.Append:
			a, bv := read(in.A), read(in.B)
			emit(Inst{Op: Call, Sym: RTArrayAppend, Dst: def(in.Dst), Ext: lo.newExt(Ext{Args: append(lo.newVals(2), a, bv)})})
		case sir.MakeClosure:
			lo.caps = lo.readArgs(lo.caps[:0], in.Args, label)
			n := cnst(int64(1 + len(in.Args)))
			p := def(in.Dst)
			emit(Inst{Op: Call, Sym: RTAllocObject, Dst: p, Ext: lo.arg1(n)})
			fa := lo.dst.NewValue()
			emit(Inst{Op: GlobalAddr, Dst: fa, Sym: in.Sym})
			emit(Inst{Op: Store, A: p, Imm: 8, B: fa})
			for i, cv := range lo.caps {
				emit(Inst{Op: Store, A: p, Imm: int64(16 + 8*i), B: cv})
			}
		case sir.PrintInt:
			emit(Inst{Op: Call, Sym: RTPrintInt, Ext: lo.arg1(read(in.A))})
		case sir.PrintBool:
			emit(Inst{Op: Call, Sym: RTPrintBool, Ext: lo.arg1(read(in.A))})
		case sir.PrintStr:
			emit(Inst{Op: Call, Sym: RTPrintStr, Ext: lo.arg1(read(in.A))})
		case sir.Unreachable:
			emit(Inst{Op: Unreachable})
		default:
			return fmt.Errorf("unhandled SIR op %d", in.Op)
		}
	}
	lo.blocks[label].bodyEnd = int32(len(lo.body))
	return nil
}

// arrayAddr computes base + 8*index, emitting into the current block.
func (lo *lowerer) arrayAddr(base, index Value) Value {
	eight := lo.dst.NewValue()
	lo.emit(Inst{Op: Const, Dst: eight, Imm: 8})
	off := lo.dst.NewValue()
	lo.emit(Inst{Op: Bin, Dst: off, BinOp: Mul, A: index, B: eight})
	addr := lo.dst.NewValue()
	lo.emit(Inst{Op: Bin, Dst: addr, BinOp: Add, A: base, B: off})
	return addr
}

// removeTrivialPhis iteratively removes phis whose incomings are all the
// same value (or the phi itself), rewriting uses.
func (lo *lowerer) removeTrivialPhis() {
	f := lo.dst
	subst := zeroed(lo.subst, f.NumValues+1) // None = not substituted
	lo.subst = subst
	keys := lo.substKeys[:0]
	for {
		for _, b := range f.Blocks {
			kept := b.Insts[:0]
			for _, in := range b.Insts {
				if in.Op != Phi {
					kept = append(kept, in)
					continue
				}
				var same Value
				trivial := true
				for _, inc := range in.Incomings() {
					if inc.Val == in.Dst || inc.Val == same {
						continue
					}
					if same == None {
						same = inc.Val
						continue
					}
					trivial = false
					break
				}
				if trivial {
					if same == None {
						same = in.Dst // degenerate: keep as-is, drops below
					}
					subst[in.Dst] = same
					keys = append(keys, in.Dst)
					continue
				}
				kept = append(kept, in)
			}
			b.Insts = kept
		}
		if len(keys) == 0 {
			lo.substKeys = keys
			return
		}
		resolve := func(v Value) Value {
			// Bounded walk: mutually-trivial phi pairs (possible around
			// unreachable loops) would otherwise cycle forever.
			for steps := 0; steps <= len(keys); steps++ {
				nv := subst[v]
				if nv == None || nv == v {
					return v
				}
				v = nv
			}
			return v
		}
		for _, b := range f.Blocks {
			for i := range b.Insts {
				in := &b.Insts[i]
				in.A = resolve(in.A)
				in.B = resolve(in.B)
				if e := in.Ext; e != nil {
					for j := range e.Args {
						e.Args[j] = resolve(e.Args[j])
					}
					for j := range e.Incomings {
						e.Incomings[j].Val = resolve(e.Incomings[j].Val)
					}
				}
			}
		}
		for _, k := range keys {
			subst[k] = None
		}
		keys = keys[:0]
	}
}
