package sir

import (
	"fmt"

	"outliner/internal/frontend"
)

// Generate lowers a type-checked module to SIR. This is the SILGen analog:
// it inserts retain/release reference-counting traffic, lowers closures to
// context-passing functions, expands throwing calls into explicit
// error-channel checks, and — for throwing initializers — emits the shared
// cleanup block with per-field initialization flags whose phis later explode
// into the out-of-SSA copies of the paper's Figure 9 / Listing 11.
//
// The module's instructions and argument lists are allocated for it alone,
// so it may be kept as long as the caller likes.
func Generate(prog *frontend.Program) (*Module, error) {
	return new(generator).generate(prog)
}

// Generator generates one module after another, the way a worker lane of a
// build lowers its modules: the buffers a function is assembled in, and the
// chunks its instruction slab and argument lists are carved from, are kept
// and reused for the next module. A module it returns is valid until its next
// Generate, which overwrites that module's instructions and argument lists;
// nothing that outlives it may point into them. The zero value is ready to
// use. A Generator is not safe for concurrent use.
type Generator struct{ g generator }

// Generate lowers prog as the package-level Generate does, into the
// Generator's storage.
func (gen *Generator) Generate(prog *frontend.Program) (*Module, error) {
	gen.g.insts.reuse, gen.g.args.reuse = true, true
	return gen.g.generate(prog)
}

// generate lowers prog with g's buffers rewound, whatever a previous module
// that failed halfway left in them.
func (g *generator) generate(prog *frontend.Program) (*Module, error) {
	g.prog, g.mod = prog, NewModule(prog.Module)
	if g.strSyms == nil {
		g.strSyms, g.thunks = make(map[string]string), make(map[string]string)
	}
	clear(g.strSyms)
	clear(g.thunks)
	g.strSeq, g.closSeq = 0, 0
	g.labels, g.lastOp = g.labels[:0], g.lastOp[:0]
	g.body, g.bodyBlk, g.argStack = g.body[:0], g.bodyBlk[:0], g.argStack[:0]
	g.insts.rewind()
	g.args.rewind()
	// The generator keeps no reference to the program or the module past
	// this call: the caller decides how long each lives.
	defer func() { g.prog, g.mod, g.fn = nil, nil, nil }()
	for _, name := range prog.FuncOrder {
		fd := prog.Funcs[name]
		if err := g.genFunc(name, fd); err != nil {
			return nil, err
		}
	}
	return g.mod, nil
}

type localInfo struct {
	val   Value
	isRef bool
}

type genScope struct {
	vars    map[string]localInfo
	cleanup []Value // ref locals to release on scope exit
}

type loopCtx struct {
	breakLabel    string
	continueLabel string
	scopeDepth    int
}

// errCtx says where a raised error goes.
type errCtx struct {
	// catchLabel is the catch block of an enclosing do; empty means the
	// error propagates out of the (throwing) function.
	catchLabel string
	errLocal   Value // receives the raw error value for the catch
	scopeDepth int
	// initCleanup is the shared cleanup label of a throwing init
	// (Figure 9's block L); non-empty only inside such inits.
	initCleanup string
}

type generator struct {
	prog    *frontend.Program
	mod     *Module
	strSyms map[string]string // literal -> global symbol
	strSeq  int
	closSeq int
	thunks  map[string]string // function name -> thunk symbol

	fn     *Func
	cur    int32 // ordinal of the block being filled
	blocks int   // label sequence number within fn
	scopes []*genScope
	loops  []loopCtx
	errs   []errCtx
	temps  []Value // owned ref temporaries pending release in this statement

	// Throwing-init state.
	selfVal    Value
	curClass   *frontend.ClassDecl
	initFlags  map[int]Value // ref-field index -> flag local
	initErrVal Value

	// The function being generated, laid out the way llir's lowerer does it:
	// every block is an ordinal into labels and lastOp, and every instruction
	// is appended to body with its block's ordinal in bodyBlk, whatever order
	// the blocks are filled in. finish sorts fn's share of body into one
	// exact slab. A closure or thunk generated in the middle of a function
	// appends after its parent's blocks and instructions (from base and mark)
	// and finish truncates back, so one set of buffers serves the module.
	labels  []string
	lastOp  []Op
	body    []Inst
	bodyBlk []int32
	base    int32 // fn's first block ordinal
	mark    int   // fn's first body index
	off     []int32
	// argStack holds the argument lists of the calls being generated, the
	// innermost on top; emit copies a list into args.
	argStack []Value

	// What the module keeps: each function's instruction slab and each
	// instruction's argument list.
	insts slabs[Inst]
	args  slabs[Value]
}

// slabs hands out windows of exact capacity, so an append to one reallocates
// instead of reaching its neighbour. Without reuse each window is an
// allocation of its own. With reuse (a Generator's) windows are carved from
// chunks the generator keeps: the first chunk is exactly the first request and
// each later one twice the size of the one before, so a generator that
// lowers one small module allocates about what exact slabs would, and rewind
// hands the same chunks out again for the next module.
type slabs[T any] struct {
	reuse  bool
	chunks [][]T
	cur    int // the chunk being carved
	used   int // elements of it handed out
}

func (s *slabs[T]) take(n int) []T {
	if !s.reuse {
		return make([]T, n)
	}
	for s.cur < len(s.chunks) && len(s.chunks[s.cur])-s.used < n {
		s.cur, s.used = s.cur+1, 0
	}
	if s.cur == len(s.chunks) {
		size := n
		if k := len(s.chunks); k > 0 {
			size = max(n, 2*len(s.chunks[k-1]))
		}
		s.chunks = append(s.chunks, make([]T, size))
	}
	w := s.chunks[s.cur][s.used : s.used+n : s.used+n]
	s.used += n
	return w
}

func (s *slabs[T]) rewind() { s.cur, s.used = 0, 0 }

func (g *generator) errf(line int, format string, args ...any) error {
	return fmt.Errorf("%s:%d: sirgen: %s", g.mod.Name, line, fmt.Sprintf(format, args...))
}

// ---- block and instruction plumbing ----

// begin starts generating fn at its entry block. It does not reset the
// rest of the generator's per-function state; the caller does.
func (g *generator) begin(fn *Func) {
	g.fn = fn
	g.blocks = 0
	g.base, g.mark = int32(len(g.labels)), len(g.body)
	g.setBlock(g.addBlock("entry"))
}

// newBlock adds a block labeled hint plus the function's next sequence
// number and returns its ordinal.
func (g *generator) newBlock(hint string) int32 {
	g.blocks++
	return g.addBlock(fmt.Sprintf("%s%d", hint, g.blocks))
}

func (g *generator) addBlock(label string) int32 {
	g.labels = append(g.labels, label)
	g.lastOp = append(g.lastOp, BadOp)
	return int32(len(g.labels) - 1)
}

func (g *generator) label(b int32) string { return g.labels[b] }

func (g *generator) setBlock(b int32) { g.cur = b }

func (g *generator) emit(in Inst) {
	if g.terminated() {
		// Dead code after a terminator (e.g. statements after return):
		// divert to an unreachable block so the IR stays well formed.
		g.setBlock(g.newBlock("dead"))
	}
	if len(in.Args) > 0 {
		args := g.args.take(len(in.Args))
		copy(args, in.Args)
		in.Args = args
	} else {
		in.Args = nil // not a window into argStack
	}
	g.body = append(g.body, in)
	g.bodyBlk = append(g.bodyBlk, g.cur)
	g.lastOp[g.cur] = in.Op
}

func (g *generator) terminated() bool { return g.lastOp[g.cur].IsTerminator() }

// finish lays the function's instructions out block by block in one slab of
// exactly their number, taken from g.insts, each block a window capped at its
// own length (as llir's assemble does, so an append to one block reallocates
// instead of reaching the next), adds the function to the module, and
// truncates the buffers back to where it began.
func (g *generator) finish() {
	fn, labels := g.fn, g.labels[g.base:]
	body, tags := g.body[g.mark:], g.bodyBlk[g.mark:]
	nb := len(labels)
	if cap(g.off) < nb+1 {
		g.off = make([]int32, nb+1)
	}
	off := g.off[:nb+1]
	clear(off)
	for _, b := range tags {
		off[b-g.base+1]++
	}
	for b := 0; b < nb; b++ {
		off[b+1] += off[b]
	}
	slab := g.insts.take(len(body))
	for i, b := range tags {
		b -= g.base
		slab[off[b]] = body[i]
		off[b]++
	}
	// off[b] is now the end of b's window.
	blocks := make([]Block, nb)
	fn.Blocks = make([]*Block, nb)
	start := int32(0)
	for b, end := range off[:nb] {
		blocks[b] = Block{Label: labels[b], Insts: slab[start:end:end]}
		fn.Blocks[b] = &blocks[b]
		start = end
	}
	g.mod.AddFunc(fn)
	g.labels, g.lastOp = g.labels[:g.base], g.lastOp[:g.base]
	g.body, g.bodyBlk = g.body[:g.mark], g.bodyBlk[:g.mark]
}

func (g *generator) emitConst(v int64) Value {
	dst := g.fn.NewValue()
	g.emit(Inst{Op: ConstInt, Dst: dst, Imm: v})
	return dst
}

// ---- scopes, locals, cleanup ----

func (g *generator) pushScope() {
	g.scopes = append(g.scopes, &genScope{vars: make(map[string]localInfo)})
}

// popScope emits releases for the scope's ref locals and drops the scope.
func (g *generator) popScope() {
	sc := g.scopes[len(g.scopes)-1]
	if !g.terminated() {
		g.emitScopeReleases(sc)
	}
	g.scopes = g.scopes[:len(g.scopes)-1]
}

func (g *generator) emitScopeReleases(sc *genScope) {
	for i := len(sc.cleanup) - 1; i >= 0; i-- {
		g.emit(Inst{Op: Release, A: sc.cleanup[i]})
	}
}

// emitCleanupDownTo releases ref locals of all scopes deeper than depth
// without popping them (for early exits: return, break, error edges).
func (g *generator) emitCleanupDownTo(depth int) {
	for i := len(g.scopes) - 1; i >= depth; i-- {
		g.emitScopeReleases(g.scopes[i])
	}
}

func (g *generator) define(name string, v Value, isRef bool) {
	sc := g.scopes[len(g.scopes)-1]
	sc.vars[name] = localInfo{val: v, isRef: isRef}
	if isRef {
		sc.cleanup = append(sc.cleanup, v)
	}
}

func (g *generator) lookup(name string) (localInfo, bool) {
	for i := len(g.scopes) - 1; i >= 0; i-- {
		if li, ok := g.scopes[i].vars[name]; ok {
			return li, true
		}
	}
	return localInfo{}, false
}

// ---- string constants ----

func (g *generator) strConst(s string) string {
	if sym, ok := g.strSyms[s]; ok {
		return sym
	}
	sym := fmt.Sprintf("str.%s.%d", g.mod.Name, g.strSeq)
	g.strSeq++
	words := make([]int64, 0, len(s)+1)
	words = append(words, int64(len(s)))
	for _, ch := range s {
		words = append(words, int64(ch))
	}
	g.mod.Globals = append(g.mod.Globals, &Global{Name: sym, Module: g.mod.Name, Words: words})
	g.strSyms[s] = sym
	return sym
}

// ---- function generation ----

func (g *generator) genFunc(sym string, fd *frontend.FuncDecl) error {
	fn := &Func{Name: sym, Module: g.mod.Name, Throws: fd.Throws}
	g.scopes = nil
	g.loops = nil
	g.errs = nil
	g.temps = nil
	g.selfVal = None
	g.curClass = nil
	g.initFlags = nil
	g.initErrVal = None

	isMethod := fd.Class != "" && !fd.IsInit
	if fd.Class != "" {
		g.curClass = g.prog.Classes[fd.Class]
	}

	// Parameter layout: methods get self first.
	nParams := len(fd.Params)
	if isMethod {
		nParams++
	}
	fn.NumParams = nParams
	fn.NumValues = nParams
	fn.RefParams = make([]bool, nParams)

	g.begin(fn)
	g.pushScope()

	idx := 0
	if isMethod {
		fn.RefParams[0] = true
		// self is a borrowed parameter; not released at scope end.
		g.selfVal = fn.Param(0)
		g.scopes[0].vars["self"] = localInfo{val: g.selfVal, isRef: true}
		idx = 1
	}
	for i, p := range fd.Params {
		v := fn.Param(idx + i)
		fn.RefParams[idx+i] = p.Type.IsRef()
		// Parameters are +0 borrows: visible but not in cleanup lists.
		g.scopes[0].vars[p.Name] = localInfo{val: v, isRef: p.Type.IsRef()}
	}

	if fd.IsInit {
		if err := g.genInit(fd); err != nil {
			return err
		}
	} else {
		if err := g.genBlockInline(fd.Body); err != nil {
			return err
		}
		if !g.terminated() {
			g.emitCleanupDownTo(0)
			if fd.Ret.Kind == frontend.TVoid {
				g.emit(Inst{Op: RetVoid})
			} else {
				// Checked functions with non-void returns that fall off the
				// end are dynamically unreachable (or a source bug); trap.
				g.emit(Inst{Op: Unreachable})
			}
		}
	}
	g.scopes = nil
	g.finish()
	return nil
}

// genInit lowers an initializer: allocate self, run the body, return self.
// Throwing inits additionally maintain per-ref-field initialization flags
// and a shared cleanup block (the paper's Figure 9).
func (g *generator) genInit(fd *frontend.FuncDecl) error {
	cd := g.prog.Classes[fd.Class]
	self := g.fn.NewValue()
	g.selfVal = self
	g.emit(Inst{Op: AllocObject, Dst: self, Sym: cd.Name, Imm: int64(len(cd.Fields))})
	g.scopes[0].vars["self"] = localInfo{val: self, isRef: true}
	// self is not in the cleanup list: ownership transfers to the caller.

	if fd.Body == nil {
		// Memberwise initializer: assign each field from the parameters.
		for i, f := range cd.Fields {
			v := g.fn.Param(i)
			if f.Type.IsRef() {
				g.emit(Inst{Op: Retain, A: v})
			}
			g.emit(Inst{Op: FieldSet, A: self, Imm: int64(i), B: v})
		}
		g.emit(Inst{Op: Ret, A: self})
		return nil
	}

	if fd.Throws {
		// Per-ref-field init flags, all starting false.
		g.initFlags = make(map[int]Value)
		for i, f := range cd.Fields {
			if f.Type.IsRef() {
				flag := g.emitConst(0)
				g.initFlags[i] = flag
			}
		}
		g.initErrVal = g.emitConst(0)
		// Reserve the shared cleanup label; the block is emitted at the end.
		g.errs = append(g.errs, errCtx{initCleanup: "init_cleanup"})
	}

	if err := g.genBlockInline(fd.Body); err != nil {
		return err
	}
	if !g.terminated() {
		g.emitCleanupDownTo(1) // keep the function scope (self) alive
		g.emit(Inst{Op: Ret, A: self})
	}

	if fd.Throws {
		// Figure 9's block L: release the fields whose flags are set, then
		// release self's allocation and rethrow.
		// Numbered like any block, so the labels after it keep their numbers.
		g.blocks++
		g.setBlock(g.addBlock("init_cleanup"))
		for i := range cd.Fields {
			flag, ok := g.initFlags[i]
			if !ok {
				continue
			}
			rel := g.newBlock("init_rel")
			next := g.newBlock("init_next")
			g.emit(Inst{Op: CondBr, A: flag, Sym: g.label(rel), Sym2: g.label(next)})
			g.setBlock(rel)
			fv := g.fn.NewValue()
			g.emit(Inst{Op: FieldGet, Dst: fv, A: self, Imm: int64(i)})
			g.emit(Inst{Op: Release, A: fv})
			g.emit(Inst{Op: Br, Sym: g.label(next)})
			g.setBlock(next)
		}
		g.emit(Inst{Op: Release, A: self})
		g.emit(Inst{Op: Throw, A: g.initErrVal})
	}
	return nil
}

// genBlockInline generates a block's statements in a fresh scope.
func (g *generator) genBlockInline(b *frontend.BlockStmt) error {
	g.pushScope()
	for _, s := range b.Stmts {
		if err := g.genStmt(s); err != nil {
			return err
		}
	}
	g.popScope()
	return nil
}

// flushTemps releases owned ref temporaries accumulated by the current
// statement.
func (g *generator) flushTemps() {
	for i := len(g.temps) - 1; i >= 0; i-- {
		g.emit(Inst{Op: Release, A: g.temps[i]})
	}
	g.temps = g.temps[:0]
}

func (g *generator) genStmt(s frontend.Stmt) error {
	switch s := s.(type) {
	case *frontend.BlockStmt:
		return g.genBlockInline(s)

	case *frontend.VarStmt:
		v, owned, err := g.genExpr(s.Init)
		if err != nil {
			return err
		}
		isRef := s.Type.IsRef()
		local := g.fn.NewValue()
		if isRef && !owned {
			g.emit(Inst{Op: Retain, A: v})
		}
		g.emit(Inst{Op: Move, Dst: local, A: v})
		g.consumeTemp(v)
		g.define(s.Name, local, isRef)
		g.flushTemps()
		return nil

	case *frontend.AssignStmt:
		if err := g.genAssign(s); err != nil {
			return err
		}
		g.flushTemps()
		return nil

	case *frontend.ExprStmt:
		v, owned, err := g.genExpr(s.E)
		if err != nil {
			return err
		}
		if owned && s.E.TypeOf().IsRef() {
			// Result ignored: drop the ownership now (it is already in
			// temps via genExpr bookkeeping or needs an explicit release).
			if !g.inTemps(v) {
				g.emit(Inst{Op: Release, A: v})
			}
		}
		g.flushTemps()
		return nil

	case *frontend.IfStmt:
		return g.genIf(s)

	case *frontend.WhileStmt:
		head := g.newBlock("while_head")
		g.emit(Inst{Op: Br, Sym: g.label(head)})
		g.setBlock(head)
		cond, _, err := g.genExpr(s.Cond)
		if err != nil {
			return err
		}
		body := g.newBlock("while_body")
		exit := g.newBlock("while_exit")
		g.emit(Inst{Op: CondBr, A: cond, Sym: g.label(body), Sym2: g.label(exit)})
		g.setBlock(body)
		g.loops = append(g.loops, loopCtx{breakLabel: g.label(exit), continueLabel: g.label(head), scopeDepth: len(g.scopes)})
		if err := g.genBlockInline(s.Body); err != nil {
			return err
		}
		g.loops = g.loops[:len(g.loops)-1]
		if !g.terminated() {
			g.emit(Inst{Op: Br, Sym: g.label(head)})
		}
		g.setBlock(exit)
		return nil

	case *frontend.ForStmt:
		lo, _, err := g.genExpr(s.Lo)
		if err != nil {
			return err
		}
		hi, _, err := g.genExpr(s.Hi)
		if err != nil {
			return err
		}
		iv := g.fn.NewValue()
		g.emit(Inst{Op: Move, Dst: iv, A: lo})
		hiv := g.fn.NewValue()
		g.emit(Inst{Op: Move, Dst: hiv, A: hi})
		head := g.newBlock("for_head")
		g.emit(Inst{Op: Br, Sym: g.label(head)})
		g.setBlock(head)
		cond := g.fn.NewValue()
		g.emit(Inst{Op: Cmp, Dst: cond, Cond: Lt, A: iv, B: hiv})
		body := g.newBlock("for_body")
		step := g.newBlock("for_step")
		exit := g.newBlock("for_exit")
		g.emit(Inst{Op: CondBr, A: cond, Sym: g.label(body), Sym2: g.label(exit)})
		g.setBlock(body)
		g.pushScope()
		g.define(s.Var, iv, false)
		g.loops = append(g.loops, loopCtx{breakLabel: g.label(exit), continueLabel: g.label(step), scopeDepth: len(g.scopes)})
		for _, st := range s.Body.Stmts {
			if err := g.genStmt(st); err != nil {
				return err
			}
		}
		g.loops = g.loops[:len(g.loops)-1]
		g.popScope()
		if !g.terminated() {
			g.emit(Inst{Op: Br, Sym: g.label(step)})
		}
		g.setBlock(step)
		one := g.emitConst(1)
		g.emit(Inst{Op: Bin, Dst: iv, BinOp: Add, A: iv, B: one})
		g.emit(Inst{Op: Br, Sym: g.label(head)})
		g.setBlock(exit)
		return nil

	case *frontend.ReturnStmt:
		if s.E == nil {
			g.emitCleanupDownTo(0)
			g.emit(Inst{Op: RetVoid})
			return nil
		}
		v, owned, err := g.genExpr(s.E)
		if err != nil {
			return err
		}
		if s.E.TypeOf().IsRef() && !owned {
			g.emit(Inst{Op: Retain, A: v}) // results are +1 to the caller
		}
		g.consumeTemp(v)
		g.flushTemps()
		keep := 0
		if g.selfVal != None {
			keep = 1
		}
		g.emitCleanupDownTo(keep)
		g.emit(Inst{Op: Ret, A: v})
		return nil

	case *frontend.ThrowStmt:
		code, _, err := g.genExpr(s.E)
		if err != nil {
			return err
		}
		one := g.emitConst(1)
		raw := g.fn.NewValue()
		g.emit(Inst{Op: Bin, Dst: raw, BinOp: Add, A: code, B: one})
		g.flushTemps()
		g.raiseError(raw)
		return nil

	case *frontend.DoCatchStmt:
		errLocal := g.emitConst(0)
		catch := g.newBlock("catch")
		done := g.newBlock("done")
		g.errs = append(g.errs, errCtx{catchLabel: g.label(catch), errLocal: errLocal, scopeDepth: len(g.scopes)})
		if err := g.genBlockInline(s.Body); err != nil {
			return err
		}
		g.errs = g.errs[:len(g.errs)-1]
		if !g.terminated() {
			g.emit(Inst{Op: Br, Sym: g.label(done)})
		}
		g.setBlock(catch)
		g.pushScope()
		// error = raw - 1
		one := g.emitConst(1)
		code := g.fn.NewValue()
		g.emit(Inst{Op: Bin, Dst: code, BinOp: Sub, A: errLocal, B: one})
		g.scopes[len(g.scopes)-1].vars["error"] = localInfo{val: code}
		for _, st := range s.Catch.Stmts {
			if err := g.genStmt(st); err != nil {
				return err
			}
		}
		g.popScope()
		if !g.terminated() {
			g.emit(Inst{Op: Br, Sym: g.label(done)})
		}
		g.setBlock(done)
		return nil

	case *frontend.BreakStmt:
		lc := g.loops[len(g.loops)-1]
		g.emitCleanupDownTo(lc.scopeDepth)
		g.emit(Inst{Op: Br, Sym: lc.breakLabel})
		return nil

	case *frontend.ContinueStmt:
		lc := g.loops[len(g.loops)-1]
		g.emitCleanupDownTo(lc.scopeDepth)
		g.emit(Inst{Op: Br, Sym: lc.continueLabel})
		return nil
	}
	return fmt.Errorf("sirgen: unknown statement %T", s)
}

// raiseError transfers a raw error value to the active error destination:
// the init shared cleanup, an enclosing catch, or the caller.
func (g *generator) raiseError(raw Value) {
	if len(g.errs) > 0 {
		ec := g.errs[len(g.errs)-1]
		if ec.initCleanup != "" {
			g.emit(Inst{Op: Move, Dst: g.initErrVal, A: raw})
			g.emitCleanupDownTo(1)
			g.emit(Inst{Op: Br, Sym: ec.initCleanup})
			return
		}
		g.emit(Inst{Op: Move, Dst: ec.errLocal, A: raw})
		g.emitCleanupDownTo(ec.scopeDepth)
		g.emit(Inst{Op: Br, Sym: ec.catchLabel})
		return
	}
	g.emitCleanupDownTo(0)
	g.emit(Inst{Op: Throw, A: raw})
}

func (g *generator) genIf(s *frontend.IfStmt) error {
	cond, owned, err := g.genExpr(s.Cond)
	if err != nil {
		return err
	}
	then := g.newBlock("then")
	var els int32
	if s.Else != nil {
		els = g.newBlock("else")
	}
	done := g.newBlock("endif")
	elseLabel := g.label(done)
	if s.Else != nil {
		elseLabel = g.label(els)
	}
	// `if let` tests the optional against nil directly.
	g.emit(Inst{Op: CondBr, A: cond, Sym: g.label(then), Sym2: elseLabel})

	g.setBlock(then)
	g.pushScope()
	if s.Bind != "" {
		bound := g.fn.NewValue()
		isRef := s.Cond.TypeOf().IsRef()
		if isRef && !owned {
			g.emit(Inst{Op: Retain, A: cond})
		}
		g.emit(Inst{Op: Move, Dst: bound, A: cond})
		g.define(s.Bind, bound, isRef)
	}
	for _, st := range s.Then.Stmts {
		if err := g.genStmt(st); err != nil {
			return err
		}
	}
	g.popScope()
	if !g.terminated() {
		g.emit(Inst{Op: Br, Sym: g.label(done)})
	}
	if s.Else != nil {
		g.setBlock(els)
		if err := g.genStmt(s.Else); err != nil {
			return err
		}
		if !g.terminated() {
			g.emit(Inst{Op: Br, Sym: g.label(done)})
		}
	}
	g.setBlock(done)
	return nil
}

func (g *generator) genAssign(s *frontend.AssignStmt) error {
	switch lhs := s.LHS.(type) {
	case *frontend.IdentExpr:
		li, ok := g.lookup(lhs.Name)
		if !ok {
			return g.errf(s.Line, "undefined %s", lhs.Name)
		}
		v, owned, err := g.genExpr(s.RHS)
		if err != nil {
			return err
		}
		if li.isRef {
			if !owned {
				g.emit(Inst{Op: Retain, A: v})
			}
			g.consumeTemp(v)
			g.emit(Inst{Op: Release, A: li.val})
		}
		g.emit(Inst{Op: Move, Dst: li.val, A: v})
		return nil

	case *frontend.FieldExpr:
		recv, _, err := g.genExpr(lhs.Recv)
		if err != nil {
			return err
		}
		cd := g.prog.Classes[lhs.Recv.TypeOf().Name]
		idx := cd.FieldIndex(lhs.Field)
		isRef := cd.Fields[idx].Type.IsRef()
		v, owned, err := g.genExpr(s.RHS)
		if err != nil {
			return err
		}
		if isRef {
			if !owned {
				g.emit(Inst{Op: Retain, A: v})
			}
			g.consumeTemp(v)
			old := g.fn.NewValue()
			g.emit(Inst{Op: FieldGet, Dst: old, A: recv, Imm: int64(idx)})
			g.emit(Inst{Op: Release, A: old})
		}
		g.emit(Inst{Op: FieldSet, A: recv, Imm: int64(idx), B: v})
		g.noteInitFlag(lhs, idx)
		return nil

	case *frontend.IndexExpr:
		recv, _, err := g.genExpr(lhs.Recv)
		if err != nil {
			return err
		}
		idx, _, err := g.genExpr(lhs.Index)
		if err != nil {
			return err
		}
		isRef := lhs.Recv.TypeOf().Elem.IsRef()
		v, owned, err := g.genExpr(s.RHS)
		if err != nil {
			return err
		}
		if isRef {
			if !owned {
				g.emit(Inst{Op: Retain, A: v})
			}
			g.consumeTemp(v)
			old := g.fn.NewValue()
			g.emit(Inst{Op: ArrayGet, Dst: old, A: recv, B: idx})
			g.emit(Inst{Op: Release, A: old})
		}
		g.emit(Inst{Op: ArraySet, A: recv, B: idx, C: v})
		return nil
	}
	return g.errf(s.Line, "bad assignment target %T", s.LHS)
}

// noteInitFlag records `self.field = try ...` progress inside throwing inits
// by setting the field's init flag (Figure 9's Init temporaries).
func (g *generator) noteInitFlag(lhs *frontend.FieldExpr, idx int) {
	if g.initFlags == nil {
		return
	}
	if _, isSelf := lhs.Recv.(*frontend.SelfExpr); !isSelf {
		return
	}
	flag, tracked := g.initFlags[idx]
	if !tracked {
		return
	}
	one := g.emitConst(1)
	g.emit(Inst{Op: Move, Dst: flag, A: one})
}

// ---- temp bookkeeping ----

func (g *generator) addTemp(v Value) { g.temps = append(g.temps, v) }

func (g *generator) inTemps(v Value) bool {
	for _, t := range g.temps {
		if t == v {
			return true
		}
	}
	return false
}

// consumeTemp removes v from the pending-release list: its ownership has
// been transferred (into a local, a field, an array slot, or a return).
func (g *generator) consumeTemp(v Value) {
	for i, t := range g.temps {
		if t == v {
			g.temps = append(g.temps[:i], g.temps[i+1:]...)
			return
		}
	}
}
