package sir

import (
	"fmt"

	"outliner/internal/frontend"
)

func (g *generator) tempMark() int { return len(g.temps) }

// flushTempsSince releases temps accumulated after mark and truncates.
func (g *generator) flushTempsSince(mark int) {
	for i := len(g.temps) - 1; i >= mark; i-- {
		g.emit(Inst{Op: Release, A: g.temps[i]})
	}
	g.temps = g.temps[:mark]
}

// emitTempReleases emits releases for temps after mark WITHOUT truncating —
// used on error edges, where the normal path still owns the list.
func (g *generator) emitTempReleases(mark int) {
	for i := len(g.temps) - 1; i >= mark; i-- {
		g.emit(Inst{Op: Release, A: g.temps[i]})
	}
}

// genExpr lowers an expression. It returns the value register and whether
// the caller owns a +1 reference on it (owned results of reference type are
// also recorded in g.temps until consumed).
func (g *generator) genExpr(e frontend.Expr) (Value, bool, error) {
	switch e := e.(type) {
	case *frontend.IntLit:
		return g.emitConst(e.Value), false, nil

	case *frontend.BoolLit:
		v := int64(0)
		if e.Value {
			v = 1
		}
		return g.emitConst(v), false, nil

	case *frontend.StringLit:
		sym := g.strConst(e.Value)
		dst := g.fn.NewValue()
		g.emit(Inst{Op: ConstStr, Dst: dst, Sym: sym})
		return dst, false, nil // constants live in the data section: +0

	case *frontend.NilLit:
		dst := g.fn.NewValue()
		g.emit(Inst{Op: ConstNil, Dst: dst})
		return dst, false, nil

	case *frontend.SelfExpr:
		return g.selfVal, false, nil

	case *frontend.IdentExpr:
		if li, ok := g.lookup(e.Name); ok {
			return li.val, false, nil
		}
		if e.FuncSym != "" {
			// A named function as a value: wrap in a capture-free closure
			// over a thunk.
			thunk, err := g.thunkFor(e.FuncSym, e.Line)
			if err != nil {
				return None, false, err
			}
			dst := g.fn.NewValue()
			g.emit(Inst{Op: MakeClosure, Dst: dst, Sym: thunk})
			g.addTemp(dst)
			return dst, true, nil
		}
		return None, false, g.errf(e.Line, "undefined %s", e.Name)

	case *frontend.UnaryExpr:
		x, _, err := g.genExpr(e.X)
		if err != nil {
			return None, false, err
		}
		dst := g.fn.NewValue()
		if e.Op == frontend.TokMinus {
			g.emit(Inst{Op: Neg, Dst: dst, A: x})
		} else {
			g.emit(Inst{Op: Not, Dst: dst, A: x})
		}
		return dst, false, nil

	case *frontend.BinaryExpr:
		return g.genBinary(e)

	case *frontend.ArrayLit:
		n := g.emitConst(int64(len(e.Elems)))
		arr := g.fn.NewValue()
		g.emit(Inst{Op: AllocArray, Dst: arr, A: n})
		isRef := e.TypeOf().Elem.IsRef()
		for i, el := range e.Elems {
			v, owned, err := g.genExpr(el)
			if err != nil {
				return None, false, err
			}
			if isRef {
				if !owned {
					g.emit(Inst{Op: Retain, A: v})
				}
				g.consumeTemp(v)
			}
			iv := g.emitConst(int64(i))
			g.emit(Inst{Op: ArraySet, A: arr, B: iv, C: v})
		}
		g.addTemp(arr)
		return arr, true, nil

	case *frontend.IndexExpr:
		recv, _, err := g.genExpr(e.Recv)
		if err != nil {
			return None, false, err
		}
		idx, _, err := g.genExpr(e.Index)
		if err != nil {
			return None, false, err
		}
		dst := g.fn.NewValue()
		if e.Recv.TypeOf().Kind == frontend.TString {
			g.emit(Inst{Op: StrGet, Dst: dst, A: recv, B: idx})
		} else {
			g.emit(Inst{Op: ArrayGet, Dst: dst, A: recv, B: idx})
		}
		return dst, false, nil

	case *frontend.FieldExpr:
		recv, _, err := g.genExpr(e.Recv)
		if err != nil {
			return None, false, err
		}
		dst := g.fn.NewValue()
		rt := e.Recv.TypeOf()
		if e.Field == "count" {
			if rt.Kind == frontend.TString {
				g.emit(Inst{Op: StrLen, Dst: dst, A: recv})
			} else {
				g.emit(Inst{Op: ArrayLen, Dst: dst, A: recv})
			}
			return dst, false, nil
		}
		cd := g.prog.Classes[rt.Name]
		g.emit(Inst{Op: FieldGet, Dst: dst, A: recv, Imm: int64(cd.FieldIndex(e.Field))})
		return dst, false, nil

	case *frontend.CallExpr:
		return g.genCall(e)

	case *frontend.MethodCallExpr:
		recv, _, err := g.genExpr(e.Recv)
		if err != nil {
			return None, false, err
		}
		at := len(g.argStack)
		g.argStack = append(g.argStack, recv)
		mark := g.tempMark()
		if err := g.pushArgs(e.Args); err != nil {
			return None, false, err
		}
		return g.emitCall(e.ResolvedSym, g.popArgs(at), e.Throws, e.TypeOf(), mark)

	case *frontend.ClosureExpr:
		return g.genClosure(e)
	}
	return None, false, fmt.Errorf("sirgen: unknown expression %T", e)
}

func (g *generator) genBinary(e *frontend.BinaryExpr) (Value, bool, error) {
	switch e.Op {
	case frontend.TokAnd, frontend.TokOr:
		l, _, err := g.genExpr(e.L)
		if err != nil {
			return None, false, err
		}
		res := g.fn.NewValue()
		g.emit(Inst{Op: Move, Dst: res, A: l})
		rhs := g.newBlock("sc_rhs")
		done := g.newBlock("sc_done")
		if e.Op == frontend.TokAnd {
			g.emit(Inst{Op: CondBr, A: l, Sym: g.label(rhs), Sym2: g.label(done)})
		} else {
			g.emit(Inst{Op: CondBr, A: l, Sym: g.label(done), Sym2: g.label(rhs)})
		}
		g.setBlock(rhs)
		mark := g.tempMark()
		r, _, err := g.genExpr(e.R)
		if err != nil {
			return None, false, err
		}
		g.emit(Inst{Op: Move, Dst: res, A: r})
		g.flushTempsSince(mark)
		g.emit(Inst{Op: Br, Sym: g.label(done)})
		g.setBlock(done)
		return res, false, nil
	}

	l, _, err := g.genExpr(e.L)
	if err != nil {
		return None, false, err
	}
	r, _, err := g.genExpr(e.R)
	if err != nil {
		return None, false, err
	}
	dst := g.fn.NewValue()
	switch e.Op {
	case frontend.TokPlus:
		g.emit(Inst{Op: Bin, Dst: dst, BinOp: Add, A: l, B: r})
	case frontend.TokMinus:
		g.emit(Inst{Op: Bin, Dst: dst, BinOp: Sub, A: l, B: r})
	case frontend.TokStar:
		g.emit(Inst{Op: Bin, Dst: dst, BinOp: Mul, A: l, B: r})
	case frontend.TokSlash:
		g.emit(Inst{Op: Bin, Dst: dst, BinOp: Div, A: l, B: r})
	case frontend.TokPercent:
		g.emit(Inst{Op: Bin, Dst: dst, BinOp: Rem, A: l, B: r})
	case frontend.TokEq:
		g.emit(Inst{Op: Cmp, Dst: dst, Cond: Eq, A: l, B: r})
	case frontend.TokNe:
		g.emit(Inst{Op: Cmp, Dst: dst, Cond: Ne, A: l, B: r})
	case frontend.TokLt:
		g.emit(Inst{Op: Cmp, Dst: dst, Cond: Lt, A: l, B: r})
	case frontend.TokLe:
		g.emit(Inst{Op: Cmp, Dst: dst, Cond: Le, A: l, B: r})
	case frontend.TokGt:
		g.emit(Inst{Op: Cmp, Dst: dst, Cond: Gt, A: l, B: r})
	case frontend.TokGe:
		g.emit(Inst{Op: Cmp, Dst: dst, Cond: Ge, A: l, B: r})
	default:
		return None, false, fmt.Errorf("sirgen: bad binary op %d", e.Op)
	}
	return dst, false, nil
}

func (g *generator) genCall(e *frontend.CallExpr) (Value, bool, error) {
	switch e.Kind {
	case frontend.CallBuiltin:
		return g.genBuiltin(e)

	case frontend.CallFunc, frontend.CallInit:
		mark, at := g.tempMark(), len(g.argStack)
		if err := g.pushArgs(e.Args); err != nil {
			return None, false, err
		}
		return g.emitCall(e.ResolvedSym, g.popArgs(at), e.Throws, e.TypeOf(), mark)

	case frontend.CallClosure:
		fnv, _, err := g.genExpr(e.Fn)
		if err != nil {
			return None, false, err
		}
		mark, at := g.tempMark(), len(g.argStack)
		if err := g.pushArgs(e.Args); err != nil {
			return None, false, err
		}
		var dst Value
		if e.TypeOf().Kind != frontend.TVoid {
			dst = g.fn.NewValue()
		}
		g.emit(Inst{Op: CallClosure, Dst: dst, A: fnv, Args: g.popArgs(at)})
		g.flushTempsSince(mark)
		owned := dst != None && e.TypeOf().IsRef()
		if owned {
			g.addTemp(dst)
		}
		return dst, owned, nil
	}
	return None, false, fmt.Errorf("sirgen: unresolved call (sema bug)")
}

// pushArgs generates each argument in turn and pushes its value on
// g.argStack. An argument's own calls push above it and pop back down.
func (g *generator) pushArgs(args []frontend.Expr) error {
	for _, a := range args {
		av, _, err := g.genExpr(a)
		if err != nil {
			return err
		}
		g.argStack = append(g.argStack, av)
	}
	return nil
}

// popArgs pops the argument list pushed from at. The list stays valid until
// the next push; emit copies it, so it goes straight into the instruction.
func (g *generator) popArgs(at int) []Value {
	args := g.argStack[at:]
	g.argStack = g.argStack[:at]
	return args
}

// emitCall emits a direct call, including the error-channel check for
// throwing callees, and releases the argument temporaries created after
// mark.
func (g *generator) emitCall(sym string, args []Value, throws bool, retType *frontend.Type, mark int) (Value, bool, error) {
	var dst Value
	if retType.Kind != frontend.TVoid {
		dst = g.fn.NewValue()
	}
	in := Inst{Op: Call, Dst: dst, Sym: sym, Args: args, Throws: throws}
	if throws {
		in.ErrDst = g.fn.NewValue()
	}
	g.emit(in)
	if throws {
		errBB := g.newBlock("err")
		cont := g.newBlock("cont")
		g.emit(Inst{Op: CondBr, A: in.ErrDst, Sym: g.label(errBB), Sym2: g.label(cont)})
		g.setBlock(errBB)
		g.emitTempReleases(mark)
		g.raiseError(in.ErrDst)
		g.setBlock(cont)
	}
	g.flushTempsSince(mark)
	owned := dst != None && retType.IsRef()
	if owned {
		g.addTemp(dst)
	}
	return dst, owned, nil
}

func (g *generator) genBuiltin(e *frontend.CallExpr) (Value, bool, error) {
	switch e.ResolvedSym {
	case "print":
		v, _, err := g.genExpr(e.Args[0])
		if err != nil {
			return None, false, err
		}
		switch e.Args[0].TypeOf().Kind {
		case frontend.TString:
			g.emit(Inst{Op: PrintStr, A: v})
		case frontend.TBool:
			g.emit(Inst{Op: PrintBool, A: v})
		default:
			g.emit(Inst{Op: PrintInt, A: v})
		}
		return None, false, nil

	case "append":
		arr, _, err := g.genExpr(e.Args[0])
		if err != nil {
			return None, false, err
		}
		el, elOwned, err := g.genExpr(e.Args[1])
		if err != nil {
			return None, false, err
		}
		if e.TypeOf().Elem.IsRef() {
			if !elOwned {
				g.emit(Inst{Op: Retain, A: el})
			}
			g.consumeTemp(el)
		}
		dst := g.fn.NewValue()
		g.emit(Inst{Op: Append, Dst: dst, A: arr, B: el})
		g.addTemp(dst)
		return dst, true, nil

	case "Array":
		n, _, err := g.genExpr(e.Args[0])
		if err != nil {
			return None, false, err
		}
		dst := g.fn.NewValue()
		g.emit(Inst{Op: AllocArray, Dst: dst, A: n})
		g.addTemp(dst)
		return dst, true, nil
	}
	return None, false, fmt.Errorf("sirgen: unknown builtin %q", e.ResolvedSym)
}

// ---- closures ----

// genClosure lowers a closure literal: resolve captures in the enclosing
// scope, generate the closure function (context pointer + declared params),
// and allocate the closure object.
func (g *generator) genClosure(e *frontend.ClosureExpr) (Value, bool, error) {
	type capInfo struct {
		name  string
		val   Value
		isRef bool
	}
	caps := make([]capInfo, 0, len(e.Captures))
	for _, name := range e.Captures {
		li, ok := g.lookup(name)
		if !ok {
			return None, false, g.errf(e.Line, "capture %s not in scope", name)
		}
		caps = append(caps, capInfo{name: name, val: li.val, isRef: li.isRef})
	}

	g.closSeq++
	name := fmt.Sprintf("%s.closure.%d", g.fn.Name, g.closSeq)

	// Generate the closure function with saved generator state.
	saved := g.saveState()
	cf := &Func{Name: name, Module: g.mod.Name}
	cf.NumParams = 1 + len(e.Params)
	cf.NumValues = cf.NumParams
	cf.RefParams = make([]bool, cf.NumParams)
	cf.RefParams[0] = true
	g.scopes = nil
	g.loops = nil
	g.errs = nil
	g.temps = nil
	g.selfVal = None
	g.initFlags = nil
	g.begin(cf)
	g.pushScope()
	env := cf.Param(0)
	for i, p := range e.Params {
		g.scopes[0].vars[p.Name] = localInfo{val: cf.Param(i + 1), isRef: p.Type.IsRef()}
	}
	// Load captures from the context object: field 0 is the function
	// pointer, captures start at field 1.
	for i, c := range caps {
		cv := cf.NewValue()
		g.emit(Inst{Op: FieldGet, Dst: cv, A: env, Imm: int64(i + 1)})
		g.scopes[0].vars[c.name] = localInfo{val: cv, isRef: c.isRef}
	}
	for _, st := range e.Body.Stmts {
		if err := g.genStmt(st); err != nil {
			g.restoreState(saved)
			return None, false, err
		}
	}
	if !g.terminated() {
		g.emitCleanupDownTo(0)
		if e.Ret.Kind == frontend.TVoid {
			g.emit(Inst{Op: RetVoid})
		} else {
			g.emit(Inst{Op: Unreachable})
		}
	}
	g.scopes = nil
	g.finish()
	g.restoreState(saved)

	// Build the closure object: retain captured references (the closure
	// owns its captures).
	at := len(g.argStack)
	for _, c := range caps {
		if c.isRef {
			g.emit(Inst{Op: Retain, A: c.val})
		}
		g.argStack = append(g.argStack, c.val)
	}
	dst := g.fn.NewValue()
	g.emit(Inst{Op: MakeClosure, Dst: dst, Sym: name, Args: g.popArgs(at)})
	g.addTemp(dst)
	return dst, true, nil
}

// thunkFor returns (generating on first use) a context-calling-convention
// wrapper for a named function used as a value.
func (g *generator) thunkFor(fnName string, line int) (string, error) {
	if t, ok := g.thunks[fnName]; ok {
		return t, nil
	}
	target := g.prog.Funcs[fnName]
	if target == nil {
		return "", g.errf(line, "unknown function %s", fnName)
	}
	if target.Throws {
		return "", g.errf(line, "throwing function values are not supported")
	}
	name := fnName + "$thunk"
	saved := g.saveState()
	tf := &Func{Name: name, Module: g.mod.Name}
	tf.NumParams = 1 + len(target.Params)
	tf.NumValues = tf.NumParams
	tf.RefParams = make([]bool, tf.NumParams)
	tf.RefParams[0] = true
	g.begin(tf)
	at := len(g.argStack)
	for i := range target.Params {
		g.argStack = append(g.argStack, tf.Param(i+1))
		tf.RefParams[i+1] = target.Params[i].Type.IsRef()
	}
	var dst Value
	if target.Ret.Kind != frontend.TVoid {
		dst = tf.NewValue()
	}
	g.emit(Inst{Op: Call, Dst: dst, Sym: fnName, Args: g.popArgs(at)})
	if dst != None {
		g.emit(Inst{Op: Ret, A: dst})
	} else {
		g.emit(Inst{Op: RetVoid})
	}
	g.finish()
	g.restoreState(saved)
	g.thunks[fnName] = name
	return name, nil
}

// generator state save/restore for nested function generation.
type genState struct {
	fn         *Func
	cur        int32
	blocks     int
	base       int32
	mark       int
	scopes     []*genScope
	loops      []loopCtx
	errs       []errCtx
	temps      []Value
	selfVal    Value
	curClass   *frontend.ClassDecl
	initFlags  map[int]Value
	initErrVal Value
}

func (g *generator) saveState() genState {
	return genState{
		fn: g.fn, cur: g.cur, blocks: g.blocks, base: g.base, mark: g.mark, scopes: g.scopes,
		loops: g.loops, errs: g.errs, temps: g.temps,
		selfVal: g.selfVal, curClass: g.curClass,
		initFlags: g.initFlags, initErrVal: g.initErrVal,
	}
}

func (g *generator) restoreState(s genState) {
	g.fn, g.cur, g.blocks, g.scopes = s.fn, s.cur, s.blocks, s.scopes
	g.base, g.mark = s.base, s.mark
	g.loops, g.errs, g.temps = s.loops, s.errs, s.temps
	g.selfVal, g.curClass = s.selfVal, s.curClass
	g.initFlags, g.initErrVal = s.initFlags, s.initErrVal
}
