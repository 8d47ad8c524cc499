package frontend

import (
	"fmt"
	"sort"
	"strings"
)

// Program is a type-checked module: the unit handed to SIRGen.
type Program struct {
	Module  string
	Classes map[string]*ClassDecl
	Funcs   map[string]*FuncDecl // by mangled name, including specializations
	// FuncOrder lists Funcs keys in deterministic compilation order.
	FuncOrder []string
}

// Imports exposes another module's public declarations to type checking:
// classes (with their inits and methods) and non-generic free functions.
// Imported declarations are visible but not compiled into the importing
// module. Generic functions do not cross module boundaries (each module
// instantiates its own copies, as the Swift compiler does).
type Imports struct {
	Classes map[string]*ClassDecl
	Funcs   map[string]*FuncDecl

	// Views handed out by ImportsIndex.For share the maps of the whole-build
	// index; owner tags hide the viewing module's own declarations (exclude is
	// -1, matching no owner, for a view of no module). Sets assembled by hand
	// leave all three zero: no exclusion.
	classOwner map[string]int
	funcOwner  map[string]int
	exclude    int
}

// ensureMemberwiseInit synthesizes the memberwise initializer if the class
// declares none. Idempotent.
func ensureMemberwiseInit(cd *ClassDecl) {
	if cd.Init != nil {
		return
	}
	var params []Param
	for _, fld := range cd.Fields {
		params = append(params, Param{Name: fld.Name, Type: fld.Type})
	}
	cd.Init = &FuncDecl{
		Name: "init", Class: cd.Name, IsInit: true,
		Params: params, Ret: VoidType, Line: cd.Line,
	}
}

// CheckModule type-checks files into one module, with the declarations
// imports exposes visible (nil imports none). Generic functions are
// monomorphized: each explicit instantiation `f<Int>(...)` produces a
// specialized copy `f$Int` — the mechanism behind the paper's
// closure-specialization replication pattern (§IV, Listing 9).
func CheckModule(module string, imports *Imports, files ...*File) (*Program, error) {
	c := &checker{
		prog: &Program{
			Module:  module,
			Classes: make(map[string]*ClassDecl),
			Funcs:   make(map[string]*FuncDecl),
		},
		generics: make(map[string]*FuncDecl),
		imports:  imports,
	}
	if imports != nil {
		imports.EachClass(func(name string, cd *ClassDecl) {
			c.prog.Classes[name] = cd
		})
	}
	if err := c.collect(files); err != nil {
		return nil, err
	}
	if err := c.checkAll(); err != nil {
		return nil, err
	}
	sort.Strings(c.prog.FuncOrder)
	return c.prog, nil
}

// MangleMethod returns the symbol of a method or initializer.
func MangleMethod(class, method string) string { return class + "." + method }

// MangleSpecialization returns the symbol of a generic instantiation.
func MangleSpecialization(name string, typeArgs []*Type) string {
	parts := make([]string, len(typeArgs))
	for i, t := range typeArgs {
		parts[i] = mangleType(t)
	}
	return name + "$" + strings.Join(parts, "_")
}

func mangleType(t *Type) string {
	switch t.Kind {
	case TInt:
		return "Int"
	case TBool:
		return "Bool"
	case TString:
		return "String"
	case TVoid:
		return "Void"
	case TClass, TGeneric:
		return t.Name
	case TArray:
		return "A" + mangleType(t.Elem)
	case TOptional:
		return "O" + mangleType(t.Elem)
	case TFunc:
		s := "F"
		for _, p := range t.Params {
			s += mangleType(p)
		}
		return s + "R" + mangleType(t.Ret)
	}
	return "X"
}

type checker struct {
	prog     *Program
	generics map[string]*FuncDecl // generic templates by source name
	queue    []*FuncDecl          // functions awaiting body checking
	// imports' classes join prog.Classes for typing; their home module
	// compiles their inits and methods.
	imports *Imports
}

// importedFunc resolves a free function from the import set.
func (c *checker) importedFunc(name string) *FuncDecl {
	if c.imports == nil {
		return nil
	}
	return c.imports.Func(name)
}

func (c *checker) errf(line int, format string, args ...any) error {
	return &Error{File: c.prog.Module, Line: line, Col: 1, Msg: fmt.Sprintf(format, args...)}
}

func (c *checker) collect(files []*File) error {
	for _, f := range files {
		for _, cd := range f.Classes {
			if _, dup := c.prog.Classes[cd.Name]; dup {
				return c.errf(cd.Line, "duplicate class %s", cd.Name)
			}
			c.prog.Classes[cd.Name] = cd
		}
	}
	addFunc := func(sym string, fn *FuncDecl) error {
		if _, dup := c.prog.Funcs[sym]; dup {
			return c.errf(fn.Line, "duplicate function %s", sym)
		}
		c.prog.Funcs[sym] = fn
		c.prog.FuncOrder = append(c.prog.FuncOrder, sym)
		c.queue = append(c.queue, fn)
		return nil
	}
	for _, f := range files {
		for _, fn := range f.Funcs {
			if len(fn.Generics) > 0 {
				if _, dup := c.generics[fn.Name]; dup {
					return c.errf(fn.Line, "duplicate generic function %s", fn.Name)
				}
				c.generics[fn.Name] = fn
				continue
			}
			if err := addFunc(fn.Name, fn); err != nil {
				return err
			}
		}
		for _, cd := range f.Classes {
			// Synthesize the memberwise initializer when absent (nil body;
			// SIRGen recognizes it and assigns fields from the parameters).
			ensureMemberwiseInit(cd)
			if err := addFunc(MangleMethod(cd.Name, "init"), cd.Init); err != nil {
				return err
			}
			for _, m := range cd.Methods {
				if len(m.Generics) > 0 {
					return c.errf(m.Line, "generic methods are not supported")
				}
				if err := addFunc(MangleMethod(cd.Name, m.Name), m); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (c *checker) checkAll() error {
	for len(c.queue) > 0 {
		fn := c.queue[0]
		c.queue = c.queue[1:]
		if err := c.checkFunc(fn); err != nil {
			return err
		}
	}
	return nil
}

// instantiate specializes a generic template for typeArgs and queues the
// specialized copy for checking. Returns its mangled name.
func (c *checker) instantiate(tmpl *FuncDecl, typeArgs []*Type, line int) (string, error) {
	if len(typeArgs) != len(tmpl.Generics) {
		return "", c.errf(line, "%s expects %d type arguments, got %d",
			tmpl.Name, len(tmpl.Generics), len(typeArgs))
	}
	sym := MangleSpecialization(tmpl.Name, typeArgs)
	if _, done := c.prog.Funcs[sym]; done {
		return sym, nil
	}
	sp := make(specializer, len(typeArgs))
	for i, g := range tmpl.Generics {
		sp[g] = typeArgs[i]
	}
	inst := sp.fn(tmpl)
	inst.Name = sym
	c.prog.Funcs[sym] = inst
	c.prog.FuncOrder = append(c.prog.FuncOrder, sym)
	c.queue = append(c.queue, inst)
	return sym, nil
}

// specializer maps a generic template's type parameters to one
// instantiation's type arguments. It copies the template and substitutes the
// arguments in the same walk, so each instantiation is type-checked on its
// own nodes and checked types never leak between instantiations. Templates
// are never checked themselves, so their nodes carry no checked types.
//
// The parser reads a type parameter as TGeneric only in the signature; in
// the body (var annotations, explicit type arguments, closure signatures) it
// reads every type name as a class. So a class name that names a type
// parameter is substituted too: inside the template the parameter shadows
// any class of that name.
type specializer map[string]*Type

func (sp specializer) fn(f *FuncDecl) *FuncDecl {
	nf := *f
	nf.Generics = nil
	nf.Params = sp.params(f.Params)
	nf.Ret = sp.typ(f.Ret)
	nf.Body = sp.block(f.Body)
	return &nf
}

func (sp specializer) params(ps []Param) []Param {
	out := make([]Param, len(ps))
	for i, p := range ps {
		out[i] = Param{Name: p.Name, Type: sp.typ(p.Type)}
	}
	return out
}

func (sp specializer) typ(t *Type) *Type {
	if t == nil {
		return nil
	}
	switch t.Kind {
	case TGeneric, TClass:
		if r, ok := sp[t.Name]; ok {
			return r
		}
	case TArray:
		return ArrayType(sp.typ(t.Elem))
	case TOptional:
		return OptionalType(sp.typ(t.Elem))
	case TFunc:
		return &Type{Kind: TFunc, Params: sp.types(t.Params), Ret: sp.typ(t.Ret), Throws: t.Throws}
	}
	return t
}

func (sp specializer) types(ts []*Type) []*Type {
	var out []*Type
	for _, t := range ts {
		out = append(out, sp.typ(t))
	}
	return out
}

func (sp specializer) block(b *BlockStmt) *BlockStmt {
	if b == nil {
		return nil
	}
	nb := &BlockStmt{Stmts: make([]Stmt, len(b.Stmts))}
	for i, s := range b.Stmts {
		nb.Stmts[i] = sp.stmt(s)
	}
	return nb
}

func (sp specializer) stmt(s Stmt) Stmt {
	switch s := s.(type) {
	case *BlockStmt:
		return sp.block(s)
	case *VarStmt:
		n := *s
		n.Type = sp.typ(s.Type)
		n.Init = sp.expr(s.Init)
		return &n
	case *AssignStmt:
		n := *s
		n.LHS = sp.expr(s.LHS)
		n.RHS = sp.expr(s.RHS)
		return &n
	case *ExprStmt:
		n := *s
		n.E = sp.expr(s.E)
		return &n
	case *IfStmt:
		n := *s
		n.Cond = sp.expr(s.Cond)
		n.Then = sp.block(s.Then)
		if s.Else != nil {
			n.Else = sp.stmt(s.Else)
		}
		return &n
	case *WhileStmt:
		n := *s
		n.Cond = sp.expr(s.Cond)
		n.Body = sp.block(s.Body)
		return &n
	case *ForStmt:
		n := *s
		n.Lo = sp.expr(s.Lo)
		n.Hi = sp.expr(s.Hi)
		n.Body = sp.block(s.Body)
		return &n
	case *ReturnStmt:
		n := *s
		if s.E != nil {
			n.E = sp.expr(s.E)
		}
		return &n
	case *ThrowStmt:
		n := *s
		n.E = sp.expr(s.E)
		return &n
	case *DoCatchStmt:
		n := *s
		n.Body = sp.block(s.Body)
		n.Catch = sp.block(s.Catch)
		return &n
	case *BreakStmt:
		n := *s
		return &n
	case *ContinueStmt:
		n := *s
		return &n
	}
	panic("frontend: unknown statement in specialization")
}

func (sp specializer) expr(e Expr) Expr {
	switch e := e.(type) {
	case *IntLit:
		n := *e
		return &n
	case *BoolLit:
		n := *e
		return &n
	case *StringLit:
		n := *e
		return &n
	case *NilLit:
		n := *e
		return &n
	case *IdentExpr:
		n := *e
		return &n
	case *SelfExpr:
		n := *e
		return &n
	case *UnaryExpr:
		n := *e
		n.X = sp.expr(e.X)
		return &n
	case *BinaryExpr:
		n := *e
		n.L = sp.expr(e.L)
		n.R = sp.expr(e.R)
		return &n
	case *CallExpr:
		n := *e
		n.Fn = sp.expr(e.Fn)
		n.TypeArgs = sp.types(e.TypeArgs)
		n.Args = sp.exprs(e.Args)
		return &n
	case *MethodCallExpr:
		n := *e
		n.Recv = sp.expr(e.Recv)
		n.Args = sp.exprs(e.Args)
		return &n
	case *FieldExpr:
		n := *e
		n.Recv = sp.expr(e.Recv)
		return &n
	case *IndexExpr:
		n := *e
		n.Recv = sp.expr(e.Recv)
		n.Index = sp.expr(e.Index)
		return &n
	case *ArrayLit:
		n := *e
		n.Elems = sp.exprs(e.Elems)
		return &n
	case *ClosureExpr:
		n := *e
		n.Params = sp.params(e.Params)
		n.Ret = sp.typ(e.Ret)
		n.Body = sp.block(e.Body)
		return &n
	}
	panic("frontend: unknown expression in specialization")
}

func (sp specializer) exprs(es []Expr) []Expr {
	out := make([]Expr, len(es))
	for i, e := range es {
		out[i] = sp.expr(e)
	}
	return out
}

// ---- scope and function context ----

type binding struct {
	typ     *Type
	mutable bool
}

type scope struct {
	parent *scope
	vars   map[string]binding
	// closureBoundary marks the frame of a closure body: lookups crossing it
	// become captures.
	closureBoundary bool
}

func (s *scope) define(name string, b binding) { s.vars[name] = b }

type fnCtx struct {
	fn       *FuncDecl
	ret      *Type
	canThrow bool // inside a throws function body or a do-block
	class    *ClassDecl
	loop     int // nesting depth of loops
	closure  *ClosureExpr
}

func (c *checker) checkFunc(fn *FuncDecl) error {
	sc := &scope{vars: make(map[string]binding)}
	var class *ClassDecl
	if fn.Class != "" {
		class = c.prog.Classes[fn.Class]
		if class == nil {
			return c.errf(fn.Line, "unknown class %s", fn.Class)
		}
	}
	for _, p := range fn.Params {
		if err := c.validType(p.Type, fn.Line); err != nil {
			return err
		}
		sc.define(p.Name, binding{typ: p.Type})
	}
	if err := c.validType(fn.Ret, fn.Line); err != nil {
		return err
	}
	ctx := &fnCtx{fn: fn, ret: fn.Ret, canThrow: fn.Throws, class: class}
	if fn.IsInit {
		ctx.ret = VoidType // init returns self implicitly
	}
	if fn.Body == nil {
		return nil // synthesized memberwise initializer
	}
	return c.checkBlock(fn.Body, sc, ctx)
}

func (c *checker) validType(t *Type, line int) error {
	if t == nil {
		return nil
	}
	switch t.Kind {
	case TClass:
		if _, ok := c.prog.Classes[t.Name]; !ok {
			return c.errf(line, "unknown type %s", t.Name)
		}
	case TArray, TOptional:
		return c.validType(t.Elem, line)
	case TFunc:
		for _, p := range t.Params {
			if err := c.validType(p, line); err != nil {
				return err
			}
		}
		return c.validType(t.Ret, line)
	case TGeneric:
		return c.errf(line, "unresolved generic type %s", t.Name)
	}
	return nil
}

func (c *checker) checkBlock(b *BlockStmt, sc *scope, ctx *fnCtx) error {
	inner := &scope{parent: sc, vars: make(map[string]binding)}
	for _, s := range b.Stmts {
		if err := c.checkStmt(s, inner, ctx); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) checkStmt(s Stmt, sc *scope, ctx *fnCtx) error {
	switch s := s.(type) {
	case *BlockStmt:
		return c.checkBlock(s, sc, ctx)

	case *VarStmt:
		if err := c.checkExpr(s.Init, sc, ctx); err != nil {
			return err
		}
		t := s.Type
		if t == nil {
			t = s.Init.TypeOf()
			if isNilType(t) {
				return c.errf(s.Line, "cannot infer type from nil; annotate %s", s.Name)
			}
			if t.Kind == TVoid {
				return c.errf(s.Line, "cannot bind %s to a Void expression", s.Name)
			}
		} else {
			if err := c.validType(t, s.Line); err != nil {
				return err
			}
			if !assignable(t, s.Init.TypeOf()) {
				return c.errf(s.Line, "cannot assign %s to %s of type %s",
					s.Init.TypeOf(), s.Name, t)
			}
		}
		s.Type = t
		sc.define(s.Name, binding{typ: t, mutable: s.Mutable})
		return nil

	case *AssignStmt:
		if err := c.checkExpr(s.RHS, sc, ctx); err != nil {
			return err
		}
		switch lhs := s.LHS.(type) {
		case *IdentExpr:
			b, _, found := lookup(sc, lhs.Name)
			if !found {
				return c.errf(s.Line, "assignment to undefined variable %s", lhs.Name)
			}
			if !b.mutable {
				return c.errf(s.Line, "cannot assign to let constant %s", lhs.Name)
			}
			if crossesClosure(sc, lhs.Name) {
				return c.errf(s.Line, "cannot assign to captured variable %s (captures are by value)", lhs.Name)
			}
			lhs.SetType(b.typ)
		case *FieldExpr, *IndexExpr:
			if err := c.checkExpr(s.LHS, sc, ctx); err != nil {
				return err
			}
		default:
			return c.errf(s.Line, "invalid assignment target")
		}
		if !assignable(s.LHS.TypeOf(), s.RHS.TypeOf()) {
			return c.errf(s.Line, "cannot assign %s to %s", s.RHS.TypeOf(), s.LHS.TypeOf())
		}
		return nil

	case *ExprStmt:
		return c.checkExpr(s.E, sc, ctx)

	case *IfStmt:
		if err := c.checkExpr(s.Cond, sc, ctx); err != nil {
			return err
		}
		thenScope := &scope{parent: sc, vars: make(map[string]binding)}
		if s.Bind != "" {
			ct := s.Cond.TypeOf()
			if ct.Kind != TOptional {
				return c.errf(s.Line, "if let needs an optional, got %s", ct)
			}
			thenScope.define(s.Bind, binding{typ: ct.Elem})
		} else if s.Cond.TypeOf().Kind != TBool {
			return c.errf(s.Line, "if condition must be Bool, got %s", s.Cond.TypeOf())
		}
		for _, st := range s.Then.Stmts {
			if err := c.checkStmt(st, thenScope, ctx); err != nil {
				return err
			}
		}
		if s.Else != nil {
			return c.checkStmt(s.Else, sc, ctx)
		}
		return nil

	case *WhileStmt:
		if err := c.checkExpr(s.Cond, sc, ctx); err != nil {
			return err
		}
		if s.Cond.TypeOf().Kind != TBool {
			return c.errf(s.Line, "while condition must be Bool, got %s", s.Cond.TypeOf())
		}
		ctx.loop++
		err := c.checkBlock(s.Body, sc, ctx)
		ctx.loop--
		return err

	case *ForStmt:
		if err := c.checkExpr(s.Lo, sc, ctx); err != nil {
			return err
		}
		if err := c.checkExpr(s.Hi, sc, ctx); err != nil {
			return err
		}
		if s.Lo.TypeOf().Kind != TInt || s.Hi.TypeOf().Kind != TInt {
			return c.errf(s.Line, "for range bounds must be Int")
		}
		loopScope := &scope{parent: sc, vars: make(map[string]binding)}
		loopScope.define(s.Var, binding{typ: IntType})
		ctx.loop++
		defer func() { ctx.loop-- }()
		for _, st := range s.Body.Stmts {
			if err := c.checkStmt(st, loopScope, ctx); err != nil {
				return err
			}
		}
		return nil

	case *ReturnStmt:
		want := ctx.ret
		if s.E == nil {
			if want.Kind != TVoid {
				return c.errf(s.Line, "return needs a %s value", want)
			}
			return nil
		}
		if err := c.checkExpr(s.E, sc, ctx); err != nil {
			return err
		}
		if want.Kind == TVoid {
			return c.errf(s.Line, "unexpected return value in Void function")
		}
		if !assignable(want, s.E.TypeOf()) {
			return c.errf(s.Line, "cannot return %s from function returning %s",
				s.E.TypeOf(), want)
		}
		return nil

	case *ThrowStmt:
		if !ctx.canThrow {
			return c.errf(s.Line, "throw outside a throwing context")
		}
		if err := c.checkExpr(s.E, sc, ctx); err != nil {
			return err
		}
		if s.E.TypeOf().Kind != TInt {
			return c.errf(s.Line, "throw takes an Int error code, got %s", s.E.TypeOf())
		}
		return nil

	case *DoCatchStmt:
		saved := ctx.canThrow
		ctx.canThrow = true
		if err := c.checkBlock(s.Body, sc, ctx); err != nil {
			ctx.canThrow = saved
			return err
		}
		ctx.canThrow = saved
		catchScope := &scope{parent: sc, vars: make(map[string]binding)}
		catchScope.define("error", binding{typ: IntType})
		for _, st := range s.Catch.Stmts {
			if err := c.checkStmt(st, catchScope, ctx); err != nil {
				return err
			}
		}
		return nil

	case *BreakStmt:
		if ctx.loop == 0 {
			return c.errf(s.Line, "break outside a loop")
		}
		return nil

	case *ContinueStmt:
		if ctx.loop == 0 {
			return c.errf(s.Line, "continue outside a loop")
		}
		return nil
	}
	return fmt.Errorf("sema: unknown statement %T", s)
}

func lookup(sc *scope, name string) (binding, *scope, bool) {
	for s := sc; s != nil; s = s.parent {
		if b, ok := s.vars[name]; ok {
			return b, s, true
		}
	}
	return binding{}, nil, false
}

// crossesClosure reports whether resolving name from sc crosses a closure
// boundary (i.e. the variable lives outside the current closure).
func crossesClosure(sc *scope, name string) bool {
	crossed := false
	for s := sc; s != nil; s = s.parent {
		if _, ok := s.vars[name]; ok {
			return crossed
		}
		if s.closureBoundary {
			crossed = true
		}
	}
	return false
}

func isNilType(t *Type) bool { return t != nil && t.Kind == TOptional && t.Elem == nil }

// assignable reports whether a value of type src may flow into dst.
func assignable(dst, src *Type) bool {
	if dst.Equal(src) {
		return true
	}
	// T -> T?
	if dst.Kind == TOptional && dst.Elem != nil && dst.Elem.Equal(src) {
		return true
	}
	// nil -> T? (for any inner)
	if isNilType(src) && dst.Kind == TOptional {
		return true
	}
	return false
}
