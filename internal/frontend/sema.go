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

// Check type-checks files into one module. Generic functions are
// monomorphized: each explicit instantiation `f<Int>(...)` produces a
// specialized copy `f$Int` — the mechanism behind the paper's
// closure-specialization replication pattern (§IV, Listing 9).
func Check(module string, files ...*File) (*Program, error) {
	return CheckModule(module, nil, files...)
}

// CheckModule is Check with cross-module imports.
func CheckModule(module string, imports *Imports, files ...*File) (*Program, error) {
	c := &checker{
		prog: &Program{
			Module:  module,
			Classes: make(map[string]*ClassDecl),
			Funcs:   make(map[string]*FuncDecl),
		},
		generics:        make(map[string]*FuncDecl),
		imports:         imports,
		importedClasses: make(map[string]bool),
	}
	if imports != nil {
		imports.EachClass(func(name string, cd *ClassDecl) {
			c.prog.Classes[name] = cd
			c.importedClasses[name] = true
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
	imports  *Imports
	// importedClasses tracks classes that came from imports: visible for
	// typing, but their inits/methods are compiled by their home module.
	importedClasses map[string]bool
}

// importedFunc resolves a free function from the import set.
func (c *checker) importedFunc(name string) *FuncDecl {
	if c.imports == nil {
		return nil
	}
	return c.imports.Func(name)
}

// classIsImported reports whether name came from imports.
func (c *checker) classIsImported(name string) bool {
	return c.importedClasses[name]
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
	sub := make(map[string]*Type, len(typeArgs))
	for i, g := range tmpl.Generics {
		sub[g] = typeArgs[i]
	}
	inst := CloneFunc(tmpl)
	inst.Name = sym
	inst.Generics = nil
	for i := range inst.Params {
		inst.Params[i].Type = substType(inst.Params[i].Type, sub)
	}
	inst.Ret = substType(inst.Ret, sub)
	substBlock(inst.Body, sub)
	c.prog.Funcs[sym] = inst
	c.prog.FuncOrder = append(c.prog.FuncOrder, sym)
	c.queue = append(c.queue, inst)
	return sym, nil
}

func substType(t *Type, sub map[string]*Type) *Type {
	if t == nil {
		return nil
	}
	switch t.Kind {
	case TGeneric:
		if r, ok := sub[t.Name]; ok {
			return r
		}
		return t
	case TArray:
		return ArrayType(substType(t.Elem, sub))
	case TOptional:
		return OptionalType(substType(t.Elem, sub))
	case TFunc:
		nt := &Type{Kind: TFunc, Throws: t.Throws, Ret: substType(t.Ret, sub)}
		for _, p := range t.Params {
			nt.Params = append(nt.Params, substType(p, sub))
		}
		return nt
	}
	return t
}

// substBlock rewrites type annotations inside a cloned generic body.
func substBlock(b *BlockStmt, sub map[string]*Type) {
	if b == nil {
		return
	}
	for _, s := range b.Stmts {
		substStmt(s, sub)
	}
}

func substStmt(s Stmt, sub map[string]*Type) {
	switch s := s.(type) {
	case *BlockStmt:
		substBlock(s, sub)
	case *VarStmt:
		s.Type = substType(s.Type, sub)
		substExpr(s.Init, sub)
	case *AssignStmt:
		substExpr(s.LHS, sub)
		substExpr(s.RHS, sub)
	case *ExprStmt:
		substExpr(s.E, sub)
	case *IfStmt:
		substExpr(s.Cond, sub)
		substBlock(s.Then, sub)
		if s.Else != nil {
			substStmt(s.Else, sub)
		}
	case *WhileStmt:
		substExpr(s.Cond, sub)
		substBlock(s.Body, sub)
	case *ForStmt:
		substExpr(s.Lo, sub)
		substExpr(s.Hi, sub)
		substBlock(s.Body, sub)
	case *ReturnStmt:
		if s.E != nil {
			substExpr(s.E, sub)
		}
	case *ThrowStmt:
		substExpr(s.E, sub)
	case *DoCatchStmt:
		substBlock(s.Body, sub)
		substBlock(s.Catch, sub)
	}
}

func substExpr(e Expr, sub map[string]*Type) {
	switch e := e.(type) {
	case *UnaryExpr:
		substExpr(e.X, sub)
	case *BinaryExpr:
		substExpr(e.L, sub)
		substExpr(e.R, sub)
	case *CallExpr:
		substExpr(e.Fn, sub)
		for i := range e.TypeArgs {
			e.TypeArgs[i] = substType(e.TypeArgs[i], sub)
		}
		for _, a := range e.Args {
			substExpr(a, sub)
		}
	case *MethodCallExpr:
		substExpr(e.Recv, sub)
		for _, a := range e.Args {
			substExpr(a, sub)
		}
	case *FieldExpr:
		substExpr(e.Recv, sub)
	case *IndexExpr:
		substExpr(e.Recv, sub)
		substExpr(e.Index, sub)
	case *ArrayLit:
		for _, el := range e.Elems {
			substExpr(el, sub)
		}
	case *ClosureExpr:
		for i := range e.Params {
			e.Params[i].Type = substType(e.Params[i].Type, sub)
		}
		e.Ret = substType(e.Ret, sub)
		substBlock(e.Body, sub)
	}
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
