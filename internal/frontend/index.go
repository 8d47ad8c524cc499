package frontend

// ImportsIndex precomputes one build's worth of cross-module import sets.
// Building each module's import set from the other modules' declarations
// would walk them once per importer — O(modules²) map inserts, which dominates
// warm builds at paper scale (476 modules). The index walks every declaration
// exactly once and hands each module a view that shares the underlying maps,
// hiding the module's own declarations by owner tag.
//
// The index holds stub declarations only (see Stub): it never aliases a
// module's AST, so a module's parsed files can be type-checked while other
// modules import it.
//
// Cross-module duplicate top-level names are not meaningfully supported (the
// checker rejects duplicate classes, and duplicate functions would collide at
// link time); the index resolves them to the latest-module-wins entry.
type ImportsIndex struct {
	classes    map[string]*ClassDecl
	funcs      map[string]*FuncDecl
	classOwner map[string]int
	funcOwner  map[string]int
}

// NewImportsIndex indexes the exported interfaces of all modules in a build,
// given their parsed files.
func NewImportsIndex(modules ...[]*File) *ImportsIndex {
	stubs := make([]*Stub, len(modules))
	for i, files := range modules {
		stubs[i] = NewStub(files...)
	}
	return NewStubIndex(stubs...)
}

// NewStubIndex indexes the modules of a build by their stubs, in module
// order. The index takes ownership of the stubs.
func NewStubIndex(stubs ...*Stub) *ImportsIndex {
	ix := &ImportsIndex{
		classes:    make(map[string]*ClassDecl),
		funcs:      make(map[string]*FuncDecl),
		classOwner: make(map[string]int),
		funcOwner:  make(map[string]int),
	}
	for i, s := range stubs {
		for _, cd := range s.Classes {
			ix.classes[cd.Name] = cd
			ix.classOwner[cd.Name] = i
		}
		for _, fn := range s.Funcs {
			ix.funcs[fn.Name] = fn
			ix.funcOwner[fn.Name] = i
		}
	}
	return ix
}

// For returns module self's import set: every indexed declaration except
// self's own. The view shares the index's maps — O(1) to construct.
func (ix *ImportsIndex) For(self int) *Imports {
	return &Imports{
		Classes:    ix.classes,
		Funcs:      ix.funcs,
		classOwner: ix.classOwner,
		funcOwner:  ix.funcOwner,
		exclude:    self,
	}
}

// Func resolves an imported free function, honoring the view's exclusion.
func (imp *Imports) Func(name string) *FuncDecl {
	fn := imp.Funcs[name]
	if fn == nil {
		return nil
	}
	if imp.funcOwner != nil {
		if own, ok := imp.funcOwner[name]; ok && own == imp.exclude {
			return nil
		}
	}
	return fn
}

// EachClass visits every imported class, honoring the view's exclusion.
// Visit order is unspecified (callers insert into maps).
func (imp *Imports) EachClass(fn func(name string, cd *ClassDecl)) {
	for name, cd := range imp.Classes {
		if imp.classOwner != nil {
			if own, ok := imp.classOwner[name]; ok && own == imp.exclude {
				continue
			}
		}
		fn(name, cd)
	}
}
