package frontend

import "sort"

// Stub is a module's exported interface: everything another module can
// observe through Imports, and nothing else — classes (name, fields in
// declaration order, initializer signature, method signatures) and
// non-generic free functions (name, parameters including argument labels,
// return type, throws). Function bodies, source positions, and generic free
// functions (which never cross module boundaries) are absent, so a body-only
// edit leaves a module's stub unchanged while any signature change alters it.
//
// The stub is the single definition of "interface": import sets are built
// from stubs (NewStubIndex), the build cache stores encoded stubs
// (artifact.EncodeStub), and the llir cache key hashes those same bytes
// (artifact.InterfaceDigest) — what an importer can read and what
// invalidates it cannot drift apart.
//
// A stub is canonical: classes, methods and functions are sorted by name, so
// it does not depend on which file of the module declares what. Field order
// matters to importers (FieldIndex drives codegen offsets) and is kept. Init
// is never nil: a class without an explicit initializer carries the
// memberwise signature ensureMemberwiseInit would synthesize. Declarations
// are private copies (types, being immutable, are shared), so an index built
// from stubs never aliases a module's AST.
type Stub struct {
	Classes []*ClassDecl
	Funcs   []*FuncDecl
}

// NewStub extracts the exported interface of one module's parsed files.
func NewStub(files ...*File) *Stub {
	s := &Stub{}
	for _, f := range files {
		for _, cd := range f.Classes {
			sc := &ClassDecl{Name: cd.Name, Fields: append([]FieldDecl(nil), cd.Fields...)}
			if cd.Init != nil {
				sc.Init = signature(cd.Init)
			} else {
				ensureMemberwiseInit(sc)
			}
			for _, m := range cd.Methods {
				sc.Methods = append(sc.Methods, signature(m))
			}
			sortFuncs(sc.Methods)
			s.Classes = append(s.Classes, sc)
		}
		for _, fn := range f.Funcs {
			if len(fn.Generics) == 0 {
				s.Funcs = append(s.Funcs, signature(fn))
			}
		}
	}
	sort.SliceStable(s.Classes, func(i, j int) bool { return s.Classes[i].Name < s.Classes[j].Name })
	sortFuncs(s.Funcs)
	return s
}

// signature copies what an importer reads of a function declaration.
func signature(fn *FuncDecl) *FuncDecl {
	return &FuncDecl{
		Name:   fn.Name,
		Params: append([]Param(nil), fn.Params...),
		Ret:    fn.Ret,
		Throws: fn.Throws,
		Class:  fn.Class,
		IsInit: fn.IsInit,
	}
}

func sortFuncs(fns []*FuncDecl) {
	sort.SliceStable(fns, func(i, j int) bool { return fns[i].Name < fns[j].Name })
}
