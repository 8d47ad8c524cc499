package artifact

import (
	"crypto/sha256"
	"encoding/hex"

	"outliner/internal/frontend"
)

// EncodeStub serializes a module's exported-interface stub. A stub is
// canonical (frontend.NewStub sorts it), so the bytes are too: they are both
// what the iface cache stage stores and what InterfaceDigest hashes.
//
// Layout (after the 5-byte artifact header): counted classes — name, counted
// fields (name, type), the initializer signature, counted method signatures —
// then counted free-function signatures. A signature is name, throws flag,
// return type, counted parameters (name, type). A type is a kind byte
// followed by what the kind needs: a name (class, generic), an element
// (array, optional), or throws flag + counted parameter types + result
// (function); typeNone stands for an absent type.
func EncodeStub(s *frontend.Stub) []byte {
	e := newEnc(kindStub)
	e.u(uint64(len(s.Classes)))
	for _, cd := range s.Classes {
		e.s(cd.Name)
		e.u(uint64(len(cd.Fields)))
		for _, f := range cd.Fields {
			e.s(f.Name)
			encodeType(e, f.Type)
		}
		encodeSignature(e, cd.Init)
		e.u(uint64(len(cd.Methods)))
		for _, m := range cd.Methods {
			encodeSignature(e, m)
		}
	}
	e.u(uint64(len(s.Funcs)))
	for _, fn := range s.Funcs {
		encodeSignature(e, fn)
	}
	return e.done()
}

// InterfaceDigest is the dependency fingerprint importers see of a module:
// the hash of its encoded stub. Body edits leave it unchanged; any change an
// importer could observe alters it.
func InterfaceDigest(encodedStub []byte) string {
	sum := sha256.Sum256(encodedStub)
	return hex.EncodeToString(sum[:])
}

func encodeSignature(e *enc, fn *frontend.FuncDecl) {
	e.s(fn.Name)
	e.bool(fn.Throws)
	encodeType(e, fn.Ret)
	e.u(uint64(len(fn.Params)))
	for _, p := range fn.Params {
		// Parameter names are argument labels at call sites, so they are
		// part of the interface.
		e.s(p.Name)
		encodeType(e, p.Type)
	}
}

// typeNone encodes a nil *frontend.Type; it is no frontend.TypeKind.
const typeNone = 0xff

func encodeType(e *enc, t *frontend.Type) {
	if t == nil {
		e.byte(typeNone)
		return
	}
	e.byte(byte(t.Kind))
	switch t.Kind {
	case frontend.TClass, frontend.TGeneric:
		e.s(t.Name)
	case frontend.TArray, frontend.TOptional:
		encodeType(e, t.Elem)
	case frontend.TFunc:
		e.bool(t.Throws)
		e.u(uint64(len(t.Params)))
		for _, p := range t.Params {
			encodeType(e, p)
		}
		encodeType(e, t.Ret)
	}
}

// DecodeStub reconstructs a stub encoded by EncodeStub. It is held to the
// standard of the other decoders: truncation, impossible counts, unknown or
// over-nested types, duplicate class, method or function names (the ones the
// type checker rejects too), and trailing bytes are errors, never panics.
func DecodeStub(data []byte) (*frontend.Stub, error) {
	d := newDec(data, kindStub)
	s := &frontend.Stub{}
	nc := d.count()
	classes := make(dupSet, nc)
	for i := 0; i < nc && d.err == nil; i++ {
		cd := &frontend.ClassDecl{Name: d.s()}
		classes.add(d, "class", cd.Name)
		nf := d.count()
		for j := 0; j < nf && d.err == nil; j++ {
			cd.Fields = append(cd.Fields, frontend.FieldDecl{Name: d.s(), Type: decodeType(d, 0)})
		}
		cd.Init = decodeSignature(d, cd.Name)
		cd.Init.IsInit = true
		nm := d.count()
		methods := make(dupSet, nm)
		for j := 0; j < nm && d.err == nil; j++ {
			m := decodeSignature(d, cd.Name)
			methods.add(d, "method", m.Name)
			cd.Methods = append(cd.Methods, m)
		}
		s.Classes = append(s.Classes, cd)
	}
	nf := d.count()
	funcs := make(dupSet, nf)
	for i := 0; i < nf && d.err == nil; i++ {
		fn := decodeSignature(d, "")
		funcs.add(d, "function", fn.Name)
		s.Funcs = append(s.Funcs, fn)
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return s, nil
}

// dupSet rejects a name's second appearance in one namespace.
type dupSet map[string]struct{}

func (s dupSet) add(d *dec, what, name string) {
	if _, dup := s[name]; dup {
		d.fail("duplicate %s %q", what, name)
	}
	s[name] = struct{}{}
}

func decodeSignature(d *dec, class string) *frontend.FuncDecl {
	fn := &frontend.FuncDecl{Name: d.s(), Throws: d.bool(), Ret: decodeType(d, 0), Class: class}
	np := d.count()
	for i := 0; i < np && d.err == nil; i++ {
		fn.Params = append(fn.Params, frontend.Param{Name: d.s(), Type: decodeType(d, 0)})
	}
	return fn
}

// maxTypeDepth bounds decodeType's recursion: one byte of input must not buy
// one stack frame without limit.
const maxTypeDepth = 64

func decodeType(d *dec, depth int) *frontend.Type {
	if depth > maxTypeDepth {
		d.fail("type nested deeper than %d", maxTypeDepth)
		return nil
	}
	kind := d.byte()
	if d.err != nil || kind == typeNone {
		return nil
	}
	switch frontend.TypeKind(kind) {
	case frontend.TInt:
		return frontend.IntType
	case frontend.TBool:
		return frontend.BoolType
	case frontend.TString:
		return frontend.StringType
	case frontend.TVoid:
		return frontend.VoidType
	case frontend.TClass, frontend.TGeneric:
		return &frontend.Type{Kind: frontend.TypeKind(kind), Name: d.s()}
	case frontend.TArray, frontend.TOptional:
		return &frontend.Type{Kind: frontend.TypeKind(kind), Elem: decodeType(d, depth+1)}
	case frontend.TFunc:
		t := &frontend.Type{Kind: frontend.TFunc, Throws: d.bool()}
		np := d.count()
		for i := 0; i < np && d.err == nil; i++ {
			t.Params = append(t.Params, decodeType(d, depth+1))
		}
		t.Ret = decodeType(d, depth+1)
		return t
	}
	d.fail("unknown type kind %d", kind)
	return nil
}
