package artifact

import (
	"bytes"
	"testing"

	"outliner/internal/frontend"
)

func parse(t testing.TB, src string) *frontend.File {
	t.Helper()
	f, err := frontend.ParseFile("test.sl", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return f
}

// digestOf parses files as one module and returns its interface digest: the
// hash of its encoded stub.
func digestOf(t testing.TB, srcs ...string) string {
	t.Helper()
	files := make([]*frontend.File, len(srcs))
	for i, src := range srcs {
		files[i] = parse(t, src)
	}
	return InterfaceDigest(EncodeStub(frontend.NewStub(files...)))
}

const digestBaseSrc = `
class Point {
  var x: Int
  var y: Int
  func dist() -> Int { return self.x * self.x + self.y * self.y }
}
func shift(p: Point, by: Int) -> Point { return Point(x: p.x + by, y: p.y + by) }
`

// A body-only edit — the incremental-build event the digest exists for —
// must leave the digest unchanged, whether it rewrites statements, renames
// locals, or only adds comments.
func TestInterfaceDigestBodyInvariance(t *testing.T) {
	base := digestOf(t, digestBaseSrc)
	for name, src := range map[string]string{
		"statement rewrite": `
class Point {
  var x: Int
  var y: Int
  func dist() -> Int { return 0 - (self.y + self.x) }
}
func shift(p: Point, by: Int) -> Point { return Point(x: 7, y: p.y) }
`,
		"renamed locals": `
class Point {
  var x: Int
  var y: Int
  func dist() -> Int { let a = self.x let b = self.y return a * a + b * b }
}
func shift(p: Point, by: Int) -> Point { let q = Point(x: p.x + by, y: p.y + by) return q }
`,
		"comments appended": digestBaseSrc + "\n// trailing comment\n",
	} {
		if got := digestOf(t, src); got != base {
			t.Errorf("%s changed the digest", name)
		}
	}
}

// Any observable signature change must alter the digest: these are exactly
// the edits after which importers must recompile.
func TestInterfaceDigestSignatureSensitivity(t *testing.T) {
	base := digestOf(t, digestBaseSrc)
	for name, src := range map[string]string{
		"renamed func": `
class Point {
  var x: Int
  var y: Int
  func dist() -> Int { return self.x * self.x + self.y * self.y }
}
func shifted(p: Point, by: Int) -> Point { return Point(x: p.x + by, y: p.y + by) }
`,
		"renamed param (argument label)": `
class Point {
  var x: Int
  var y: Int
  func dist() -> Int { return self.x * self.x + self.y * self.y }
}
func shift(p: Point, offset: Int) -> Point { return Point(x: p.x + offset, y: p.y + offset) }
`,
		"changed param type": `
class Point {
  var x: Int
  var y: Int
  func dist() -> Int { return self.x * self.x + self.y * self.y }
}
func shift(p: Point, by: String) -> Point { return Point(x: p.x + by.count, y: p.y) }
`,
		"changed return type": `
class Point {
  var x: Int
  var y: Int
  func dist() -> Int { return self.x * self.x + self.y * self.y }
}
func shift(p: Point, by: Int) -> Int { return p.x + by }
`,
		"became throwing": `
class Point {
  var x: Int
  var y: Int
  func dist() -> Int { return self.x * self.x + self.y * self.y }
}
func shift(p: Point, by: Int) throws -> Point { return Point(x: p.x + by, y: p.y + by) }
`,
		"added free func": digestBaseSrc + "\nfunc extra() -> Int { return 1 }\n",
		"added field": `
class Point {
  var x: Int
  var y: Int
  var z: Int
  func dist() -> Int { return self.x * self.x + self.y * self.y }
}
func shift(p: Point, by: Int) -> Point { return Point(x: p.x + by, y: p.y + by, z: 0) }
`,
		"reordered fields": `
class Point {
  var y: Int
  var x: Int
  func dist() -> Int { return self.x * self.x + self.y * self.y }
}
func shift(p: Point, by: Int) -> Point { return Point(y: p.y + by, x: p.x + by) }
`,
		"renamed method": `
class Point {
  var x: Int
  var y: Int
  func dist2() -> Int { return self.x * self.x + self.y * self.y }
}
func shift(p: Point, by: Int) -> Point { return Point(x: p.x + by, y: p.y + by) }
`,
		"explicit init over memberwise": `
class Point {
  var x: Int
  var y: Int
  init(scale: Int) { self.x = scale self.y = scale }
  func dist() -> Int { return self.x * self.x + self.y * self.y }
}
func shift(p: Point, by: Int) -> Point { return Point(scale: by) }
`,
	} {
		if got := digestOf(t, src); got == base {
			t.Errorf("%s did not change the digest", name)
		}
	}
}

// Generic free functions never cross module boundaries (they are compiled
// per instantiation inside their own module), so they are not interface.
func TestInterfaceDigestExcludesGenericFuncs(t *testing.T) {
	withGeneric := digestBaseSrc + "\nfunc twice<T>(v: T) -> T { return v }\n"
	if digestOf(t, withGeneric) != digestOf(t, digestBaseSrc) {
		t.Fatal("generic free func changed the digest; generics never cross module boundaries")
	}
}

// The digest must not depend on which file of the module declares what, nor
// on file order: Imports exposes a flat module-wide namespace.
func TestInterfaceDigestFileOrderInvariance(t *testing.T) {
	const a = "func alpha(x: Int) -> Int { return x }\n"
	const b = "class Box { var v: Int }\nfunc beta() -> Int { return 2 }\n"
	if digestOf(t, a, b) != digestOf(t, b, a) {
		t.Fatal("digest depends on file order")
	}
}

// A class with no explicit initializer must hash identically before and
// after the checker synthesizes one in its AST: the stub carries the
// memberwise signature either way.
func TestInterfaceDigestMemberwiseInitNormalization(t *testing.T) {
	const src = `
class Box {
  var v: Int
  var tag: String
}
`
	fresh := digestOf(t, src)
	analyzed := parse(t, src)
	if _, err := frontend.CheckModule("M", nil, analyzed); err != nil {
		t.Fatal(err)
	}
	if analyzed.Classes[0].Init == nil {
		t.Fatal("Check did not synthesize a memberwise init; the test no longer exercises normalization")
	}
	if InterfaceDigest(EncodeStub(frontend.NewStub(analyzed))) != fresh {
		t.Fatal("digest changed after memberwise-init synthesis")
	}
}

// The digest is part of persistent cache keys, so it must be stable across
// process restarts and releases: pin it. It is the hash of the encoded stub,
// so it pins the stub layout (and frontend.TypeKind's numbering) too. If this
// golden value changes, bump SchemaVersion — old cache entries were keyed
// with the old digest.
func TestInterfaceDigestGolden(t *testing.T) {
	const want = "425b4d9c2c748c4e74a23cec9c809989bbeee11f9710c00dbcc96f07c17e8f56"
	if got := digestOf(t, digestBaseSrc); got != want {
		t.Fatalf("digest drifted: got %s want %s", got, want)
	}
}

// stubSampleSrc exercises every encoded shape: explicit and memberwise
// initializers, throwing signatures, and array, optional, function and class
// types.
const stubSampleSrc = `
class Node {
  var value: Int
  var next: Node?
  var tags: [String]
}
class Store {
  var head: Node?
  init(seed: Int) throws { self.head = nil }
  func visit(f: (Node, Int) throws -> Bool, depth: Int) throws -> [Node?] { return [] }
  func size() -> Int { return 0 }
}
func build(n: Int, flag: Bool) -> Store? { return nil }
func log(msg: String) { }
func generic<T>(v: T) -> T { return v }
`

func sampleStub(t testing.TB) *frontend.Stub {
	return frontend.NewStub(parse(t, stubSampleSrc))
}

// Encoding is canonical, so a decode that re-encodes to the original bytes
// proves the round trip lossless field by field.
func TestStubRoundTrip(t *testing.T) {
	enc := EncodeStub(sampleStub(t))
	got, err := DecodeStub(enc)
	if err != nil {
		t.Fatalf("DecodeStub: %v", err)
	}
	if !bytes.Equal(EncodeStub(got), enc) {
		t.Fatal("stub round trip is not canonical: re-encoded bytes differ")
	}
	if len(got.Classes) != 2 || len(got.Funcs) != 2 {
		t.Fatalf("decoded shape: %d classes, %d funcs (generic funcs must be absent)", len(got.Classes), len(got.Funcs))
	}
	store := got.Classes[1]
	if store.Name != "Store" || !store.Init.IsInit || !store.Init.Throws || store.Init.Class != "Store" {
		t.Fatalf("decoded init lost its identity: %+v", store.Init)
	}
	if m := store.Methods[1]; m.Name != "visit" || m.Class != "Store" || m.Params[0].Type.String() != "(Node, Int) throws -> Bool" {
		t.Fatalf("decoded method signature: %+v", m)
	}
	if node := got.Classes[0]; node.Init == nil || len(node.Init.Params) != 3 || node.FieldIndex("tags") != 2 {
		t.Fatalf("decoded memberwise init or field order: %+v", node)
	}
}

// A stub carries no bodies and no positions: whatever the parser recorded of
// either must not survive into it.
func TestStubHasNoBodiesOrPositions(t *testing.T) {
	s := sampleStub(t)
	check := func(fn *frontend.FuncDecl) {
		if fn.Body != nil || fn.Line != 0 {
			t.Errorf("%s.%s carries a body or a line", fn.Class, fn.Name)
		}
	}
	for _, cd := range s.Classes {
		if cd.Line != 0 {
			t.Errorf("class %s carries a line", cd.Name)
		}
		check(cd.Init)
		for _, m := range cd.Methods {
			check(m)
		}
	}
	for _, fn := range s.Funcs {
		check(fn)
	}
}

func TestStubDecodeTruncationsError(t *testing.T) {
	enc := EncodeStub(sampleStub(t))
	for i := 0; i < len(enc); i++ {
		if _, err := DecodeStub(enc[:i]); err == nil {
			t.Fatalf("DecodeStub accepted a %d-byte truncation of %d bytes", i, len(enc))
		}
	}
}

func TestStubDecodeBitFlipsNeverPanic(t *testing.T) {
	enc := EncodeStub(sampleStub(t))
	for i := range enc {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0xff
		DecodeStub(mut)
	}
}

// hostileStub hand-assembles a stub artifact body after a valid header.
func hostileStub(body func(e *enc)) []byte {
	e := newEnc(kindStub)
	body(e)
	return e.b
}

func TestStubDecodeRejectsHostileBytes(t *testing.T) {
	sig := func(e *enc, name string) {
		e.s(name)
		e.bool(false)
		e.byte(byte(frontend.TVoid))
		e.u(0)
	}
	class := func(e *enc, name string, methods ...string) {
		e.s(name)
		e.u(0)
		sig(e, "init")
		e.u(uint64(len(methods)))
		for _, m := range methods {
			sig(e, m)
		}
	}
	valid := hostileStub(func(e *enc) {
		e.u(1)
		class(e, "A", "m", "n")
		e.u(1)
		sig(e, "f")
	})
	if _, err := DecodeStub(valid); err != nil {
		t.Fatalf("the hand-assembled baseline must decode: %v", err)
	}
	for name, data := range map[string][]byte{
		"class count bomb": hostileStub(func(e *enc) { e.u(1 << 40) }),
		"param count bomb": hostileStub(func(e *enc) {
			e.u(0)
			e.u(1)
			e.s("f")
			e.bool(false)
			e.byte(byte(frontend.TVoid))
			e.u(1 << 40)
		}),
		"string length bomb": hostileStub(func(e *enc) { e.u(1); e.u(1 << 40) }),
		"duplicate class":    hostileStub(func(e *enc) { e.u(2); class(e, "A"); class(e, "A"); e.u(0) }),
		"duplicate method":   hostileStub(func(e *enc) { e.u(1); class(e, "A", "m", "m"); e.u(0) }),
		"duplicate function": hostileStub(func(e *enc) { e.u(0); e.u(2); sig(e, "f"); sig(e, "f") }),
		"unknown type kind": hostileStub(func(e *enc) {
			e.u(0)
			e.u(1)
			e.s("f")
			e.bool(false)
			e.byte(0x7f)
			e.u(0)
		}),
		"type nesting bomb": hostileStub(func(e *enc) {
			e.u(0)
			e.u(1)
			e.s("f")
			e.bool(false)
			for i := 0; i < 1<<16; i++ {
				e.byte(byte(frontend.TArray))
			}
		}),
		"trailing bytes": append(append([]byte(nil), valid...), 0),
		"wrong kind":     EncodeModule(sampleModule()),
	} {
		if _, err := DecodeStub(data); err == nil {
			t.Errorf("DecodeStub accepted %s", name)
		}
	}
}

func FuzzDecodeStub(f *testing.F) {
	f.Add(EncodeStub(sampleStub(f)))
	f.Add(hostileStub(func(e *enc) { e.u(1 << 40) }))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeStub(data)
		if err != nil {
			return
		}
		// Whatever decodes must re-encode to something that decodes.
		if _, err := DecodeStub(EncodeStub(s)); err != nil {
			t.Fatalf("re-encoded stub does not decode: %v", err)
		}
	})
}
