package frontend

import (
	"errors"
	"strings"
	"testing"
)

func parse(t *testing.T, src string) *File {
	t.Helper()
	f, err := ParseFile("test.sl", src)
	if err != nil {
		t.Fatalf("ParseFile: %v", err)
	}
	return f
}

func check(t *testing.T, src string) *Program {
	t.Helper()
	f := parse(t, src)
	p, err := Check("TestModule", f)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	return p
}

func checkErr(t *testing.T, src, wantSub string) {
	t.Helper()
	f, err := ParseFile("test.sl", src)
	if err == nil {
		_, err = Check("TestModule", f)
	}
	if err == nil {
		t.Fatalf("expected error containing %q, got none", wantSub)
	}
	if !strings.Contains(err.Error(), wantSub) {
		t.Fatalf("error %q does not contain %q", err, wantSub)
	}
}

func TestLexBasics(t *testing.T) {
	toks, err := NewLexer("t", `func f(x: Int) -> Int { return x + 42 } // done`).Lex()
	if err != nil {
		t.Fatal(err)
	}
	kinds := []TokKind{TokFunc, TokIdent, TokLParen, TokIdent, TokColon, TokIdent,
		TokRParen, TokArrow, TokIdent, TokLBrace, TokReturn, TokIdent, TokPlus,
		TokInt, TokRBrace, TokEOF}
	if len(toks) != len(kinds) {
		t.Fatalf("got %d tokens, want %d: %v", len(toks), len(kinds), toks)
	}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Errorf("token %d = %v, want kind %d", i, toks[i], k)
		}
	}
}

func TestLexOperatorsAndComments(t *testing.T) {
	src := "a == b != c <= d >= e && f || g ..< /* block /* nested */ */ ! ->"
	toks, err := NewLexer("t", src).Lex()
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokKind
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
	}
	want := []TokKind{TokIdent, TokEq, TokIdent, TokNe, TokIdent, TokLe, TokIdent,
		TokGe, TokIdent, TokAnd, TokIdent, TokOr, TokIdent, TokRangeUpto,
		TokNot, TokArrow, TokEOF}
	if len(kinds) != len(want) {
		t.Fatalf("kinds = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("token %d kind = %d, want %d", i, kinds[i], want[i])
		}
	}
}

func TestLexStringEscapes(t *testing.T) {
	toks, err := NewLexer("t", `"a\n\t\"\\"`).Lex()
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Text != "a\n\t\"\\" {
		t.Errorf("string = %q", toks[0].Text)
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{`"unterminated`, `@`, `/* open`, `"\q"`, `a .. b`} {
		if _, err := NewLexer("t", src).Lex(); err == nil {
			t.Errorf("Lex(%q) succeeded, want error", src)
		}
	}
}

// TestParseReportsFirstError: the parser lexes on demand and stops at the
// first lexical error. A source whose only error is lexical reports the
// lexer's positioned error, wherever the parse stood when it reached it
// (top level, inside a block, an unfinished expression, a backtracking type
// argument list). A syntax error before the first lexical error is reported
// instead, because it comes first in the source.
func TestParseReportsFirstError(t *testing.T) {
	for _, src := range []string{
		"func main() { print(1) }\n@",
		"func main() {\n  let a = 1 @ 2\n}",
		"func main() {\n  print(\"open)\n}",
		"func main() {\n  print(1) /* open",
		"func main() {\n  let s = \"\\q\"\n}",
		"func main() {\n  let r = a .. b\n}",
		"func main() {\n  let b = f<Int @",
	} {
		_, lexErr := NewLexer("test.sl", src).Lex()
		if lexErr == nil {
			t.Fatalf("%q lexes cleanly", src)
		}
		_, err := ParseFile("test.sl", src)
		var fe *Error
		if !errors.As(err, &fe) || err.Error() != lexErr.Error() {
			t.Errorf("ParseFile(%q) = %v, want the lexer's %v", src, err, lexErr)
		}
	}

	src := "func main() {\n  let = 1\n}\n@"
	_, err := ParseFile("test.sl", src)
	var fe *Error
	if !errors.As(err, &fe) || fe.Line != 2 || !strings.Contains(fe.Msg, "expected") {
		t.Errorf("ParseFile(%q) = %v, want the syntax error on line 2", src, err)
	}
}

func TestParseClassAndMethods(t *testing.T) {
	f := parse(t, `
class Point {
  var x: Int
  var y: Int
  init(x: Int, y: Int) {
    self.x = x
    self.y = y
  }
  func norm() -> Int { return self.x * self.x + self.y * self.y }
}
func main() {
  let p = Point(x: 3, y: 4)
  print(p.norm())
}
`)
	if len(f.Classes) != 1 || len(f.Funcs) != 1 {
		t.Fatalf("classes=%d funcs=%d", len(f.Classes), len(f.Funcs))
	}
	cd := f.Classes[0]
	if cd.Name != "Point" || len(cd.Fields) != 2 || cd.Init == nil || len(cd.Methods) != 1 {
		t.Fatalf("class parse wrong: %+v", cd)
	}
}

func TestParsePrecedence(t *testing.T) {
	f := parse(t, `func f(a: Int, b: Int, c: Int) -> Bool { return a + b * c < a * b + c }`)
	ret := f.Funcs[0].Body.Stmts[0].(*ReturnStmt)
	cmp := ret.E.(*BinaryExpr)
	if cmp.Op != TokLt {
		t.Fatalf("top op = %v", cmp.Op)
	}
	l := cmp.L.(*BinaryExpr)
	if l.Op != TokPlus {
		t.Fatalf("lhs op = %v", l.Op)
	}
	if _, ok := l.R.(*BinaryExpr); !ok {
		t.Fatal("b*c must bind tighter than +")
	}
}

func TestParseClosureAndGenerics(t *testing.T) {
	f := parse(t, `
func apply(f: (Int) -> Int, x: Int) -> Int { return f(x) }
func identity<T>(x: T) -> T { return x }
func main() {
  let y = apply(f: { (v: Int) -> Int in return v * 2 }, x: 21)
  let z = identity<Int>(5)
  print(y + z)
}
`)
	if len(f.Funcs) != 3 {
		t.Fatalf("funcs = %d", len(f.Funcs))
	}
	if g := f.Funcs[1]; len(g.Generics) != 1 || g.Generics[0] != "T" {
		t.Fatalf("generics = %v", g.Generics)
	}
	call := f.Funcs[2].Body.Stmts[1].(*VarStmt).Init.(*CallExpr)
	if len(call.TypeArgs) != 1 || call.TypeArgs[0].Kind != TInt {
		t.Fatalf("type args = %v", call.TypeArgs)
	}
}

func TestGenericAngleVsComparison(t *testing.T) {
	// a < b is a comparison, not a failed generic call.
	f := parse(t, `func f(a: Int, b: Int) -> Bool { return a < b }`)
	ret := f.Funcs[0].Body.Stmts[0].(*ReturnStmt)
	if be, ok := ret.E.(*BinaryExpr); !ok || be.Op != TokLt {
		t.Fatalf("got %T", ret.E)
	}
}

func TestParseErrorsPositioned(t *testing.T) {
	_, err := ParseFile("bad.sl", "func f( {")
	if err == nil {
		t.Fatal("no error")
	}
	if !strings.Contains(err.Error(), "bad.sl:1:") {
		t.Errorf("error lacks position: %v", err)
	}
}

func TestSemaHappyPath(t *testing.T) {
	p := check(t, `
class Node {
  var value: Int
  var next: Node?
  init(value: Int) {
    self.value = value
    self.next = nil
  }
}
func sum(head: Node?) -> Int {
  var total = 0
  var cur = head
  while cur != nil {
    if let n = cur {
      total = total + n.value
      cur = n.next
    }
  }
  return total
}
func main() {
  let a = Node(value: 1)
  let b = Node(value: 2)
  a.next = b
  print(sum(head: a))
}
`)
	if _, ok := p.Funcs["Node.init"]; !ok {
		t.Error("missing Node.init")
	}
	if _, ok := p.Funcs["sum"]; !ok {
		t.Error("missing sum")
	}
}

func TestSemaMonomorphization(t *testing.T) {
	p := check(t, `
func pick<T>(a: T, b: T, first: Bool) -> T {
  if first { return a }
  return b
}
func main() {
  print(pick<Int>(a: 1, b: 2, first: true))
  let s = pick<String>(a: "x", b: "y", first: false)
  print(s)
}
`)
	if _, ok := p.Funcs["pick$Int"]; !ok {
		t.Errorf("missing pick$Int; have %v", p.FuncOrder)
	}
	if _, ok := p.Funcs["pick$String"]; !ok {
		t.Errorf("missing pick$String; have %v", p.FuncOrder)
	}
	inst := p.Funcs["pick$Int"]
	if inst.Params[0].Type.Kind != TInt || inst.Ret.Kind != TInt {
		t.Errorf("specialization types wrong: %v -> %v", inst.Params[0].Type, inst.Ret)
	}
}

func TestSemaClosureCaptures(t *testing.T) {
	p := check(t, `
func make(base: Int) -> Int {
  let scale = 3
  let f = { (x: Int) -> Int in return x * scale + base }
  return f(10)
}
`)
	fn := p.Funcs["make"]
	cl := fn.Body.Stmts[1].(*VarStmt).Init.(*ClosureExpr)
	if len(cl.Captures) != 2 {
		t.Fatalf("captures = %v, want [scale base]", cl.Captures)
	}
}

func TestSemaThrowsDiscipline(t *testing.T) {
	check(t, `
func risky(x: Int) throws -> Int {
  if x < 0 { throw 7 }
  return x
}
func main() {
  do {
    let v = try risky(x: 5)
    print(v)
  } catch {
    print(error)
  }
}
`)
	checkErr(t, `
func risky() throws -> Int { throw 1 }
func main() { let v = risky() print(v) }
`, "needs try")
	checkErr(t, `
func safe() -> Int { return 1 }
func main() { let v = try safe() print(v) }
`, "try on non-throwing")
	checkErr(t, `
func risky() throws -> Int { throw 1 }
func main() { let v = try risky() print(v) }
`, "try outside a throwing context")
	checkErr(t, `
func f() { throw 3 }
`, "throw outside")
}

func TestSemaTypeErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{`func f() { let x = 1 + true }`, "arithmetic needs Int"},
		{`func f() { if 3 { } }`, "must be Bool"},
		{`func f() { let x = 1 x = 2 }`, "cannot assign to let"},
		{`func f() { var x = 1 x = "s" }`, "cannot assign String"},
		{`func f() { y = 1 }`, "undefined variable"},
		{`func f() { print(undefinedName) }`, "undefined name"},
		{`func f() -> Int { return }`, "return needs"},
		{`func f() { return 3 }`, "unexpected return value"},
		{`func f() { break }`, "break outside"},
		{`func f(x: Unknown) { }`, "unknown type"},
		{`class A { var x: Int } func f(a: A) { print(a.y) }`, "no field y"},
		{`func f() { let xs = [1, "a"] }`, "mixed array"},
		{`func f() { let xs = [] }`, "empty array literal"},
		{`func f(x: Int) { x(3) }`, "cannot call a value"},
		{`func f() { let n: Int = nil }`, "cannot assign"},
		{`func g<T>(x: T) -> T { return x } func f() { let v = g(3) }`, "type arguments"},
	}
	for _, c := range cases {
		checkErr(t, c.src, c.want)
	}
}

func TestSemaOptionalRules(t *testing.T) {
	check(t, `
class A { var x: Int }
func f(a: A?) -> Int {
  if let v = a { return v.x }
  return 0
}
func main() {
  let a = A(x: 1)
  print(f(a: a))
  print(f(a: nil))
}
`)
	checkErr(t, `
class A { var x: Int }
func f(a: A?) -> Int { return a.x }
`, "no field x on A?")
	// Optional Int is declarable.
	check(t, `func f(x: Int?) { }`)
}

func TestSemaMemberwiseInit(t *testing.T) {
	check(t, `
class P { var x: Int
  var y: Int }
func main() {
  let p = P(x: 1, y: 2)
  print(p.x + p.y)
}
`)
}

func TestSemaNestedClosureRejected(t *testing.T) {
	checkErr(t, `
func f() -> Int {
  let g = { (x: Int) -> Int in
    let h = { (y: Int) -> Int in return y }
    return h(x)
  }
  return g(1)
}
`, "nested closures")
}

func TestSemaAssignToCaptureRejected(t *testing.T) {
	checkErr(t, `
func f() {
  var n = 0
  let g = { (x: Int) -> Int in
    n = x
    return n
  }
  print(g(1))
}
`, "captured variable")
}

func TestSemaStringIndexAndCount(t *testing.T) {
	check(t, `
func f(s: String) -> Int {
  var total = 0
  for i in 0 ..< s.count { total = total + s[i] }
  return total
}
`)
}

// CloneFunc must deep-copy: mutating the clone's body or types must not
// affect the original (generic instantiation depends on this).
func TestCloneFuncDeep(t *testing.T) {
	f := parse(t, `
func g<T>(a: T, b: Int) -> T {
  var x = b + 1
  if x > 0 { x = x * 2 }
  let c = { (v: Int) -> Int in return v }
  print(c(x))
  return a
}
`)
	orig := f.Funcs[0]
	clone := CloneFunc(orig)
	clone.Name = "changed"
	clone.Params[0].Name = "zzz"
	clone.Body.Stmts[0].(*VarStmt).Name = "renamed"
	inner := clone.Body.Stmts[1].(*IfStmt)
	inner.Then.Stmts[0].(*AssignStmt).LHS.(*IdentExpr).Name = "mutated"

	if orig.Name != "g" || orig.Params[0].Name != "a" {
		t.Error("clone shares header storage")
	}
	if orig.Body.Stmts[0].(*VarStmt).Name != "x" {
		t.Error("clone shares statement storage")
	}
	if orig.Body.Stmts[1].(*IfStmt).Then.Stmts[0].(*AssignStmt).LHS.(*IdentExpr).Name != "x" {
		t.Error("clone shares nested expression storage")
	}
}

// Generic instantiations must not leak checked types across each other:
// pick$Int and pick$String see different types for the same source nodes.
func TestInstantiationTypeIsolation(t *testing.T) {
	p := check(t, `
func pick<T>(a: T, b: T, first: Bool) -> T {
  if first { return a }
  return b
}
func main() {
  print(pick<Int>(a: 1, b: 2, first: true))
  print(pick<String>(a: "x", b: "y", first: false))
}
`)
	intInst := p.Funcs["pick$Int"]
	strInst := p.Funcs["pick$String"]
	ri := intInst.Body.Stmts[0].(*IfStmt).Then.Stmts[0].(*ReturnStmt).E.TypeOf()
	rs := strInst.Body.Stmts[0].(*IfStmt).Then.Stmts[0].(*ReturnStmt).E.TypeOf()
	if ri.Kind != TInt {
		t.Errorf("int instantiation return type = %s", ri)
	}
	if rs.Kind != TString {
		t.Errorf("string instantiation return type = %s", rs)
	}
}

func TestSemaImportVisibility(t *testing.T) {
	libFile := parse(t, `
class Box { var v: Int }
func open(b: Box) -> Int { return b.v }
`)
	imports := NewImportsIndex([]*File{libFile}).For(-1)
	appFile := parse(t, `
func main() {
  let b = Box(v: 7)
  print(open(b: b))
}
`)
	if _, err := CheckModule("App", imports, appFile); err != nil {
		t.Fatalf("import resolution failed: %v", err)
	}
	// Without imports the same module must fail.
	appFile2 := parse(t, `
func main() {
  let b = Box(v: 7)
  print(open(b: b))
}
`)
	if _, err := CheckModule("App", nil, appFile2); err == nil {
		t.Fatal("unresolved cross-module names accepted")
	}
}
