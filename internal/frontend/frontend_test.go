package frontend

import (
	"errors"
	"fmt"
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
	p, err := CheckModule("TestModule", nil, f)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	return p
}

func checkErr(t *testing.T, src, wantSub string) {
	t.Helper()
	f, err := ParseFile("test.sl", src)
	if err == nil {
		_, err = CheckModule("TestModule", nil, f)
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

// render prints an expression fully parenthesized.
func render(e Expr) string {
	switch e := e.(type) {
	case *IdentExpr:
		return e.Name
	case *UnaryExpr:
		return "(" + tokNames[e.Op] + render(e.X) + ")"
	case *BinaryExpr:
		return "(" + render(e.L) + " " + tokNames[e.Op] + " " + render(e.R) + ")"
	}
	return fmt.Sprintf("<%T>", e)
}

// TestParsePrecedence renders each parse fully parenthesized: for every
// pair of operators from different levels, in both orders, the tighter one
// groups first; within a level, operators associate to the left; prefix
// operators bind tighter than any binary one; and comparisons do not chain.
func TestParsePrecedence(t *testing.T) {
	levels := [][]string{ // loosest first
		{"||"},
		{"&&"},
		{"==", "!=", "<", "<=", ">", ">="},
		{"+", "-"},
		{"*", "/", "%"},
	}
	type tc struct{ src, want string }
	cases := []tc{
		{"-a * b", "((-a) * b)"},
		{"!a && b", "((!a) && b)"},
		{"a * -b", "(a * (-b))"},
		{"a || b && c < d + e * f", "(a || (b && (c < (d + (e * f)))))"},
		{"a * b + c < d && e || f", "(((((a * b) + c) < d) && e) || f)"},
	}
	for i, loose := range levels {
		for _, x := range loose {
			for _, tight := range levels[i+1:] {
				for _, y := range tight {
					cases = append(cases,
						tc{"a " + x + " b " + y + " c", "(a " + x + " (b " + y + " c))"},
						tc{"a " + y + " b " + x + " c", "((a " + y + " b) " + x + " c)"})
				}
			}
			if i == 2 {
				continue // comparisons do not chain
			}
			for _, y := range loose {
				cases = append(cases, tc{"a " + x + " b " + y + " c", "((a " + x + " b) " + y + " c)"})
			}
		}
	}
	for _, c := range cases {
		f, err := ParseFile("p.sl", "func f() {\n  return "+c.src+"\n}\n")
		if err != nil {
			t.Errorf("%s: %v", c.src, err)
			continue
		}
		if got := render(f.Funcs[0].Body.Stmts[0].(*ReturnStmt).E); got != c.want {
			t.Errorf("%s parsed as %s, want %s", c.src, got, c.want)
		}
	}
	_, err := ParseFile("p.sl", "func f() {\n  return a < b < c\n}\n")
	if err == nil || err.Error() != "p.sl:2:16: expected expression, found <" {
		t.Errorf("chained comparison: error %v", err)
	}
}

// TestNestingBoundary pins, for each construct that counts a nesting level,
// the longest chain the parser accepts: one more link must fail with the
// nesting limit. The counts include the levels the enclosing function body,
// return expression or parameter list already holds, so a change in what
// counts a level (or in where the count is restored) moves a boundary here.
// A type counts a level per node of its tree, so each `?` of an optional
// suffix counts one and `[T]?` counts two.
func TestNestingBoundary(t *testing.T) {
	r := strings.Repeat
	ret := func(e string) string { return "func f(a: Int) -> Int {\n  return " + e + "\n}\n" }
	param := func(ty string) string { return "func f(a: " + ty + ") {}\n" }
	body := func(open, mid, close string, n int) string {
		return "func f() {\n" + r(open, n) + mid + r(close, n) + "}\n"
	}
	for _, tc := range []struct {
		name    string
		longest int
		src     func(n int) string
	}{
		{"or", 998, func(n int) string { return ret("a" + r(" || a", n)) }},
		{"and", 998, func(n int) string { return ret("a" + r(" && a", n)) }},
		{"add-sub", 998, func(n int) string { return ret("a" + r(" + a - a", n/2) + r(" + a", n%2)) }},
		{"mul-div-rem", 998, func(n int) string { return ret("a" + r(" * a / a % a", n/3) + r(" * a", n%3)) }},
		{"all-levels", 995, func(n int) string { return ret("a" + r(" || a && a < a + a * a", n)) }},
		{"prefix-minus", 998, func(n int) string { return ret(r("- ", n) + "a") }},
		{"prefix-not", 998, func(n int) string { return ret(r("! ", n) + "a") }},
		{"prefix-try", 997, func(n int) string { return ret(r("try ", n) + "g()") }},
		{"parens", 998, func(n int) string { return ret(r("(", n) + "a" + r(")", n)) }},
		{"field-chain", 998, func(n int) string { return ret("a" + r(".b", n)) }},
		{"call-chain", 998, func(n int) string { return ret("g" + r("()", n)) }},
		{"array-type", 999, func(n int) string { return param(r("[", n) + "Int" + r("]", n)) }},
		{"func-type", 999, func(n int) string { return param(r("(Int) -> ", n) + "Int") }},
		{"optional-array-type", 499, func(n int) string { return param(r("[", n) + "Int" + r("]?", n)) }},
		{"optional-chain", 999, func(n int) string { return param("Int" + r("?", n)) }},
		{"while-blocks", 996, func(n int) string { return body("while true {\n", "print(1)\n", "}\n", n) }},
		{"nested-if", 498, func(n int) string { return body("if true {\n", "print(1)\n", "}\n", n) }},
		{"else-if-chain", 995, func(n int) string { return body("if true { print(1) } else ", "{ print(2) }\n", "", n) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseFile("deep.sl", tc.src(tc.longest)); err != nil {
				t.Fatalf("chain of %d: %v", tc.longest, err)
			}
			_, err := ParseFile("deep.sl", tc.src(tc.longest+1))
			if err == nil || !strings.Contains(err.Error(), "nesting deeper than 1000 levels") {
				t.Fatalf("chain of %d: error %v, want the nesting limit", tc.longest+1, err)
			}
		})
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

// An instantiation is a deep copy of its template: mutating the
// instantiation's header, statements or nested expressions must not touch
// the template, which later instantiations copy again.
func TestSpecializeCopiesTemplate(t *testing.T) {
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
	inst := specializer{"T": IntType}.fn(orig)
	inst.Name = "changed"
	inst.Params[0].Name = "zzz"
	inst.Body.Stmts[0].(*VarStmt).Name = "renamed"
	inst.Body.Stmts[1].(*IfStmt).Then.Stmts[0].(*AssignStmt).LHS.(*IdentExpr).Name = "mutated"
	inst.Body.Stmts[2].(*VarStmt).Init.(*ClosureExpr).Params[0].Name = "w"

	if orig.Name != "g" || orig.Params[0].Name != "a" || len(orig.Generics) != 1 {
		t.Error("instantiation shares header storage")
	}
	if orig.Params[0].Type.Kind != TGeneric || orig.Ret.Kind != TGeneric {
		t.Error("instantiation rewrote the template's signature")
	}
	if orig.Body.Stmts[0].(*VarStmt).Name != "x" {
		t.Error("instantiation shares statement storage")
	}
	if orig.Body.Stmts[1].(*IfStmt).Then.Stmts[0].(*AssignStmt).LHS.(*IdentExpr).Name != "x" {
		t.Error("instantiation shares nested expression storage")
	}
	if orig.Body.Stmts[2].(*VarStmt).Init.(*ClosureExpr).Params[0].Name != "v" {
		t.Error("instantiation shares closure parameters")
	}
}

// Specialization substitutes the type arguments wherever the body names a
// type: var annotations, explicit call type arguments, and closure
// signatures, as well as the function's own signature.
func TestSpecializeSubstitutesBodyTypes(t *testing.T) {
	f := parse(t, `
func id<T>(v: T) -> T { return v }
func wrap<T>(v: T) -> [T]? {
  var x: [T]? = nil
  x = [id<T>(v)]
  let c = { (u: T) -> [T] in return [u] }
  print(c(v).count)
  return x
}
func main() {
  if let w = wrap<String>(v: "s") { print(w.count) }
}
`)
	p, err := CheckModule("TestModule", nil, f)
	if err != nil {
		t.Fatal(err)
	}
	inst := p.Funcs["wrap$String"]
	if inst == nil {
		t.Fatalf("no wrap$String among %v", p.FuncOrder)
	}
	if got := inst.Params[0].Type.String() + " -> " + inst.Ret.String(); got != "String -> [String]?" {
		t.Errorf("signature = %s", got)
	}
	if got := inst.Body.Stmts[0].(*VarStmt).Type.String(); got != "[String]?" {
		t.Errorf("var annotation = %s", got)
	}
	call := inst.Body.Stmts[1].(*AssignStmt).RHS.(*ArrayLit).Elems[0].(*CallExpr)
	if len(call.TypeArgs) != 1 || call.TypeArgs[0].Kind != TString || call.ResolvedSym != "id$String" {
		t.Errorf("call type arguments = %v, callee %s", call.TypeArgs, call.ResolvedSym)
	}
	cl := inst.Body.Stmts[2].(*VarStmt).Init.(*ClosureExpr)
	if got := cl.Params[0].Type.String() + " -> " + cl.Ret.String(); got != "String -> [String]" {
		t.Errorf("closure signature = %s", got)
	}
	tmpl := f.Funcs[1]
	if got := tmpl.Body.Stmts[0].(*VarStmt).Type.String(); got != "[T]?" {
		t.Errorf("template var annotation = %s after specialization", got)
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
