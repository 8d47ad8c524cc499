package sir

import (
	"strings"
	"testing"

	"outliner/internal/frontend"
)

func gen(t *testing.T, src string) *Module {
	t.Helper()
	f, err := frontend.ParseFile("test.sl", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := frontend.CheckModule("M", nil, f)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	m, err := Generate(prog)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	if err := m.Verify(); err != nil {
		t.Fatalf("verify: %v\n%s", err, m)
	}
	return m
}

func countOps(f *Func, op Op) int {
	n := 0
	for _, b := range f.Blocks {
		for _, in := range b.Insts {
			if in.Op == op {
				n++
			}
		}
	}
	return n
}

func TestGenSimpleFunction(t *testing.T) {
	m := gen(t, `
func add(a: Int, b: Int) -> Int { return a + b }
func main() { print(add(a: 1, b: 2)) }
`)
	f := m.Func("add")
	if f == nil || f.NumParams != 2 {
		t.Fatalf("add missing or wrong params: %+v", f)
	}
	if countOps(f, Bin) != 1 || countOps(f, Ret) != 1 {
		t.Errorf("unexpected body:\n%s", f)
	}
	if m.Func("main") == nil {
		t.Fatal("main missing")
	}
}

func TestGenRefCountingTraffic(t *testing.T) {
	m := gen(t, `
class Node { var v: Int }
func use(n: Node) -> Int { return n.v }
func main() {
  let a = Node(v: 1)
  let b = a
  print(use(n: b))
}
`)
	main := m.Func("main")
	// b = a retains; scope end releases a and b.
	if countOps(main, Retain) < 1 {
		t.Errorf("expected retains in main:\n%s", main)
	}
	if countOps(main, Release) < 2 {
		t.Errorf("expected releases in main:\n%s", main)
	}
	// Memberwise init must retain nothing (Int field) but set the field.
	init := m.Func("Node.init")
	if init == nil || countOps(init, FieldSet) != 1 || countOps(init, AllocObject) != 1 {
		t.Errorf("bad init:\n%s", init)
	}
}

// Throwing init: the Figure 9 pattern — per-ref-field flags and a shared
// cleanup block that tests them.
func TestGenThrowingInitFlags(t *testing.T) {
	m := gen(t, `
class Blob { var a: String
  var b: String
  var n: Int
  init(x: Int) throws {
    self.a = try fetch(k: x)
    self.b = try fetch(k: x + 1)
    self.n = x
  }
}
func fetch(k: Int) throws -> String {
  if k < 0 { throw 1 }
  return "ok"
}
`)
	init := m.Func("Blob.init")
	if init == nil {
		t.Fatal("missing Blob.init")
	}
	cleanup := init.Block("init_cleanup")
	if cleanup == nil {
		t.Fatalf("missing shared cleanup block:\n%s", init)
	}
	// Cleanup region: conditional release per ref field (2 string fields),
	// then release self and rethrow.
	text := init.String()
	if !strings.Contains(text, "init_cleanup:") {
		t.Fatal("no cleanup label in print")
	}
	if countOps(init, Throw) == 0 {
		t.Error("init must rethrow from cleanup")
	}
	relBlocks := 0
	for _, b := range init.Blocks {
		if strings.HasPrefix(b.Label, "init_rel") {
			relBlocks++
		}
	}
	if relBlocks != 2 {
		t.Errorf("expected 2 conditional field-release blocks, got %d:\n%s", relBlocks, init)
	}
}

func TestGenClosureAndCaptures(t *testing.T) {
	m := gen(t, `
func run(f: (Int) -> Int) -> Int { return f(10) }
func main() {
  let base = 5
  print(run(f: { (x: Int) -> Int in return x + base }))
}
`)
	var closure *Func
	for _, f := range m.Funcs {
		if strings.Contains(f.Name, ".closure.") {
			closure = f
		}
	}
	if closure == nil {
		t.Fatalf("no closure function generated; have %v", names(m))
	}
	// Closure loads its capture from the context (field 1).
	if countOps(closure, FieldGet) < 1 {
		t.Errorf("closure must load captures:\n%s", closure)
	}
	main := m.Func("main")
	if countOps(main, MakeClosure) != 1 {
		t.Errorf("main must make one closure:\n%s", main)
	}
	run := m.Func("run")
	if countOps(run, CallClosure) != 1 {
		t.Errorf("run must call through the closure:\n%s", run)
	}
}

func TestGenFunctionAsValueThunk(t *testing.T) {
	m := gen(t, `
func twice(x: Int) -> Int { return x * 2 }
func run(f: (Int) -> Int) -> Int { return f(3) }
func main() { print(run(f: twice)) }
`)
	thunk := m.Func("twice$thunk")
	if thunk == nil {
		t.Fatalf("missing thunk; have %v", names(m))
	}
	if thunk.NumParams != 2 { // env + x
		t.Errorf("thunk params = %d, want 2", thunk.NumParams)
	}
	if countOps(thunk, Call) != 1 {
		t.Errorf("thunk must forward to twice:\n%s", thunk)
	}
}

func TestGenDoCatch(t *testing.T) {
	m := gen(t, `
func risky(x: Int) throws -> Int {
  if x < 0 { throw 42 }
  return x
}
func main() {
  do {
    print(try risky(x: 1))
  } catch {
    print(error)
  }
}
`)
	main := m.Func("main")
	hasCatch := false
	for _, b := range main.Blocks {
		if strings.HasPrefix(b.Label, "catch") {
			hasCatch = true
		}
	}
	if !hasCatch {
		t.Fatalf("no catch block:\n%s", main)
	}
	// The throwing call must produce a conditional error check.
	foundThrowingCall := false
	for _, b := range main.Blocks {
		for _, in := range b.Insts {
			if in.Op == Call && in.Throws {
				foundThrowingCall = true
				if in.ErrDst == None {
					t.Error("throwing call without ErrDst")
				}
			}
		}
	}
	if !foundThrowingCall {
		t.Error("no throwing call in main")
	}
}

func TestGenStringConstantsDeduped(t *testing.T) {
	m := gen(t, `
func main() {
  print("hello")
  print("hello")
  print("world")
}
`)
	if len(m.Globals) != 2 {
		t.Errorf("globals = %d, want 2 (deduped)", len(m.Globals))
	}
	// Layout: [len, chars...]
	g := m.Globals[0]
	if g.Words[0] != int64(len("hello")) {
		t.Errorf("string length word = %d", g.Words[0])
	}
}

func TestGenLoopsAndBreak(t *testing.T) {
	m := gen(t, `
func main() {
  var total = 0
  for i in 0 ..< 10 {
    if i == 5 { break }
    total = total + i
  }
  var j = 0
  while j < 3 {
    j = j + 1
    continue
  }
  print(total + j)
}
`)
	if m.Func("main") == nil {
		t.Fatal("main missing")
	}
}

func TestGenArrayOps(t *testing.T) {
	m := gen(t, `
func main() {
  var xs = [1, 2, 3]
  xs[0] = 9
  xs = append(xs, 4)
  print(xs[0] + xs.count)
}
`)
	main := m.Func("main")
	if countOps(main, AllocArray) != 1 || countOps(main, Append) != 1 {
		t.Errorf("array ops wrong:\n%s", main)
	}
	if countOps(main, ArraySet) < 4 { // 3 literal inits + 1 store
		t.Errorf("expected >=4 array_set:\n%s", main)
	}
}

func names(m *Module) []string {
	var out []string
	for _, f := range m.Funcs {
		out = append(out, f.Name)
	}
	return out
}
