package pipeline_test

import (
	"fmt"
	"strings"
	"testing"

	"outliner/internal/exec"
	"outliner/internal/pipeline"
)

// run builds sources with cfg and executes main, returning stdout.
func run(t *testing.T, cfg pipeline.Config, sources ...pipeline.Source) (string, *pipeline.Result) {
	t.Helper()
	cfg.Verify = true
	res, err := pipeline.Build(sources, cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	m, err := exec.New(res.Prog, exec.Options{})
	if err != nil {
		t.Fatalf("exec.New: %v", err)
	}
	out, err := m.Run("main")
	if err != nil {
		t.Fatalf("Run: %v\noutput so far:\n%s", err, out)
	}
	return out, res
}

func src(name, text string) pipeline.Source {
	return pipeline.Source{Name: name, Files: map[string]string{name + ".sl": text}}
}

// allConfigs is the matrix every semantics test runs under: outputs must be
// identical across pipelines and outlining levels.
var allConfigs = map[string]pipeline.Config{
	"default-noopt":   {},
	"default-osize":   pipeline.Default,
	"wholeprog-0":     {WholeProgram: true, SplitGCMetadata: true, PreserveDataLayout: true},
	"wholeprog-5":     pipeline.OSize,
	"wholeprog-flat":  {WholeProgram: true, OutlineRounds: 5, FlatOutlineCost: true, SplitGCMetadata: true},
	"mergefunc+fmsa":  {WholeProgram: true, OutlineRounds: 3, MergeFunctions: true, FMSA: true, SplitGCMetadata: true},
	"interleave-data": {WholeProgram: true, OutlineRounds: 2, SplitGCMetadata: true, PreserveDataLayout: false},
}

func checkAllConfigs(t *testing.T, want string, sources ...pipeline.Source) {
	t.Helper()
	for name, cfg := range allConfigs {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			got, _ := run(t, cfg, sources...)
			if got != want {
				t.Errorf("output mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

func TestE2EArithmetic(t *testing.T) {
	checkAllConfigs(t, "7\n-3\n10\n2\n1\ntrue\nfalse\n",
		src("M", `
func main() {
  print(3 + 4)
  print(2 - 5)
  print(2 * 5)
  print(17 / 8)
  print(17 % 8)
  print(3 < 4)
  print(4 <= 3)
}
`))
}

func TestE2EControlFlow(t *testing.T) {
	checkAllConfigs(t, "0\n1\n2\n10\n45\nsmall\n",
		src("M", `
func classify(n: Int) -> String {
  if n < 100 { return "small" }
  return "big"
}
func main() {
  for i in 0 ..< 3 { print(i) }
  var j = 0
  while j < 10 { j = j + 1 }
  print(j)
  var total = 0
  for k in 0 ..< 10 { total = total + k }
  print(total)
  print(classify(n: 5))
}
`))
}

func TestE2EClassesAndRefs(t *testing.T) {
	checkAllConfigs(t, "25\n7\n12\n",
		src("M", `
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
  p.x = 7
  print(p.x)
  let q = p
  q.y = 5
  print(p.x + p.y)
}
`))
}

func TestE2EArraysAndStrings(t *testing.T) {
	checkAllConfigs(t, "3\n9\n4\n104\nhello\n5\n",
		src("M", `
func main() {
  var xs = [1, 2, 3]
  print(xs.count)
  xs[0] = 9
  print(xs[0])
  xs = append(xs, 42)
  print(xs.count)
  let s = "hello"
  print(s[0])
  print(s)
  print(s.count)
}
`))
}

func TestE2ERecursion(t *testing.T) {
	checkAllConfigs(t, "120\n55\n",
		src("M", `
func fact(n: Int) -> Int {
  if n <= 1 { return 1 }
  return n * fact(n: n - 1)
}
func fib(n: Int) -> Int {
  if n < 2 { return n }
  return fib(n: n - 1) + fib(n: n - 2)
}
func main() {
  print(fact(n: 5))
  print(fib(n: 10))
}
`))
}

func TestE2EClosures(t *testing.T) {
	checkAllConfigs(t, "23\n15\n9\n",
		src("M", `
func apply(f: (Int) -> Int, x: Int) -> Int { return f(x) }
func main() {
  let base = 3
  print(apply(f: { (v: Int) -> Int in return v * 2 + base }, x: 10))
  let scale = 5
  let g = { (v: Int) -> Int in return v * scale }
  print(g(3))
  print(apply(f: { (v: Int) -> Int in return v }, x: 9))
}
`))
}

func TestE2EFunctionValues(t *testing.T) {
	checkAllConfigs(t, "8\n27\n",
		src("M", `
func cube(x: Int) -> Int { return x * x * x }
func apply(f: (Int) -> Int, x: Int) -> Int { return f(x) }
func main() {
  print(apply(f: cube, x: 2))
  print(apply(f: cube, x: 3))
}
`))
}

func TestE2EGenerics(t *testing.T) {
	checkAllConfigs(t, "1\ny\n",
		src("M", `
func pick<T>(a: T, b: T, first: Bool) -> T {
  if first { return a }
  return b
}
func main() {
  print(pick<Int>(a: 1, b: 2, first: true))
  print(pick<String>(a: "x", b: "y", first: false))
}
`))
}

func TestE2EThrowsAndCatch(t *testing.T) {
	checkAllConfigs(t, "5\ncaught\n42\nafter\n",
		src("M", `
func risky(x: Int) throws -> Int {
  if x < 0 { throw 42 }
  return x
}
func main() {
  do {
    print(try risky(x: 5))
    print(try risky(x: 0 - 1))
    print(999)
  } catch {
    print("caught")
    print(error)
  }
  print("after")
}
`))
}

func TestE2EThrowingInit(t *testing.T) {
	checkAllConfigs(t, "ok\n3\ncaught 7\n",
		src("M", `
class Config {
  var name: String
  var tag: String
  var level: Int
  init(lvl: Int) throws {
    self.name = try fetch(k: lvl)
    self.tag = try fetch(k: lvl - 1)
    self.level = lvl
  }
}
func fetch(k: Int) throws -> String {
  if k < 0 { throw 7 }
  return "ok"
}
func main() {
  do {
    let c = try Config(lvl: 3)
    print(c.name)
    print(c.level)
    let bad = try Config(lvl: 0)
    print(bad.level)
  } catch {
    print("caught 7")
  }
}
`))
}

func TestE2EOptionalsAndLinkedList(t *testing.T) {
	checkAllConfigs(t, "6\n3\n",
		src("M", `
class Node {
  var value: Int
  var next: Node?
  init(value: Int, next: Node?) {
    self.value = value
    self.next = next
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
func count(head: Node?) -> Int {
  if head == nil { return 0 }
  var c = 0
  var cur = head
  while cur != nil {
    c = c + 1
    if let n = cur { cur = n.next }
  }
  return c
}
func main() {
  let c = Node(value: 3, next: nil)
  let b = Node(value: 2, next: c)
  let a = Node(value: 1, next: b)
  print(sum(head: a))
  print(count(head: a))
}
`))
}

func TestE2EShortCircuit(t *testing.T) {
	checkAllConfigs(t, "true\nfalse\n1\ntrue\n",
		src("M", `
func sideEffect(x: Int) -> Bool {
  print(x)
  return x > 0
}
func main() {
  print(true || sideEffect(x: 99))
  print(false && sideEffect(x: 98))
  let r = false || sideEffect(x: 1)
  print(r)
}
`))
}

func TestE2EBreakContinue(t *testing.T) {
	checkAllConfigs(t, "0\n1\n3\n4\n10\n",
		src("M", `
func main() {
  for i in 0 ..< 100 {
    if i == 2 { continue }
    if i == 5 { break }
    print(i)
  }
  var j = 0
  while true {
    j = j + 1
    if j >= 10 { break }
  }
  print(j)
}
`))
}

func TestE2EMultiModule(t *testing.T) {
	lib := src("Lib", `
class Counter {
  var n: Int
  init() { self.n = 0 }
  func bump() -> Int {
    self.n = self.n + 1
    return self.n
  }
}
func makeCounter() -> Counter { return Counter() }
`)
	app := src("App", `
func main() {
  let c = makeCounter()
  print(c.bump())
  print(c.bump())
  print(c.bump())
}
`)
	// Multi-module builds must produce the same output in both pipelines.
	for name, cfg := range allConfigs {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			got, _ := run(t, cfg, lib, app)
			if got != "1\n2\n3\n" {
				t.Errorf("got %q", got)
			}
		})
	}
}

// Outlining must shrink a program with repetitive code, and the binary must
// still behave identically (covered above); here we assert the size effect.
func TestOutliningShrinksRepetitiveProgram(t *testing.T) {
	var b strings.Builder
	b.WriteString("class Obj { var a: Int\n var b: Int }\n")
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&b, `
func helper%d(o: Obj) -> Int {
  let t = Obj(a: o.a + %d, b: o.b)
  return t.a * t.b + o.a
}
`, i, i)
	}
	b.WriteString("func main() {\n  let o = Obj(a: 2, b: 3)\n  var total = 0\n")
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&b, "  total = total + helper%d(o: o)\n", i)
	}
	b.WriteString("  print(total)\n}\n")
	source := src("M", b.String())

	base, err := pipeline.Build([]pipeline.Source{source},
		pipeline.Config{WholeProgram: true, SplitGCMetadata: true, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := pipeline.Build([]pipeline.Source{source}, pipeline.OSize)
	if err != nil {
		t.Fatal(err)
	}
	if opt.CodeSize() >= base.CodeSize() {
		t.Errorf("outlining did not shrink code: %d -> %d", base.CodeSize(), opt.CodeSize())
	}
	if opt.Outline == nil || opt.Outline.TotalSequences() == 0 {
		t.Error("no sequences outlined")
	}
}

// The §VI-2 story: mixed Swift/Clang metadata fails the whole-program link
// without the attribute-split fix, and links fine with it.
func TestGCMetadataConflict(t *testing.T) {
	swift := src("SwiftMod", `
func main() { print(objcSide() + 1) }
`)
	// A clang-produced module stamps a different flag value.
	objc := src("ObjCMod", `
func objcSide() -> Int { return 2 }
`)
	objc.ObjC = true
	build := func(split bool) error {
		_, err := pipeline.Build([]pipeline.Source{swift, objc}, pipeline.Config{
			WholeProgram:    true,
			SplitGCMetadata: split,
			Verify:          true,
		})
		return err
	}
	if err := build(false); err == nil {
		t.Error("mixed-compiler link succeeded without the attribute-split fix")
	} else if !strings.Contains(err.Error(), "Objective-C Garbage Collection") {
		t.Errorf("unexpected error: %v", err)
	}
	if err := build(true); err != nil {
		t.Errorf("link with the fix failed: %v", err)
	}
}
