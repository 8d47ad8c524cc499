package llir

import (
	"strings"
	"testing"

	"outliner/internal/frontend"
	"outliner/internal/sir"
)

func lower(t *testing.T, src string) *Module {
	t.Helper()
	f, err := frontend.ParseFile("test.sl", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := frontend.CheckModule("M", nil, f)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	sm, err := sir.Generate(prog)
	if err != nil {
		t.Fatalf("sirgen: %v", err)
	}
	m, err := FromSIR(sm)
	if err != nil {
		t.Fatalf("FromSIR: %v", err)
	}
	if err := m.Verify(); err != nil {
		t.Fatalf("verify: %v\n%s", err, m)
	}
	return m
}

func countOp(f *Func, op Op) int {
	n := 0
	for _, b := range f.Blocks {
		for i := range b.Insts {
			if b.Insts[i].Op == op {
				n++
			}
		}
	}
	return n
}

func TestSSAStraightLine(t *testing.T) {
	m := lower(t, `func f(a: Int, b: Int) -> Int { return a * b + a }`)
	f := m.Func("f")
	if countOp(f, Phi) != 0 {
		t.Errorf("straight-line code must have no phis:\n%s", f)
	}
	if countOp(f, Bin) != 2 {
		t.Errorf("expected 2 binops:\n%s", f)
	}
}

// A variable assigned in both branches of an if and used after must become a
// phi at the join.
func TestSSADiamondPhi(t *testing.T) {
	m := lower(t, `
func f(c: Bool) -> Int {
  var x = 0
  if c { x = 1 } else { x = 2 }
  return x
}
`)
	f := m.Func("f")
	if n := countOp(f, Phi); n != 1 {
		t.Errorf("expected exactly 1 phi, got %d:\n%s", n, f)
	}
}

// Loop-carried variables become phis in the loop header.
func TestSSALoopPhi(t *testing.T) {
	m := lower(t, `
func sum(n: Int) -> Int {
  var total = 0
  for i in 0 ..< n { total = total + i }
  return total
}
`)
	f := m.Func("sum")
	if n := countOp(f, Phi); n < 2 { // total and i
		t.Errorf("expected >=2 loop phis, got %d:\n%s", n, f)
	}
}

// Variables assigned identically on all paths need no phi (trivial phi
// removal).
func TestSSATrivialPhiRemoved(t *testing.T) {
	m := lower(t, `
func f(c: Bool) -> Int {
  let x = 7
  if c { print(1) } else { print(2) }
  return x
}
`)
	f := m.Func("f")
	if n := countOp(f, Phi); n != 0 {
		t.Errorf("trivial phi not removed (%d):\n%s", n, f)
	}
}

func TestRefcountingLowersToRuntimeCalls(t *testing.T) {
	m := lower(t, `
class A { var x: Int }
func main() {
  let a = A(x: 1)
  let b = a
  print(b.x)
}
`)
	f := m.Func("main")
	retains, releases := 0, 0
	for _, b := range f.Blocks {
		for i := range b.Insts {
			in := &b.Insts[i]
			if in.Op == Call && in.Sym == RTRetain {
				retains++
			}
			if in.Op == Call && in.Sym == RTRelease {
				releases++
			}
		}
	}
	if retains < 1 || releases < 2 {
		t.Errorf("retains=%d releases=%d:\n%s", retains, releases, f)
	}
}

func TestThrowingFunctionReturnsErrorChannel(t *testing.T) {
	m := lower(t, `
func risky(x: Int) throws -> Int {
  if x < 0 { throw 9 }
  return x
}
`)
	f := m.Func("risky")
	if !f.Throws {
		t.Fatal("risky must be marked throws")
	}
	// Every Ret must carry an error channel value.
	for _, b := range f.Blocks {
		for i := range b.Insts {
			in := &b.Insts[i]
			if in.Op == Ret && in.B == None {
				t.Errorf("ret without error channel in throwing function:\n%s", f)
			}
		}
	}
}

func TestDCE(t *testing.T) {
	m := lower(t, `
func f(a: Int) -> Int {
  let unusedButPure = a * 99
  return a + 1
}
`)
	f := m.Func("f")
	before := f.NumInsts()
	DCE(f)
	after := f.NumInsts()
	if after >= before {
		t.Errorf("DCE removed nothing: %d -> %d\n%s", before, after, f)
	}
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}
	// The multiply must be gone.
	if countOp(f, Bin) != 1 {
		t.Errorf("dead multiply survived:\n%s", f)
	}
}

func TestDCEKeepsSideEffects(t *testing.T) {
	m := lower(t, `
func f() {
  print(42)
}
`)
	f := m.Func("f")
	DCE(f)
	calls := 0
	for _, b := range f.Blocks {
		for i := range b.Insts {
			if b.Insts[i].Op == Call {
				calls++
			}
		}
	}
	if calls != 1 {
		t.Errorf("DCE must keep calls:\n%s", f)
	}
}

func TestSimplifyCFG(t *testing.T) {
	m := lower(t, `
func f(c: Bool) -> Int {
  if c { return 1 }
  return 2
}
`)
	f := m.Func("f")
	SimplifyCFG(f)
	DCE(f)
	if err := f.Verify(); err != nil {
		t.Fatalf("verify after simplify: %v\n%s", err, f)
	}
	for _, b := range f.Blocks {
		if strings.HasPrefix(b.Label, "dead") {
			t.Errorf("dead block survived:\n%s", f)
		}
	}
}

func TestMergeFunctions(t *testing.T) {
	m := lower(t, `
func f1(a: Int) -> Int { return a * 2 + 1 }
func f2(b: Int) -> Int { return b * 2 + 1 }
func g(x: Int) -> Int { return x * 3 }
func main() {
  print(f1(a: 1))
  print(f2(b: 2))
  print(g(x: 3))
}
`)
	before := len(m.Funcs)
	stats := MergeFunctions(m)
	if stats.Removed != 1 || stats.Groups != 1 {
		t.Fatalf("stats = %+v, want 1 group / 1 removed", stats)
	}
	if len(m.Funcs) != before-1 {
		t.Fatalf("funcs %d -> %d", before, len(m.Funcs))
	}
	// All call sites must now target the representative (f1 by name order).
	main := m.Func("main")
	for _, b := range main.Blocks {
		for i := range b.Insts {
			in := &b.Insts[i]
			if in.Op == Call && in.Sym == "f2" {
				t.Error("call to removed f2 survived")
			}
		}
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestMergeFunctionsKeepsDifferent(t *testing.T) {
	m := lower(t, `
func f1(a: Int) -> Int { return a * 2 }
func f2(a: Int) -> Int { return a * 3 }
`)
	stats := MergeFunctions(m)
	if stats.Removed != 0 {
		t.Fatalf("merged functions that differ: %+v", stats)
	}
}

func TestRunDefaultPassesPreservesVerify(t *testing.T) {
	m := lower(t, `
class Node { var v: Int
  var next: Node? }
func length(head: Node?) -> Int {
  var n = 0
  var cur = head
  while cur != nil {
    if let c = cur { n = n + 1 cur = c.next }
  }
  return n
}
func main() {
  let a = Node(v: 1, next: nil)
  print(length(head: a))
}
`)
	for _, f := range m.Funcs {
		SimplifyCFG(f)
		DCE(f)
	}
	MergeFunctions(m)
	if err := m.Verify(); err != nil {
		t.Fatalf("verify after passes: %v\n%s", err, m)
	}
}

func TestFMSAMergesConstantVariants(t *testing.T) {
	m := lower(t, `
func v1(a: Int) -> Int {
  var acc = a
  for i in 0 ..< 4 { acc = acc + i * 3 }
  return acc + 100
}
func v2(a: Int) -> Int {
  var acc = a
  for i in 0 ..< 4 { acc = acc + i * 3 }
  return acc + 200
}
func v3(a: Int) -> Int {
  var acc = a
  for i in 0 ..< 4 { acc = acc + i * 3 }
  return acc + 300
}
func main() {
  print(v1(a: 1) + v2(a: 2) + v3(a: 3))
}
`)
	for _, f := range m.Funcs {
		SimplifyCFG(f)
		DCE(f)
	}
	before := len(m.Funcs)
	stats := MergeSimilarFunctions(m, nil)
	if stats.Groups != 1 || stats.Removed != 2 {
		t.Fatalf("stats = %+v, want 1 group / net 2 removed", stats)
	}
	if len(m.Funcs) != before-2 {
		t.Fatalf("funcs %d -> %d", before, len(m.Funcs))
	}
	merged := m.Func("v1$fmsa")
	if merged == nil {
		t.Fatal("merged function missing")
	}
	if merged.NumParams != 2 { // a + the differing constant
		t.Errorf("merged params = %d, want 2", merged.NumParams)
	}
	if err := m.Verify(); err != nil {
		t.Fatalf("verify after merging: %v\n%s", err, merged)
	}
	// Call sites in main must pass the constant.
	calls := 0
	for _, b := range m.Func("main").Blocks {
		for i := range b.Insts {
			in := &b.Insts[i]
			if in.Op == Call && in.Sym == "v1$fmsa" {
				calls++
				if len(in.Args()) != 2 {
					t.Errorf("call args = %d, want 2", len(in.Args()))
				}
			}
		}
	}
	if calls != 3 {
		t.Errorf("rewired calls = %d, want 3", calls)
	}
}

func TestFMSASkipsAddressTaken(t *testing.T) {
	const src = `
func w1(a: Int) -> Int { return a * 2 + 11 + a * 3 - 4 + a }
func w2(a: Int) -> Int { return a * 2 + 22 + a * 3 - 4 + a }
func use(f: (Int) -> Int) -> Int { return f(1) }
func main() {
  print(use(f: w1))
  print(w2(a: 5))
}
`
	// The closure takes the address of w1's thunk, which calls w1: w1 and
	// w2 may merge, and the thunk then passes w1's constant.
	c := lower(t, src)
	if st := MergeSimilarFunctions(c, nil); st.Groups != 1 || c.Func("w1$fmsa") == nil {
		t.Fatalf("stats = %+v, want w1 and w2 merged:\n%s", st, c)
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
	m := lower(t, src)
	// Take w2's own address: a merged body replaces every member, and no
	// caller through that address would pass the constant, so nothing merges.
	main := m.Func("main").Blocks[0]
	main.Insts = append([]Inst{{Op: GlobalAddr, Dst: m.Func("main").NewValue(), Sym: "w2"}}, main.Insts...)
	if st := MergeSimilarFunctions(m, nil); st != (MergeStats{}) {
		t.Fatalf("stats = %+v, want no merge of the address-taken w2:\n%s", st, m)
	}
	if m.Func("w1") == nil || m.Func("w2") == nil {
		t.Fatal("a similar merge deleted an address-taken function")
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestMergeSimilarUnprofitable: short bodies that differ in several
// constants and are called from many sites would cost more in the Consts
// every call must now pass than the deleted bodies save, so they stay.
func TestMergeSimilarUnprofitable(t *testing.T) {
	m := lower(t, `
func k1(a: Int) -> Int { return a * 3 + 5 }
func k2(a: Int) -> Int { return a * 4 + 6 }
func main() {
  print(k1(a: 1) + k1(a: 2) + k1(a: 3) + k1(a: 4))
  print(k2(a: 1) + k2(a: 2) + k2(a: 3) + k2(a: 4))
}
`)
	for _, f := range m.Funcs {
		SimplifyCFG(f)
		DCE(f)
	}
	before := m.String()
	if st := MergeSimilarFunctions(m, nil); st != (MergeStats{}) {
		t.Fatalf("stats = %+v, want the unprofitable pair left alone:\n%s", st, m)
	}
	if got := m.String(); got != before {
		t.Errorf("an unprofitable merge changed the module:\n%s\nwant\n%s", got, before)
	}
	// The same pair called once each does merge.
	m = lower(t, `
func k1(a: Int) -> Int { return a * 3 + 5 }
func k2(a: Int) -> Int { return a * 4 + 6 }
func main() { print(k1(a: 1) + k2(a: 2)) }
`)
	if st := MergeSimilarFunctions(m, nil); st.Groups != 1 || st.Removed != 1 {
		t.Fatalf("stats = %+v, want the pair merged", st)
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestMergeFunctionsKeeping(t *testing.T) {
	m := lower(t, `
func f1(a: Int) -> Int { return a * 2 + 1 }
func f2(b: Int) -> Int { return b * 2 + 1 }
func main() {
  print(f1(a: 1))
  print(f2(b: 2))
}
`)
	// f2 is referenced from another module: it must survive, and — being
	// the preferred representative — absorb f1.
	stats := MergeFunctionsKeeping(m, map[string]bool{"f2": true})
	if stats.Removed != 1 {
		t.Fatalf("stats = %+v, want 1 removed", stats)
	}
	if m.Func("f2") == nil {
		t.Fatal("externally referenced f2 was deleted")
	}
	if m.Func("f1") != nil {
		t.Fatal("module-local duplicate f1 survived")
	}
	for _, b := range m.Func("main").Blocks {
		for i := range b.Insts {
			if in := &b.Insts[i]; in.Op == Call && in.Sym == "f1" {
				t.Error("call to removed f1 survived")
			}
		}
	}

	// Both duplicates externally referenced: nothing may be deleted.
	m2 := lower(t, `
func g1(a: Int) -> Int { return a * 2 + 1 }
func g2(b: Int) -> Int { return b * 2 + 1 }
func main() { print(g1(a: 1) + g2(b: 2)) }
`)
	stats = MergeFunctionsKeeping(m2, map[string]bool{"g1": true, "g2": true})
	if stats.Removed != 0 || m2.Func("g1") == nil || m2.Func("g2") == nil {
		t.Fatalf("kept functions merged anyway: %+v", stats)
	}
}

func TestFMSAKeepsExternallyReferenced(t *testing.T) {
	m := lower(t, `
func v1(a: Int) -> Int {
  var acc = a
  for i in 0 ..< 4 { acc = acc + i * 3 }
  return acc + 100
}
func v2(a: Int) -> Int {
  var acc = a
  for i in 0 ..< 4 { acc = acc + i * 3 }
  return acc + 200
}
func main() { print(v1(a: 1) + v2(a: 2)) }
`)
	for _, f := range m.Funcs {
		SimplifyCFG(f)
		DCE(f)
	}
	// v2 is called from another module; a similar merge deletes every
	// member it merges, so v2 must not participate at all.
	MergeSimilarFunctions(m, map[string]bool{"v2": true})
	if m.Func("v2") == nil {
		t.Fatal("externally referenced v2 was deleted")
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestFMSALeavesSourceUnchanged: the similar policy builds the merged
// function and the rewritten call sites from copies of the original instructions, whose Ext
// records those copies share. Each copy gets records of its own before its
// values are shifted or its arguments extended, so the originals keep their
// Args and Incomings.
func TestFMSALeavesSourceUnchanged(t *testing.T) {
	m := lower(t, `
func v1(a: Int) -> Int {
  var acc = a
  for i in 0 ..< 4 { acc = acc + i * 3 print(acc) }
  return acc + 100
}
func v2(a: Int) -> Int {
  var acc = a
  for i in 0 ..< 4 { acc = acc + i * 3 print(acc) }
  return acc + 200
}
func main() {
  print(v1(a: 1) + v2(a: 2))
}
`)
	for _, f := range m.Funcs {
		SimplifyCFG(f)
		DCE(f)
	}
	// render prints instructions, Args and Incomings included.
	render := func(insts [][]Inst) string {
		var b strings.Builder
		for _, blk := range insts {
			for _, in := range blk {
				b.WriteString(in.String() + "\n")
			}
		}
		return b.String()
	}
	var src [][]Inst // the originals' instruction slabs, main's call sites included
	args, incs := 0, 0
	for _, name := range []string{"v1", "v2", "main"} {
		for _, b := range m.Func(name).Blocks {
			src = append(src, b.Insts)
			for i := range b.Insts {
				args += len(b.Insts[i].Args())
				incs += len(b.Insts[i].Incomings())
			}
		}
	}
	if args == 0 || incs == 0 {
		t.Fatalf("the originals have %d arguments and %d phi incomings; want some of both", args, incs)
	}
	want := render(src)
	if st := MergeSimilarFunctions(m, nil); st.Groups != 1 {
		t.Fatalf("stats = %+v, want one group", st)
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	if got := render(src); got != want {
		t.Errorf("merging changed the originals:\n%s\nwant\n%s", got, want)
	}
}
