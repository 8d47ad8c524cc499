package codegen

import (
	"strings"
	"testing"

	"outliner/internal/exec"
	"outliner/internal/isa"
	"outliner/internal/llir"
	"outliner/internal/verify"
)

// compileAndRun compiles a one-function module plus a main that prints the
// function's result for the given constant arguments.
func compileAndRun(t *testing.T, f *llir.Func, args ...int64) string {
	t.Helper()
	m := llir.NewModule("T")
	m.AddFunc(f)

	mainFn := &llir.Func{Name: "main"}
	b := &llir.Block{Label: "entry"}
	var vals []llir.Value
	for _, a := range args {
		v := mainFn.NewValue()
		b.Insts = append(b.Insts, llir.Inst{Op: llir.Const, Dst: v, Imm: a})
		vals = append(vals, v)
	}
	res := mainFn.NewValue()
	b.Insts = append(b.Insts, llir.Inst{Op: llir.Call, Dst: res, Sym: f.Name, Ext: &llir.Ext{Args: vals}})
	b.Insts = append(b.Insts, llir.Inst{Op: llir.Call, Sym: llir.RTPrintInt, Ext: &llir.Ext{Args: []llir.Value{res}}})
	b.Insts = append(b.Insts, llir.Inst{Op: llir.Ret})
	mainFn.Blocks = []*llir.Block{b}
	m.AddFunc(mainFn)

	prog, err := CompileWith(m, 0)
	if err != nil {
		t.Fatalf("CompileWith: %v", err)
	}
	if err := verify.Program(prog, llir.RuntimeSyms).Err(); err != nil {
		t.Fatalf("Verify: %v\n%s", err, prog)
	}
	mach, err := exec.New(prog, exec.Options{MaxSteps: 10_000_000})
	if err != nil {
		t.Fatal(err)
	}
	out, err := mach.Run("main")
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return out
}

// Phi swap cycle: (a, b) = (b, a) each iteration — out-of-SSA must break the
// copy cycle with a temporary.
func TestOutOfSSASwapCycle(t *testing.T) {
	f := &llir.Func{Name: "swapn", NumParams: 1}
	f.NumValues = 1
	n := f.Param(0)
	c0 := f.NewValue()
	c1 := f.NewValue()
	i0 := f.NewValue()
	phiA := f.NewValue()
	phiB := f.NewValue()
	phiI := f.NewValue()
	one := f.NewValue()
	iNext := f.NewValue()
	cond := f.NewValue()

	f.Blocks = []*llir.Block{
		{Label: "entry", Insts: []llir.Inst{
			{Op: llir.Const, Dst: c0, Imm: 7},
			{Op: llir.Const, Dst: c1, Imm: 100},
			{Op: llir.Const, Dst: i0, Imm: 0},
			{Op: llir.Br, Sym: "loop"},
		}},
		{Label: "loop", Insts: []llir.Inst{
			// a and b swap every iteration.
			{Op: llir.Phi, Dst: phiA, Ext: &llir.Ext{Incomings: []llir.Incoming{{Pred: "entry", Val: c0}, {Pred: "latch", Val: phiB}}}},
			{Op: llir.Phi, Dst: phiB, Ext: &llir.Ext{Incomings: []llir.Incoming{{Pred: "entry", Val: c1}, {Pred: "latch", Val: phiA}}}},
			{Op: llir.Phi, Dst: phiI, Ext: &llir.Ext{Incomings: []llir.Incoming{{Pred: "entry", Val: i0}, {Pred: "latch", Val: iNext}}}},
			{Op: llir.Br, Sym: "latch"},
		}},
		{Label: "latch", Insts: []llir.Inst{
			{Op: llir.Const, Dst: one, Imm: 1},
			{Op: llir.Bin, Dst: iNext, BinOp: llir.Add, A: phiI, B: one},
			{Op: llir.Cmp, Dst: cond, Cond: llir.Lt, A: iNext, B: n},
			{Op: llir.CondBr, A: cond, Sym: "loop", Ext: &llir.Ext{Else: "exit"}},
		}},
		{Label: "exit", Insts: []llir.Inst{
			{Op: llir.Ret, A: phiA},
		}},
	}
	// After an odd number of swaps (n=1 → 1 iteration), a holds... trace:
	// iteration executes once with n=1: a=7 (phi from entry), exit returns
	// phiA after 1 latch pass: values swap on the back edge only; with n=3
	// the loop body runs 3 times: a = 7,100,7 → final phiA depends on trips.
	if got := compileAndRun(t, f, 3); got != "7\n" && got != "100\n" {
		t.Fatalf("unexpected result %q", got)
	}
	// Determinism across distinct trip counts: one extra trip must flip it.
	a3 := compileAndRun(t, f, 3)
	a4 := compileAndRun(t, f, 4)
	if a3 == a4 {
		t.Errorf("swap did not alternate: n=3 -> %q, n=4 -> %q", a3, a4)
	}
}

// Register pressure: more than 17 simultaneously-live values forces spills,
// and the result must still be correct.
func TestSpilling(t *testing.T) {
	const nvals = 30
	f := &llir.Func{Name: "pressure", NumParams: 1}
	f.NumValues = 1
	b := &llir.Block{Label: "entry"}
	var vals []llir.Value
	for i := 0; i < nvals; i++ {
		v := f.NewValue()
		b.Insts = append(b.Insts, llir.Inst{Op: llir.Const, Dst: v, Imm: int64(i + 1)})
		vals = append(vals, v)
	}
	// A call makes everything live-across-call (callee-saved pressure).
	b.Insts = append(b.Insts, llir.Inst{Op: llir.Call, Sym: llir.RTRetain, Ext: &llir.Ext{Args: []llir.Value{f.Param(0)}}})
	sum := vals[0]
	for i := 1; i < nvals; i++ {
		ns := f.NewValue()
		b.Insts = append(b.Insts, llir.Inst{Op: llir.Bin, Dst: ns, BinOp: llir.Add, A: sum, B: vals[i]})
		sum = ns
	}
	b.Insts = append(b.Insts, llir.Inst{Op: llir.Ret, A: sum})
	f.Blocks = []*llir.Block{b}

	want := "465\n" // 1+2+...+30
	if got := compileAndRun(t, f, 0); got != want {
		t.Fatalf("got %q, want %q", got, want)
	}

	// The compiled function must actually contain spill traffic.
	m := llir.NewModule("T2")
	m.AddFunc(f)
	prog, err := CompileWith(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	spills := 0
	for _, blk := range prog.Func("pressure").Blocks {
		for _, in := range blk.Insts {
			if (in.Op == isa.STRui || in.Op == isa.LDRui) && in.Rn == isa.SP {
				spills++
			}
		}
	}
	if spills == 0 {
		t.Error("no spill code generated under register pressure")
	}
}

// Calling convention: arguments materialize into x0..x7 as ORR moves or
// immediate moves — the paper's Listing 1-6 pattern factory.
func TestCallingConventionMoves(t *testing.T) {
	f := &llir.Func{Name: "callee", NumParams: 2}
	f.NumValues = 2
	s := f.NewValue()
	f.Blocks = []*llir.Block{{Label: "entry", Insts: []llir.Inst{
		{Op: llir.Bin, Dst: s, BinOp: llir.Add, A: f.Param(0), B: f.Param(1)},
		{Op: llir.Ret, A: s},
	}}}
	if got := compileAndRun(t, f, 30, 12); got != "42\n" {
		t.Fatalf("got %q", got)
	}
}

func TestFrameOnlyWhenNeeded(t *testing.T) {
	leaf := &llir.Func{Name: "leaf", NumParams: 1}
	leaf.NumValues = 1
	v := leaf.NewValue()
	leaf.Blocks = []*llir.Block{{Label: "entry", Insts: []llir.Inst{
		{Op: llir.Bin, Dst: v, BinOp: llir.Add, A: leaf.Param(0), B: leaf.Param(0)},
		{Op: llir.Ret, A: v},
	}}}
	m := llir.NewModule("T")
	m.AddFunc(leaf)

	caller := &llir.Func{Name: "caller", NumParams: 1}
	caller.NumValues = 1
	r := caller.NewValue()
	caller.Blocks = []*llir.Block{{Label: "entry", Insts: []llir.Inst{
		{Op: llir.Call, Dst: r, Sym: "leaf", Ext: &llir.Ext{Args: []llir.Value{caller.Param(0)}}},
		{Op: llir.Ret, A: r},
	}}}
	m.AddFunc(caller)

	prog, err := CompileWith(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	leafCode := prog.Func("leaf")
	for _, b := range leafCode.Blocks {
		for _, in := range b.Insts {
			if in.Op == isa.STPpre {
				t.Errorf("leaf function grew a frame:\n%s", leafCode)
			}
		}
	}
	callerCode := prog.Func("caller")
	hasFrame := false
	for _, b := range callerCode.Blocks {
		for _, in := range b.Insts {
			if in.Op == isa.STPpre && in.Rd == isa.FP && in.Rd2 == isa.LR {
				hasFrame = true
			}
		}
	}
	if !hasFrame {
		t.Errorf("calling function has no fp/lr frame:\n%s", callerCode)
	}
}

// Throwing convention: the callee sets x21; the caller reads it.
func TestErrorChannel(t *testing.T) {
	thrower := &llir.Func{Name: "thrower", NumParams: 1, Throws: true}
	thrower.NumValues = 1
	zero := thrower.NewValue()
	errv := thrower.NewValue()
	cmp := thrower.NewValue()
	ret0 := thrower.NewValue()
	thrower.Blocks = []*llir.Block{
		{Label: "entry", Insts: []llir.Inst{
			{Op: llir.Const, Dst: zero, Imm: 0},
			{Op: llir.Cmp, Dst: cmp, Cond: llir.Lt, A: thrower.Param(0), B: zero},
			{Op: llir.CondBr, A: cmp, Sym: "bad", Ext: &llir.Ext{Else: "good"}},
		}},
		{Label: "bad", Insts: []llir.Inst{
			{Op: llir.Const, Dst: errv, Imm: 43},
			{Op: llir.Ret, B: errv},
		}},
		{Label: "good", Insts: []llir.Inst{
			{Op: llir.Const, Dst: ret0, Imm: 0},
			{Op: llir.Ret, A: thrower.Param(0), B: ret0},
		}},
	}
	m := llir.NewModule("T")
	m.AddFunc(thrower)

	mainFn := &llir.Func{Name: "main"}
	arg := mainFn.NewValue()
	res := mainFn.NewValue()
	errd := mainFn.NewValue()
	mainFn.Blocks = []*llir.Block{{Label: "entry", Insts: []llir.Inst{
		{Op: llir.Const, Dst: arg, Imm: -5},
		{Op: llir.Call, Dst: res, Sym: "thrower", Throws: true, Ext: &llir.Ext{ErrDst: errd, Args: []llir.Value{arg}}},
		{Op: llir.Call, Sym: llir.RTPrintInt, Ext: &llir.Ext{Args: []llir.Value{errd}}},
		{Op: llir.Ret},
	}}}
	m.AddFunc(mainFn)

	prog, err := CompileWith(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	mach, err := exec.New(prog, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := mach.Run("main")
	if err != nil {
		t.Fatal(err)
	}
	if out != "43\n" {
		t.Errorf("error channel value = %q, want 43", out)
	}
}

func TestTooManyArgsRejected(t *testing.T) {
	f := &llir.Func{Name: "wide", NumParams: 9}
	f.NumValues = 9
	f.Blocks = []*llir.Block{{Label: "entry", Insts: []llir.Inst{{Op: llir.Ret, A: f.Param(0)}}}}
	m := llir.NewModule("T")
	m.AddFunc(f)
	if _, err := CompileWith(m, 0); err == nil || !strings.Contains(err.Error(), "argument registers") {
		t.Errorf("err = %v", err)
	}
}

// The Rem lowering (SDIV + MSUB) must compute a - (a/b)*b.
func TestRemLowering(t *testing.T) {
	f := &llir.Func{Name: "mod", NumParams: 2}
	f.NumValues = 2
	r := f.NewValue()
	f.Blocks = []*llir.Block{{Label: "entry", Insts: []llir.Inst{
		{Op: llir.Bin, Dst: r, BinOp: llir.Rem, A: f.Param(0), B: f.Param(1)},
		{Op: llir.Ret, A: r},
	}}}
	if got := compileAndRun(t, f, 17, 5); got != "2\n" {
		t.Errorf("17 %% 5 = %q", got)
	}
}

// Mul by a power-of-two constant lowers to a shift.
func TestShiftStrengthReduction(t *testing.T) {
	f := &llir.Func{Name: "by8", NumParams: 1}
	f.NumValues = 1
	c := f.NewValue()
	r := f.NewValue()
	f.Blocks = []*llir.Block{{Label: "entry", Insts: []llir.Inst{
		{Op: llir.Const, Dst: c, Imm: 8},
		{Op: llir.Bin, Dst: r, BinOp: llir.Mul, A: f.Param(0), B: c},
		{Op: llir.Ret, A: r},
	}}}
	if got := compileAndRun(t, f, 5); got != "40\n" {
		t.Fatalf("got %q", got)
	}
	m := llir.NewModule("T2")
	m.AddFunc(f)
	prog, err := CompileWith(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	hasShift, hasMul := false, false
	for _, b := range prog.Func("by8").Blocks {
		for _, in := range b.Insts {
			if in.Op == isa.LSLri {
				hasShift = true
			}
			if in.Op == isa.MUL {
				hasMul = true
			}
		}
	}
	if !hasShift || hasMul {
		t.Errorf("power-of-two multiply not strength-reduced:\n%s", prog.Func("by8"))
	}
}

// A diamond where both CondBr targets carry phis forces critical-edge
// splitting; values must still flow correctly.
func TestCriticalEdgeSplitting(t *testing.T) {
	f := &llir.Func{Name: "diamond", NumParams: 1}
	f.NumValues = 1
	c0 := f.NewValue()
	cond := f.NewValue()
	a := f.NewValue()
	bv := f.NewValue()
	phi := f.NewValue()
	f.Blocks = []*llir.Block{
		{Label: "entry", Insts: []llir.Inst{
			{Op: llir.Const, Dst: c0, Imm: 10},
			{Op: llir.Cmp, Dst: cond, Cond: llir.Lt, A: f.Param(0), B: c0},
			// Both successors join at "out" — the edges are critical when
			// "out" has multiple predecessors and entry has two successors.
			{Op: llir.CondBr, A: cond, Sym: "left", Ext: &llir.Ext{Else: "right"}},
		}},
		{Label: "left", Insts: []llir.Inst{
			{Op: llir.Const, Dst: a, Imm: 111},
			{Op: llir.Br, Sym: "out"},
		}},
		{Label: "right", Insts: []llir.Inst{
			{Op: llir.Const, Dst: bv, Imm: 222},
			{Op: llir.Br, Sym: "out"},
		}},
		{Label: "out", Insts: []llir.Inst{
			{Op: llir.Phi, Dst: phi, Ext: &llir.Ext{Incomings: []llir.Incoming{
				{Pred: "left", Val: a}, {Pred: "right", Val: bv},
			}}},
			{Op: llir.Ret, A: phi},
		}},
	}
	if got := compileAndRun(t, f, 5); got != "111\n" {
		t.Errorf("lt path got %q", got)
	}
	if got := compileAndRun(t, f, 50); got != "222\n" {
		t.Errorf("ge path got %q", got)
	}
}

// bothTargets is a function whose CondBr targets BOTH have phis from a
// multi-pred join, so that out-of-SSA splits both edges of one terminator: it
// retargets the CondBr's labels and the incomings of both joins' phis.
func bothTargets() *llir.Func {
	f := &llir.Func{Name: "both", NumParams: 1}
	f.NumValues = 1
	c0 := f.NewValue()
	cond := f.NewValue()
	one := f.NewValue()
	two := f.NewValue()
	phiA := f.NewValue()
	phiB := f.NewValue()
	sum := f.NewValue()
	f.Blocks = []*llir.Block{
		{Label: "entry", Insts: []llir.Inst{
			{Op: llir.Const, Dst: c0, Imm: 0},
			{Op: llir.Const, Dst: one, Imm: 1},
			{Op: llir.Const, Dst: two, Imm: 2},
			{Op: llir.Cmp, Dst: cond, Cond: llir.Gt, A: f.Param(0), B: c0},
			{Op: llir.CondBr, A: cond, Sym: "ja", Ext: &llir.Ext{Else: "jb"}},
		}},
		{Label: "pre", Insts: []llir.Inst{ // second predecessor for both joins
			{Op: llir.Br, Sym: "ja"},
		}},
		{Label: "ja", Insts: []llir.Inst{
			{Op: llir.Phi, Dst: phiA, Ext: &llir.Ext{Incomings: []llir.Incoming{
				{Pred: "entry", Val: one}, {Pred: "pre", Val: two},
			}}},
			{Op: llir.Br, Sym: "jb"},
		}},
		{Label: "jb", Insts: []llir.Inst{
			{Op: llir.Phi, Dst: phiB, Ext: &llir.Ext{Incomings: []llir.Incoming{
				{Pred: "entry", Val: two}, {Pred: "ja", Val: phiA},
			}}},
			{Op: llir.Bin, Dst: sum, BinOp: llir.Add, A: phiB, B: one},
			{Op: llir.Ret, A: sum},
		}},
	}
	return f
}

// A CondBr whose targets both have phis requires two splits on the same
// terminator.
func TestCriticalEdgeBothTargets(t *testing.T) {
	f := bothTargets()
	// x>0: entry->ja (phiA=1) -> jb (phiB=phiA=1) -> ret 2.
	if got := compileAndRun(t, f, 7); got != "2\n" {
		t.Errorf("taken path got %q", got)
	}
	// x<=0: entry->jb directly (phiB=2) -> ret 3.
	if got := compileAndRun(t, f, -1); got != "3\n" {
		t.Errorf("fallthrough path got %q", got)
	}
}

// TestCompileLeavesSourceUnchanged: codegen splits critical edges in its own
// copy of a function. The copy shares nothing the split retargets (the
// CondBr's else label, the phis' incomings) with the source, so the source
// prints as before and compiles to the same code again.
func TestCompileLeavesSourceUnchanged(t *testing.T) {
	m := llir.NewModule("T")
	m.AddFunc(bothTargets())
	want := m.String()
	var c Compiler
	first, err := c.Compile(m, 1, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(first.String(), "entry.crit2") {
		t.Fatalf("no edge of the else target was split:\n%s", first)
	}
	if got := m.String(); got != want {
		t.Fatalf("compiling changed the source:\n%s\nwant\n%s", got, want)
	}
	again, err := c.Compile(m, 1, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.String() != first.String() {
		t.Errorf("a second compile differs:\n%s\nfirst\n%s", again, first)
	}
}
