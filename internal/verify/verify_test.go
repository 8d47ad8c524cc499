package verify

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"outliner/internal/binimg"
	"outliner/internal/isa"
	"outliner/internal/llir"
	"outliner/internal/mir"
	"outliner/internal/raceflag"
)

func parse(t *testing.T, src string) *mir.Program {
	t.Helper()
	p, err := mir.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

// expectViolation verifies src and requires a violation whose message
// contains want; it also requires every violation to carry function and PC
// context, the diagnostic shape the corrupted-image acceptance test needs.
func expectViolation(t *testing.T, src, want string) {
	t.Helper()
	p := parse(t, src)
	r := Program(p, llir.RuntimeSyms)
	if r.OK() {
		t.Fatalf("program accepted, want violation containing %q", want)
	}
	found := false
	for _, v := range r.Violations {
		if strings.Contains(v.Msg, want) {
			found = true
		}
		if v.Func == "" {
			t.Errorf("violation without function context: %s", v)
		}
		if v.PC < 0 {
			t.Errorf("violation without PC context: %s", v)
		}
	}
	if !found {
		t.Fatalf("violations %v do not mention %q", r.Violations, want)
	}
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "verify:") {
		t.Fatalf("Err() = %v, want a verify error", err)
	}
	// Checking every function by index is checking the program.
	all := make([]int, len(p.Funcs))
	for i := range all {
		all[i] = i
	}
	if part := Funcs(p, llir.RuntimeSyms, all); !reflect.DeepEqual(part, r) {
		t.Errorf("Funcs over every function reports %+v, Program %+v", part, r)
	}
}

func TestAcceptsWellFormedFrame(t *testing.T) {
	p := parse(t, `
func @leaf {
entry:
  ADDXri $x0, $x0, #1
  RET
}
func @main {
entry:
  STPXpre $x29, $x30, $sp, #-32
  STRXui $x19, $sp, #16
  ADDXri $x29, $sp, #0
  MOVZXi $x0, #3
  BL @leaf
  BL @print_int
  LDRXui $x19, $sp, #16
  LDPXpost $x29, $x30, $sp, #32
  RET
}
`)
	r := Program(p, llir.RuntimeSyms)
	if err := r.Err(); err != nil {
		t.Fatalf("well-formed program rejected: %v", err)
	}
	if r.FuncsChecked != 2 {
		t.Errorf("FuncsChecked = %d, want 2", r.FuncsChecked)
	}
}

func TestAcceptsOutlinedStrategies(t *testing.T) {
	// The three outliner strategies: tail-call (ends in RET), thunk (tail B),
	// plain with an interior call (LR spill frame), plus a caller-side LR
	// spill around a call to a plain outlined function.
	p := parse(t, `
func @callee {
entry:
  RET
}
func @OUTLINED_FUNCTION_0 outlined {
entry:
  MOVZXi $x1, #1
  RET
}
func @OUTLINED_FUNCTION_1 outlined {
entry:
  MOVZXi $x1, #2
  B @callee
}
func @OUTLINED_FUNCTION_2 outlined {
entry:
  STRXpre $x30, $sp, #-16
  BL @callee
  LDRXpost $x30, $sp, #16
  RET
}
func @main {
entry:
  STPXpre $x29, $x30, $sp, #-16
  BL @OUTLINED_FUNCTION_0
  BL @OUTLINED_FUNCTION_1
  BL @OUTLINED_FUNCTION_2
  STRXpre $x30, $sp, #-16
  BL @OUTLINED_FUNCTION_0
  LDRXpost $x30, $sp, #16
  LDPXpost $x29, $x30, $sp, #16
  RET
}
`)
	if err := Program(p, llir.RuntimeSyms).Err(); err != nil {
		t.Fatalf("outlined strategies rejected: %v", err)
	}
}

func TestRejectsUnbalancedSPAtRet(t *testing.T) {
	expectViolation(t, `
func @main {
entry:
  STPXpre $x29, $x30, $sp, #-16
  RET
}
`, "unbalanced stack pointer")
}

func TestRejectsClobberedLRAtRet(t *testing.T) {
	expectViolation(t, `
func @f {
entry:
  RET
}
func @main {
entry:
  BL @f
  RET
}
`, "clobbered link register")
}

func TestRejectsRestoreFromWrongSlot(t *testing.T) {
	// The entry LR lives at [entry_sp-24] (second register of the STP pair);
	// reloading x30 from [sp+0] = [entry_sp-32] restores x29's slot instead.
	expectViolation(t, `
func @f {
entry:
  RET
}
func @main {
entry:
  STPXpre $x29, $x30, $sp, #-32
  BL @f
  LDRXui $x30, $sp, #0
  ADDXri $sp, $sp, #32
  RET
}
`, "clobbered link register")
}

func TestRejectsStackDepthJoinMismatch(t *testing.T) {
	expectViolation(t, `
func @main {
entry:
  CMPXri $x0, #0
  Bcc.eq @done
body:
  STPXpre $x29, $x30, $sp, #-16
  B @done
done:
  RET
}
`, "stack depth disagrees")
}

func TestRejectsOutOfFrameAccess(t *testing.T) {
	expectViolation(t, `
func @main {
entry:
  STPXpre $x29, $x30, $sp, #-16
  STRXui $x19, $sp, #24
  LDPXpost $x29, $x30, $sp, #16
  RET
}
`, "escapes the 16-byte frame")
}

func TestRejectsTailCallWithLiveFrame(t *testing.T) {
	expectViolation(t, `
func @f {
entry:
  RET
}
func @main {
entry:
  STPXpre $x29, $x30, $sp, #-16
  B @f
}
`, "tail call to \"f\" with unbalanced stack pointer")
}

func TestRejectsBranchToUnknownLabel(t *testing.T) {
	expectViolation(t, `
func @main {
entry:
  CMPXri $x0, #0
  Bcc.eq @nowhere
exit:
  RET
}
`, "unknown label")
}

func TestRejectsCallToUndefinedSymbol(t *testing.T) {
	expectViolation(t, `
func @main {
entry:
  STPXpre $x29, $x30, $sp, #-16
  BL @missing_helper
  LDPXpost $x29, $x30, $sp, #16
  RET
}
`, `call to undefined symbol "missing_helper"`)
}

func TestRejectsFallThroughOffEnd(t *testing.T) {
	expectViolation(t, `
func @main {
entry:
  MOVZXi $x0, #1
}
`, "falls through off the end")
}

func TestRejectsInstructionAfterTerminator(t *testing.T) {
	expectViolation(t, `
func @main {
entry:
  RET
  MOVZXi $x0, #1
}
`, "after terminator")
}

func TestRejectsMultiBlockOutlined(t *testing.T) {
	expectViolation(t, `
func @OUTLINED_FUNCTION_9 outlined {
entry:
  MOVZXi $x0, #1
a:
  RET
}
`, "single straight-line block")
}

func TestRejectsSPFromNonSP(t *testing.T) {
	expectViolation(t, `
func @main {
entry:
  ADDXri $sp, $x1, #0
  RET
}
`, "SP assigned from non-SP")
}

// TestAcceptsTailCallToRuntime: an outlined thunk may end in a B to a runtime
// symbol, which is a tail call, not a branch to an unknown label.
func TestAcceptsTailCallToRuntime(t *testing.T) {
	p := parse(t, `
func @OUTLINED_FUNCTION_0 outlined {
entry:
  ORRXrs $x0, $xzr, $x20
  B @swift_release
}
`)
	if err := Program(p, llir.RuntimeSyms).Err(); err != nil {
		t.Fatalf("thunk tail call rejected: %v", err)
	}
}

func TestViolationCarriesPC(t *testing.T) {
	// The bad RET is the second instruction of @second; @first occupies 8
	// bytes, the STPXpre 4 more, so the violation PC must be 0xc.
	p := parse(t, `
func @first {
entry:
  MOVZXi $x0, #1
  RET
}
func @second {
entry:
  STPXpre $x29, $x30, $sp, #-16
  RET
}
`)
	r := Program(p, nil)
	if r.OK() {
		t.Fatal("expected violations")
	}
	v := r.Violations[0]
	if v.Func != "second" || v.PC != 0xc {
		t.Errorf("violation = %+v, want Func=second PC=0xc", v)
	}
	if !strings.Contains(v.String(), "@second+0xc") {
		t.Errorf("String() = %q, want @second+0xc", v.String())
	}
}

func TestImageMatchesProgram(t *testing.T) {
	p := parse(t, `
func @main {
entry:
  MOVZXi $x0, #1
  RET
}
global @g = [1, 2]
`)
	img := binimg.Build(p)
	if err := Image(img, p).Err(); err != nil {
		t.Fatalf("consistent image rejected: %v", err)
	}

	// Corrupt the image: shrink a code symbol. Both the size mismatch and
	// the symbol-gap invariants must fire, each naming the symbol.
	img.Symbols[0].Size -= 4
	r := Image(img, p)
	if r.OK() {
		t.Fatal("corrupted image accepted")
	}
	if !strings.Contains(r.Err().Error(), "main") {
		t.Errorf("diagnostic %v does not name the symbol", r.Err())
	}

	img2 := binimg.Build(p)
	img2.CodeSize += 8
	if Image(img2, p).OK() {
		t.Fatal("image with wrong code-section size accepted")
	}
}

// manyViolations has violations in three of its four functions, several per
// function and in more than one block, after a clean function and an 8-byte
// instruction that shift every address.
const manyViolations = `
func @clean {
entry:
  ADRP $x1, @clean
  RET
}
func @a {
entry:
  MOVZXi $x0, #1
  BL @missing_a
  Bcc.eq @nowhere
mid:
  BL @missing_b
  RET
}
func @b {
entry:
  STPXpre $x29, $x30, $sp, #-16
  RET
}
func @c {
entry:
  MOVZXi $x0, #1
  MOVZXi $x0, #2
}
`

// TestFrontierSubsetOfViolations: Funcs reports, for the functions it is
// given, exactly the violations Program reports for them — text, order and
// addresses — whichever functions come before them in the call.
func TestFrontierSubsetOfViolations(t *testing.T) {
	p := parse(t, manyViolations)
	full := Program(p, nil)
	if full.FuncsChecked != 4 {
		t.Fatalf("Program checked %d functions, want 4", full.FuncsChecked)
	}
	wantPCs := map[string][]int64{"a": {0x10, 0x14, 0x18}, "b": {0x24}, "c": {0x2c}}
	for name, pcs := range wantPCs {
		var got []int64
		for _, v := range full.Violations {
			if v.Func == name {
				got = append(got, v.PC)
			}
		}
		if !reflect.DeepEqual(got, pcs) {
			t.Errorf("@%s: violation addresses %#x, want %#x (%v)", name, got, pcs, full.Violations)
		}
	}
	for _, subset := range [][]int{{0}, {1}, {3}, {0, 2}, {1, 3}, {1, 2, 3}} {
		var want []Violation
		for _, v := range full.Violations {
			for _, fi := range subset {
				if v.Func == p.Funcs[fi].Name {
					want = append(want, v)
				}
			}
		}
		part := Funcs(p, nil, subset)
		if part.FuncsChecked != len(subset) || !reflect.DeepEqual(part.Violations, want) {
			t.Errorf("Funcs%v: checked %d, reports %v; Program reports %v for them",
				subset, part.FuncsChecked, part.Violations, want)
		}
	}
	if part := Funcs(p, nil, nil); part.FuncsChecked != 0 || !part.OK() {
		t.Errorf("Funcs over no functions reports %+v", part)
	}
}

// TestFrontierDuplicateSymbol: a function appended under a name the program
// already uses — what an outlined function colliding with a user function
// called OUTLINED_FUNCTION_0 would be — is reported by the subset check just
// as by the whole-program one. (mir.Program.AddFunc refuses such a function
// outright, so the collision is staged by appending to Funcs.)
func TestFrontierDuplicateSymbol(t *testing.T) {
	p := parse(t, `
func @OUTLINED_FUNCTION_0 {
entry:
  RET
}
func @main {
entry:
  RET
}
`)
	p.Funcs = append(p.Funcs, &mir.Function{
		Name: "OUTLINED_FUNCTION_0", Outlined: true,
		Blocks: []*mir.Block{{Label: "entry", Insts: []isa.Inst{{Op: isa.RET}}}},
	})
	full, part := Program(p, nil), Funcs(p, nil, []int{2})
	if len(full.Violations) != 1 || full.Violations[0].Msg != "duplicate function symbol" || full.Violations[0].PC != 8 {
		t.Fatalf("Program reports %v, want one duplicate function symbol at +0x8", full.Violations)
	}
	if !reflect.DeepEqual(part.Violations, full.Violations) {
		t.Errorf("Funcs reports %v, Program %v", part.Violations, full.Violations)
	}
	if first := Funcs(p, nil, []int{0, 1}); !first.OK() {
		t.Errorf("the first bearer of the name is not the duplicate, yet Funcs reports %v", first.Violations)
	}
	if none := Funcs(p, nil, nil); !none.OK() {
		t.Errorf("Funcs over no functions reports %v", none.Violations)
	}
}

// TestAllocBudgetProgram: the label table, the address tables and the
// worklist are one per call, not one per function. What remains per function
// is the entry-LR slot set of a frame and of a join.
func TestAllocBudgetProgram(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector inflates allocation counts")
	}
	const n = 500
	var src strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&src, "func @leaf%d {\nentry:\n  MOVZXi $x0, #1\n  CBZX $x0, @done\nmid:\n  ADRP $x1, @leaf%d\ndone:\n  RET\n}\n", i, i)
		fmt.Fprintf(&src, "func @framed%d {\nentry:\n  STPXpre $x29, $x30, $sp, #-16\n  BL @leaf%d\n  LDPXpost $x29, $x30, $sp, #16\n  RET\n}\n", i, i)
	}
	p := parse(t, src.String())
	if r := Program(p, nil); !r.OK() {
		t.Fatal(r.Err())
	}
	perFunc := testing.AllocsPerRun(5, func() { Program(p, nil) }) / (2 * n)
	if perFunc > 2 { // 1.5 measured; 9 with per-function tables
		t.Errorf("Program allocates %.2f times per function, budget 2", perFunc)
	}
}

// Slot sets are immutable once a frameState holds them, so a join shares
// them: merging into a state whose slots the incoming path also holds keeps
// the state's own set and allocates nothing; a lost fact builds a new set
// and leaves both inputs as they were.
func TestMergeSharesSlotSets(t *testing.T) {
	s := frameState{delta: -32, lrEntry: true}.withSlot(8).withSlot(24)
	o := s.withSlot(16)
	var got frameState
	allocs := testing.AllocsPerRun(100, func() {
		var ok bool
		if got, ok = s.merge(o); !ok {
			t.Fatal("equal depths failed to merge")
		}
	})
	if allocs != 0 {
		t.Errorf("merging a subset allocates %.0f times, want 0", allocs)
	}
	if &got.entrySlots[0] != &s.entrySlots[0] || !got.equal(s) {
		t.Errorf("merge(%v, %v) = %v, want s's own set", s.entrySlots, o.entrySlots, got.entrySlots)
	}

	o = frameState{delta: -32}.withSlot(16).withSlot(24)
	got, ok := s.merge(o)
	if !ok || !reflect.DeepEqual(got.entrySlots, []int64{24}) || got.lrEntry {
		t.Fatalf("merge of {8 24} and {16 24} = %+v, want {24} without the entry LR", got)
	}
	if !reflect.DeepEqual(s.entrySlots, []int64{8, 24}) || !reflect.DeepEqual(o.entrySlots, []int64{16, 24}) {
		t.Errorf("merge changed its inputs: %v, %v", s.entrySlots, o.entrySlots)
	}
	if &got.entrySlots[0] == &s.entrySlots[1] || &got.entrySlots[0] == &o.entrySlots[1] {
		t.Error("a strict intersection aliases an input's set")
	}
	if got, _ := s.merge(frameState{delta: -32}); got.entrySlots != nil {
		t.Errorf("merge with no common slot = %v, want none", got.entrySlots)
	}
	if _, ok := s.merge(frameState{delta: -16}); ok {
		t.Error("states at different stack depths merged")
	}
}
