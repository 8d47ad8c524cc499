package mir

import (
	"fmt"
	"strings"
	"testing"

	"outliner/internal/isa"
)

const sampleSrc = `
func @release_x20 module "RiderCore" {
entry:
  ORRXrs $x0, $xzr, $x20
  BL @swift_release
  RET
}

func @caller module "RiderCore" {
entry:
  MOVZXi $x0, #5
  CMPXri $x0, #0
  Bcc.eq @done
body:
  BL @release_x20
done:
  RET
}

global @gTable module "RiderCore" = [1, 2, 3]
`

func mustParse(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return p
}

func TestParseAndPrintRoundTrip(t *testing.T) {
	p := mustParse(t, sampleSrc)
	if got := len(p.Funcs); got != 2 {
		t.Fatalf("parsed %d funcs, want 2", got)
	}
	if p.Func("release_x20") == nil || p.Func("caller") == nil {
		t.Fatal("function index missing entries")
	}
	if p.Func("release_x20").Module != "RiderCore" {
		t.Errorf("module = %q", p.Func("release_x20").Module)
	}
	if len(p.Globals) != 1 || p.Globals[0].Name != "gTable" || len(p.Globals[0].Words) != 3 {
		t.Fatalf("global parse wrong: %+v", p.Globals)
	}

	printed := p.String()
	p2 := mustParse(t, printed)
	if p2.String() != printed {
		t.Error("print/parse/print is not a fixed point")
	}
	if p2.NumInsts() != p.NumInsts() {
		t.Errorf("round trip changed inst count: %d vs %d", p2.NumInsts(), p.NumInsts())
	}
}

func TestParseInstMatchesConstructed(t *testing.T) {
	in, err := ParseInst("ORRXrs $x0, $xzr, $x20")
	if err != nil {
		t.Fatal(err)
	}
	if in != isa.MoveRR(isa.X0, isa.X20) {
		t.Errorf("parsed %+v differs from constructed move", in)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"func @f {\nentry:\n  FROB $x0\n}",             // unknown opcode
		"func @f {\n  RET\n}",                          // inst outside block
		"func @f {\nentry:\n  BL swift\n}",             // symbol without @
		"func @f {\nentry:\n  MOVZXi $x0\n}",           // missing operand
		"func @f {\nentry:\n  RET $x0\n}",              // extra operand
		"func @f {\nentry:\n  RET\n",                   // unterminated
		"}",                                            // unmatched brace
		"func @f {\nentry:\n  LDRXui $x0, $x99, #0\n}", // bad register
		"global @g = 5",                                // bad global body
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse accepted invalid input %q", src)
		}
	}
}

func TestSizeAccounting(t *testing.T) {
	p := mustParse(t, sampleSrc)
	// release_x20: 3 insts, caller: 5 insts, all 4 bytes.
	if got := p.NumInsts(); got != 8 {
		t.Errorf("NumInsts = %d, want 8", got)
	}
	if got := p.CodeSize(); got != 32 {
		t.Errorf("CodeSize = %d, want 32", got)
	}
	if got := p.DataSize(); got != 24 {
		t.Errorf("DataSize = %d, want 24", got)
	}
	withADR := mustParse(t, "func @f {\nentry:\n  ADRP $x0, @gTable\n  RET\n}\nglobal @gTable = [0]")
	if got := withADR.CodeSize(); got != 12 {
		t.Errorf("CodeSize with ADR = %d, want 12", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := mustParse(t, sampleSrc)
	c := p.Clone()
	c.Func("caller").Blocks[0].Insts[0] = isa.Inst{Op: isa.NOP}
	c.Globals[0].Words[0] = 99
	if p.Func("caller").Blocks[0].Insts[0].Op == isa.NOP {
		t.Error("Clone shares instruction storage")
	}
	if p.Globals[0].Words[0] == 99 {
		t.Error("Clone shares global storage")
	}
}

// TestResetTo: in-place restore preserves the receiver pointer and yields a
// deep copy — mutating the restored program must not touch the snapshot.
func TestResetTo(t *testing.T) {
	snapshot := mustParse(t, sampleSrc)
	p := NewProgram()
	p.AddFunc(&Function{Name: "garbage", Blocks: []*Block{{Label: "entry"}}})
	p.ResetTo(snapshot)
	if p.String() != snapshot.String() {
		t.Fatal("ResetTo did not reproduce the snapshot")
	}
	if p.Func("garbage") != nil {
		t.Fatal("stale function survived ResetTo")
	}
	if p.Func("caller") == nil || p.Func("caller") == snapshot.Func("caller") {
		t.Fatal("ResetTo must deep-copy, not alias")
	}
	p.Func("caller").Blocks[0].Insts[0].Imm = 99
	if snapshot.Func("caller").Blocks[0].Insts[0].Imm != 5 {
		t.Fatal("mutating the restored program leaked into the snapshot")
	}
}

func TestModules(t *testing.T) {
	p := mustParse(t, sampleSrc)
	p.AddFunc(&Function{Name: "z", Module: "Vendor", Blocks: []*Block{{Label: "entry", Insts: []isa.Inst{{Op: isa.RET}}}}})
	mods := p.Modules()
	if len(mods) != 2 || mods[0] != "RiderCore" || mods[1] != "Vendor" {
		t.Errorf("Modules = %v", mods)
	}
}

func TestDuplicateFuncPanics(t *testing.T) {
	p := NewProgram()
	p.AddFunc(&Function{Name: "f"})
	defer func() {
		if recover() == nil {
			t.Error("AddFunc accepted duplicate name")
		}
	}()
	p.AddFunc(&Function{Name: "f"})
}

func TestFunctionStringContainsListingStylePattern(t *testing.T) {
	p := mustParse(t, sampleSrc)
	out := p.Func("release_x20").String()
	// The printed form should read like the paper's Listing 1.
	if !strings.Contains(out, "ORRXrs $x0, $xzr, $x20") || !strings.Contains(out, "BL @swift_release") {
		t.Errorf("unexpected print:\n%s", out)
	}
}

// Property: ParseInst inverts isa.Inst.AppendText for every opcode and every
// operand slot. A slot counts as printed when changing its value changes the
// text; the parse must give back every printed slot and zero in the rest, and
// must print to the same text. Every register an instruction defines or uses
// must be printed, so a dropped operand fails here rather than after a trip
// through MIR text.
func TestParsePrintRoundTripProperty(t *testing.T) {
	regs := []isa.Reg{isa.X1, isa.X9, isa.X19, isa.X28, isa.FP, isa.LR, isa.SP, isa.XZR}
	conds := []isa.Cond{isa.EQ, isa.NE, isa.LT, isa.LE, isa.GT, isa.GE}
	slots := []struct {
		name string
		set  func(in *isa.Inst, k int)
	}{
		{"Rd", func(in *isa.Inst, k int) { in.Rd = regs[k%len(regs)] }},
		{"Rd2", func(in *isa.Inst, k int) { in.Rd2 = regs[k%len(regs)] }},
		{"Rn", func(in *isa.Inst, k int) { in.Rn = regs[k%len(regs)] }},
		{"Rm", func(in *isa.Inst, k int) { in.Rm = regs[k%len(regs)] }},
		{"Imm", func(in *isa.Inst, k int) { in.Imm = int64(k*4093 - 2048) }},
		{"Sym", func(in *isa.Inst, k int) { in.Sym = fmt.Sprintf("sym%d", k) }},
		{"Cond", func(in *isa.Inst, k int) { in.Cond = conds[k%len(conds)] }},
	}
	for op := isa.Op(1); op < isa.NumOps; op++ {
		for k := range regs {
			in := isa.Inst{Op: op}
			for s, slot := range slots {
				slot.set(&in, k+s)
			}
			text := in.String()
			want := isa.Inst{Op: op}
			var printed []string
			for s, slot := range slots {
				alt := in
				slot.set(&alt, k+s+1)
				if alt.String() != text {
					slot.set(&want, k+s)
					printed = append(printed, slot.name)
				}
			}
			got, err := ParseInst(text)
			if err != nil {
				t.Fatalf("ParseInst(%q): %v", text, err)
			}
			if got != want || got.String() != text {
				t.Fatalf("ParseInst(%q) = %+v, want %+v (printed slots %v)", text, got, want, printed)
			}
			if got.DefMask() != in.DefMask() || got.UseMask() != in.UseMask() {
				t.Fatalf("%q drops a register %s reads or writes: defs %#x uses %#x, parsed back as defs %#x uses %#x",
					text, isa.OpName(op), in.DefMask(), in.UseMask(), got.DefMask(), got.UseMask())
			}
		}
	}
}
