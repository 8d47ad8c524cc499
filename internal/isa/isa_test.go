package isa

import "testing"

func TestRegString(t *testing.T) {
	cases := []struct {
		r    Reg
		want string
	}{
		{X0, "x0"}, {X28, "x28"}, {FP, "x29"}, {LR, "x30"},
		{SP, "sp"}, {XZR, "xzr"}, {NoReg, "noreg"},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.want {
			t.Errorf("Reg(%d).String() = %q, want %q", c.r, got, c.want)
		}
	}
}

func TestArgReg(t *testing.T) {
	for i := 0; i < NumArgRegs; i++ {
		if got := ArgReg(i); got != X0+Reg(i) {
			t.Errorf("ArgReg(%d) = %v, want x%d", i, got, i)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("ArgReg(8) did not panic")
		}
	}()
	ArgReg(8)
}

func TestCalleeSaved(t *testing.T) {
	saved := []Reg{X19, X20, X25, X28, FP, LR}
	for _, r := range saved {
		if !r.IsCalleeSaved() {
			t.Errorf("%v should be callee saved", r)
		}
	}
	notSaved := []Reg{X0, X7, X9, X15, SP, XZR}
	for _, r := range notSaved {
		if r.IsCalleeSaved() {
			t.Errorf("%v should not be callee saved", r)
		}
	}
}

// TestOpNameRoundTrip: every opcode below NumOps has a row of its own in the
// opcode table, whose mnemonic names it back.
func TestOpNameRoundTrip(t *testing.T) {
	for op := Op(0); op < NumOps; op++ {
		name := OpName(op)
		got, ok := OpFromName(name)
		if name == "" || !ok || got != op {
			t.Errorf("OpFromName(OpName(%d)) = %d, %v (mnemonic %q)", op, got, ok, name)
		}
	}
}

func TestInstString(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{MoveRR(X0, X20), "ORRXrs $x0, $xzr, $x20"},
		{Inst{Op: BL, Sym: "swift_release"}, "BL @swift_release"},
		{Inst{Op: STPpre, Rd: X26, Rd2: X25, Rn: SP, Imm: -64}, "STPXpre $x26, $x25, $sp, #-64"},
		{Inst{Op: LDPpost, Rd: X26, Rd2: X25, Rn: SP, Imm: 64}, "LDPXpost $x26, $x25, $sp, #64"},
		{Inst{Op: RET}, "RET"},
		{Inst{Op: Bcc, Cond: NE, Sym: "bb3"}, "Bcc.ne @bb3"},
		{Inst{Op: CBZ, Rn: X3, Sym: "err"}, "CBZX $x3, @err"},
		{Inst{Op: MOVZ, Rd: X1, Imm: 42}, "MOVZXi $x1, #42"},
		{Inst{Op: LDRui, Rd: X9, Rn: SP, Imm: 16}, "LDRXui $x9, $sp, #16"},
		{Inst{Op: CSET, Rd: X0, Cond: EQ}, "CSETXr $x0, eq"},
		{Inst{Op: ADR, Rd: X2, Sym: "gMap"}, "ADRP $x2, @gMap"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestInstSize(t *testing.T) {
	if got := (Inst{Op: ADR, Rd: X0, Sym: "g"}).Size(); got != 8 {
		t.Errorf("ADR size = %d, want 8", got)
	}
	if got := (Inst{Op: BL, Sym: "f"}).Size(); got != 4 {
		t.Errorf("BL size = %d, want 4", got)
	}
}

func TestDefsUses(t *testing.T) {
	cases := []struct {
		in        Inst
		defs, use []Reg
	}{
		{MoveRR(X0, X20), []Reg{X0}, []Reg{X20}},
		{Inst{Op: BL, Sym: "f"}, []Reg{LR}, nil},
		{Inst{Op: RET}, nil, []Reg{LR}},
		{Inst{Op: STRui, Rd: X1, Rn: X2, Imm: 8}, nil, []Reg{X1, X2}},
		{Inst{Op: LDPpost, Rd: X19, Rd2: X20, Rn: SP, Imm: 32}, []Reg{X19, X20, SP}, []Reg{SP}},
		{Inst{Op: STPpre, Rd: X19, Rd2: X20, Rn: SP, Imm: -32}, []Reg{SP}, []Reg{X19, X20, SP}},
		{Inst{Op: MSUB, Rd: X0, Rn: X1, Rm: X2, Rd2: X3}, []Reg{X0}, []Reg{X1, X2, X3}},
		{Inst{Op: CBNZ, Rn: X5, Sym: "l"}, nil, []Reg{X5}},
	}
	for _, c := range cases {
		if got, want := c.in.DefMask(), regMask(c.defs); got != want {
			t.Errorf("%v DefMask = %#x, want %#x (%v)", c.in, got, want, c.defs)
		}
		if got, want := c.in.UseMask(), regMask(c.use); got != want {
			t.Errorf("%v UseMask = %#x, want %#x (%v)", c.in, got, want, c.use)
		}
	}
}

// regMask is the def/use mask of regs.
func regMask(regs []Reg) uint64 {
	var m uint64
	for _, r := range regs {
		m |= 1 << r
	}
	return m
}

func TestXZRNeverTracked(t *testing.T) {
	in := Inst{Op: ORRrs, Rd: X0, Rn: XZR, Rm: XZR}
	if uses := in.UseMask(); uses != 0 {
		t.Errorf("XZR appears in uses: %#x", uses)
	}
}

func TestSPPredicates(t *testing.T) {
	frame := Inst{Op: STPpre, Rd: X19, Rd2: X20, Rn: SP, Imm: -32}
	if !frame.ModifiesSP() || !frame.ReadsSP() {
		t.Error("STPpre on sp must modify and read SP")
	}
	spill := Inst{Op: STRui, Rd: X8, Rn: SP, Imm: 0}
	if spill.ModifiesSP() {
		t.Error("SP-relative store must not be classified as modifying SP")
	}
	if !spill.ReadsSP() {
		t.Error("SP-relative store must read SP")
	}
	plain := MoveRR(X0, X1)
	if plain.ModifiesSP() || plain.ReadsSP() {
		t.Error("plain move must not touch SP")
	}
	spAdj := Inst{Op: SUBri, Rd: SP, Rn: SP, Imm: 16}
	if !spAdj.ModifiesSP() {
		t.Error("SUB sp, sp, #16 must modify SP")
	}
}

func TestTerminatorsAndCalls(t *testing.T) {
	terms := []Op{B, Bcc, CBZ, CBNZ, RET, BRK}
	for _, op := range terms {
		if !(Inst{Op: op}).IsTerminator() {
			t.Errorf("%s should be a terminator", OpName(op))
		}
	}
	if (Inst{Op: BL}).IsTerminator() {
		t.Error("BL must not be a terminator (it links)")
	}
	if !(Inst{Op: BL}).IsCall() || !(Inst{Op: BLR}).IsCall() {
		t.Error("BL/BLR must be calls")
	}
}

func TestUsesLR(t *testing.T) {
	if (Inst{Op: BL, Sym: "f"}).UsesLR() {
		t.Error("BL's implicit LR def must not count as explicit LR use")
	}
	if (Inst{Op: RET}).UsesLR() {
		t.Error("RET's implicit LR read must not count as explicit LR use")
	}
	if !(Inst{Op: ORRrs, Rd: X0, Rn: XZR, Rm: LR}).UsesLR() {
		t.Error("move from LR must count as explicit LR use")
	}
	if !(Inst{Op: ORRrs, Rd: LR, Rn: XZR, Rm: X0}).UsesLR() {
		t.Error("move into LR must count as explicit LR use")
	}
}
