package isa

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// referenceText is the fmt-based renderer AppendText replaced, kept as the
// reference AppendText is compared against. It differs from what it was in
// one place: the mnemonic goes through OpName, because indexing the mnemonic
// table with an out-of-range opcode panicked.
func referenceText(in Inst) string {
	var b strings.Builder
	b.WriteString(OpName(in.Op))
	sep := " "
	emitReg := func(r Reg) {
		b.WriteString(sep)
		b.WriteByte('$')
		b.WriteString(referenceReg(r))
		sep = ", "
	}
	emitImm := func(v int64) {
		fmt.Fprintf(&b, "%s#%d", sep, v)
		sep = ", "
	}
	emitSym := func(s string) {
		fmt.Fprintf(&b, "%s@%s", sep, s)
		sep = ", "
	}
	switch in.Op {
	case MOVZ:
		emitReg(in.Rd)
		emitImm(in.Imm)
	case ORRrs, ANDrs, EORrs, ADDrs, SUBrs, MUL, SDIV, MSUB:
		emitReg(in.Rd)
		emitReg(in.Rn)
		emitReg(in.Rm)
		if in.Op == MSUB {
			emitReg(in.Rd2)
		}
	case ADDri, SUBri, LSLri, LSRri, ASRri:
		emitReg(in.Rd)
		emitReg(in.Rn)
		emitImm(in.Imm)
	case CMPrs:
		emitReg(in.Rn)
		emitReg(in.Rm)
	case CMPri:
		emitReg(in.Rn)
		emitImm(in.Imm)
	case CSET:
		emitReg(in.Rd)
		b.WriteString(sep)
		b.WriteString(referenceCond(in.Cond))
	case LDRui, STRui:
		emitReg(in.Rd)
		emitReg(in.Rn)
		emitImm(in.Imm)
	case LDPui, STPui, STPpre, LDPpost:
		emitReg(in.Rd)
		emitReg(in.Rd2)
		emitReg(in.Rn)
		emitImm(in.Imm)
	case STRpre, LDRpost:
		emitReg(in.Rd)
		emitReg(in.Rn)
		emitImm(in.Imm)
	case ADR:
		emitReg(in.Rd)
		emitSym(in.Sym)
	case B, BL:
		emitSym(in.Sym)
	case Bcc:
		b.WriteString(".")
		b.WriteString(referenceCond(in.Cond))
		emitSym(in.Sym)
	case CBZ, CBNZ:
		emitReg(in.Rn)
		emitSym(in.Sym)
	case BLR:
		emitReg(in.Rn)
	case BRK:
		emitImm(in.Imm)
	case RET, NOP:
	}
	return b.String()
}

func referenceReg(r Reg) string {
	switch r {
	case FP:
		return "x29"
	case LR:
		return "x30"
	case SP:
		return "sp"
	case XZR:
		return "xzr"
	case NoReg:
		return "noreg"
	default:
		if r < FP {
			return fmt.Sprintf("x%d", int(r))
		}
		return fmt.Sprintf("badreg(%d)", int(r))
	}
}

func referenceCond(c Cond) string {
	switch c {
	case EQ:
		return "eq"
	case NE:
		return "ne"
	case LT:
		return "lt"
	case LE:
		return "le"
	case GT:
		return "gt"
	case GE:
		return "ge"
	default:
		return "al"
	}
}

var (
	textRegs  = []Reg{X0, X9, X28, FP, LR, SP, XZR, NoReg, NumRegs, 200}
	textImms  = []int64{0, 1, -1, math.MinInt64, math.MaxInt64}
	textConds = []Cond{EQ, NE, LT, LE, GT, GE, 6, CondNone}
)

// TestInstTextMatchesReference compares AppendText with the renderer it
// replaced over every opcode (and two past NumOps), with every operand slot
// taking every register of textRegs, for extreme immediates and every
// condition code.
func TestInstTextMatchesReference(t *testing.T) {
	checked := 0
	for op := Op(0); op <= NumOps+1; op++ {
		for i := range textRegs {
			reg := func(slot int) Reg { return textRegs[(i+slot)%len(textRegs)] }
			for _, imm := range textImms {
				for _, cond := range textConds {
					in := Inst{Op: op, Rd: reg(0), Rd2: reg(1), Rn: reg(2), Rm: reg(3), Imm: imm, Sym: "L.sym$1", Cond: cond}
					want := referenceText(in)
					if got := string(in.AppendText([]byte("  "))); got != "  "+want {
						t.Fatalf("AppendText(%#v) onto two spaces = %q, reference %q", in, got, want)
					}
					if got := in.String(); got != want {
						t.Fatalf("String(%#v) = %q, reference %q", in, got, want)
					}
					checked++
				}
			}
		}
	}
	if want := (int(NumOps) + 2) * len(textRegs) * len(textImms) * len(textConds); checked != want {
		t.Errorf("checked %d instructions, want %d", checked, want)
	}
}

// TestMalformedInstPrints: the fault report of the interpreter and the
// verifier's violation text print the instruction they reject, so an opcode or
// a register outside the ISA must render as text, not panic.
func TestMalformedInstPrints(t *testing.T) {
	for _, c := range []struct {
		in   Inst
		want string
	}{
		{Inst{Op: NumOps, Rd: X0}, "BAD"},
		{Inst{Op: 255, Sym: "f"}, "BAD"},
		{Inst{Op: ORRrs, Rd: 77, Rn: XZR, Rm: NumRegs}, "ORRXrs $badreg(77), $xzr, $badreg(33)"},
		{Inst{Op: BLR, Rn: NoReg}, "BLR $noreg"},
		{Inst{Op: CSET, Rd: X1, Cond: 9}, "CSETXr $x1, al"},
	} {
		if got := c.in.String(); got != c.want {
			t.Errorf("%#v prints %q, want %q", c.in, got, c.want)
		}
	}
	if got, want := Reg(77).String(), "badreg(77)"; got != want {
		t.Errorf("Reg(77).String() = %q, want %q", got, want)
	}
}

func FuzzInstText(f *testing.F) {
	// One seed per opcode, cycling through the registers, immediates and
	// conditions of the exhaustive test.
	for op := Op(0); op <= NumOps; op++ {
		reg := func(slot int) uint8 { return uint8(textRegs[(int(op)+slot)%len(textRegs)]) }
		imm := textImms[int(op)%len(textImms)]
		cond := textConds[int(op)%len(textConds)]
		f.Add(uint8(op), reg(0), reg(1), reg(2), reg(3), imm, "swift_release", uint8(cond))
	}
	f.Add(uint8(Bcc), uint8(NoReg), uint8(200), uint8(FP), uint8(LR), int64(0), "", uint8(CondNone))
	f.Fuzz(func(t *testing.T, op, rd, rd2, rn, rm uint8, imm int64, sym string, cond uint8) {
		in := Inst{Op: Op(op), Rd: Reg(rd), Rd2: Reg(rd2), Rn: Reg(rn), Rm: Reg(rm), Imm: imm, Sym: sym, Cond: Cond(cond)}
		want := referenceText(in)
		if got := string(in.AppendText([]byte("x"))); got != "x"+want {
			t.Fatalf("AppendText(%#v) = %q, reference %q", in, got, "x"+want)
		}
		if got := in.String(); got != want {
			t.Fatalf("String(%#v) = %q, reference %q", in, got, want)
		}
	})
}
