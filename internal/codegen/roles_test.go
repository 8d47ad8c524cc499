package codegen

import (
	"slices"
	"testing"

	"outliner/internal/isa"
)

// TestOperandRolesGolden pins, for every opcode (and one value past
// isa.NumOps), the register def() reports and the registers uses() reports
// in order, over a vinst whose rd, rd2, rn and rm are vregs 1, 2, 3 and 4, as
// the allocator's per-opcode switches reported them before it read the
// opcode table. The pair and pre/post-indexed forms report none: frame
// lowering emits them after allocation.
func TestOperandRolesGolden(t *testing.T) {
	golden := []struct {
		op   isa.Op
		def  vreg
		uses []vreg
	}{
		{isa.BAD, 0, nil},
		{isa.MOVZ, 1, nil},
		{isa.ORRrs, 1, []vreg{3, 4}},
		{isa.ANDrs, 1, []vreg{3, 4}},
		{isa.EORrs, 1, []vreg{3, 4}},
		{isa.ADDrs, 1, []vreg{3, 4}},
		{isa.ADDri, 1, []vreg{3}},
		{isa.SUBrs, 1, []vreg{3, 4}},
		{isa.SUBri, 1, []vreg{3}},
		{isa.MUL, 1, []vreg{3, 4}},
		{isa.SDIV, 1, []vreg{3, 4}},
		{isa.MSUB, 1, []vreg{3, 4, 2}},
		{isa.LSLri, 1, []vreg{3}},
		{isa.LSRri, 1, []vreg{3}},
		{isa.ASRri, 1, []vreg{3}},
		{isa.CMPrs, 0, []vreg{3, 4}},
		{isa.CMPri, 0, []vreg{3}},
		{isa.CSET, 1, nil},
		{isa.LDRui, 1, []vreg{3}},
		{isa.STRui, 0, []vreg{1, 3}},
		{isa.LDPui, 0, nil},
		{isa.STPui, 0, nil},
		{isa.STPpre, 0, nil},
		{isa.LDPpost, 0, nil},
		{isa.STRpre, 0, nil},
		{isa.LDRpost, 0, nil},
		{isa.ADR, 1, nil},
		{isa.B, 0, nil},
		{isa.Bcc, 0, nil},
		{isa.CBZ, 0, []vreg{3}},
		{isa.CBNZ, 0, []vreg{3}},
		{isa.BL, 0, nil},
		{isa.BLR, 0, []vreg{3}},
		{isa.RET, 0, nil},
		{isa.BRK, 0, nil},
		{isa.NOP, 0, nil},
		{isa.NumOps, 0, nil},
	}
	if len(golden) != int(isa.NumOps)+1 {
		t.Fatalf("%d rows, want one per opcode and one past NumOps (%d)", len(golden), isa.NumOps+1)
	}
	for i, g := range golden {
		if g.op != isa.Op(i) {
			t.Fatalf("row %d is op %d", i, g.op)
		}
		in := vinst{op: g.op, rd: 1, rd2: 2, rn: 3, rm: 4}
		u, n := in.uses()
		if d := in.def(); d != g.def || !slices.Equal(u[:n], g.uses) {
			t.Errorf("%s: def %d uses %v, want %d %v", isa.OpName(g.op), d, u[:n], g.def, g.uses)
		}
	}
}
