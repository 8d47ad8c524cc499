package outline

import (
	"outliner/internal/isa"
	"outliner/internal/mir"
)

// This file implements direction 1 of the paper's "future work" (§VIII):
// semantic equivalence of machine-code sequences, approximated by
// canonicalizing commutative operations so that trivially-equivalent
// sequences become textually equal and therefore outlinable together.
// Direction 3, layout optimization on the outlined code, is the layout
// package's Outlined policy. (Direction 2, interactions with instruction
// scheduling and register assignment, is exercised indirectly: the register
// allocator's choices are what create the Listing 1-vs-2 pattern split in
// the first place.)

// CanonicalizeCommutative rewrites commutative ALU operations into a
// canonical operand order (lower-numbered register first). Sequences that
// differ only in the order of commutative operands then map to the same
// instruction ids in the outliner's repeat finder. Returns how many
// instructions were rewritten.
func CanonicalizeCommutative(prog *mir.Program) int {
	n := 0
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Insts {
				in := &b.Insts[i]
				switch in.Op {
				case isa.ADDrs, isa.ANDrs, isa.EORrs, isa.MUL, isa.ORRrs:
					// The ORR-based register move (Rn=XZR) must keep its
					// shape: it is the most common pattern and the zero
					// register belongs in the Rn slot.
					if in.Op == isa.ORRrs && (in.Rn == isa.XZR || in.Rm == isa.XZR) {
						if in.Rn != isa.XZR { // move written backwards
							in.Rn, in.Rm = in.Rm, in.Rn
							n++
						}
						continue
					}
					if in.Rn > in.Rm {
						in.Rn, in.Rm = in.Rm, in.Rn
						n++
					}
				}
			}
		}
	}
	return n
}
