package isa

import "math/bits"

// regBit is r's bit in a def/use mask. NoReg and XZR have none: the zero
// register reads as zero and discards writes, so it is never tracked.
func regBit(r Reg) uint64 {
	if r == NoReg || r == XZR {
		return 0
	}
	return 1 << r
}

// DefMask returns the registers written by in as a bitset (bit r set for
// register r), without allocating: the operands its opcode's row defines. The
// NZCV flags are not in it: only the compare instructions write them. A
// call's mask is LR, which its encoding writes; the rest of the caller-saved
// set it clobbers is the calling convention's, not the instruction's, and is
// not reported here.
func (in Inst) DefMask() uint64 { return mask(roles[in.Op].defs, in.Rd, in.Rd2, in.Rn, in.Rm) }

// UseMask returns the registers read by in as a bitset, without allocating.
func (in Inst) UseMask() uint64 { return mask(roles[in.Op].uses, in.Rd, in.Rd2, in.Rn, in.Rm) }

// mask ORs the registers of the slots in set (see roles). It takes the
// registers one by one, not the Inst: DefMask and UseMask run per
// instruction on every outlining round, and copying a whole Inst costs more
// than the rest of the call.
func mask(set uint8, rd, rd2, rn, rm Reg) uint64 {
	regs := [...]Reg{SlotRd: rd, SlotRd2: rd2, SlotRn: rn, SlotRm: rm, lrSlot: LR}
	var m uint64
	for ; set != 0; set &= set - 1 {
		m |= regBit(regs[bits.TrailingZeros8(set)])
	}
	return m
}

// IsTerminator reports whether in ends a basic block.
func (in Inst) IsTerminator() bool { return in.Op.Info().Term }

// IsCall reports whether in transfers control with a link (BL/BLR).
func (in Inst) IsCall() bool { return in.Op.IsCall() }

// ModifiesSP reports whether in writes the stack pointer. Such instructions
// (frame setup/destruction, SP adjustment) are never outlined: moving them
// into a function would corrupt the frame of their original context. The
// paper observes exactly these sequences (Listings 7 and 8) among the most
// repeated patterns, yet they remain outside the outliner's reach — our
// legality rules reproduce that.
func (in Inst) ModifiesSP() bool {
	switch in.Op {
	case STPpre, LDPpost, STRpre, LDRpost:
		return in.Rn == SP
	case ADDri, SUBri:
		return in.Rd == SP
	}
	return false
}

// ReadsSP reports whether in uses an SP-relative address or otherwise reads
// SP. Candidates containing such instructions can only be outlined with
// strategies that keep SP unchanged at the point the instruction executes
// (tail call, thunk, or no-LR-save); saving LR on the stack would skew every
// SP-relative offset within the candidate.
func (in Inst) ReadsSP() bool {
	switch in.Op {
	case LDRui, STRui, LDPui, STPui, STPpre, LDPpost, STRpre, LDRpost:
		return in.Rn == SP
	case ADDri, SUBri, ADDrs, SUBrs, ORRrs:
		return in.Rn == SP || in.Rm == SP
	}
	return false
}

// UsesLR reports whether in explicitly reads or writes the link register
// outside of the implicit call/return semantics: whether an operand slot
// holds it. (RET's implicit LR read is handled by strategy.)
func (in Inst) UsesLR() bool {
	r := roles[in.Op]
	explicit := (r.defs | r.uses) &^ (1 << lrSlot)
	return mask(explicit, in.Rd, in.Rd2, in.Rn, in.Rm)&regBit(LR) != 0
}
