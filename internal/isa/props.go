package isa

// regBit is r's bit in a def/use mask. NoReg and XZR have none: the zero
// register reads as zero and discards writes, so it is never tracked.
func regBit(r Reg) uint64 {
	if r == NoReg || r == XZR {
		return 0
	}
	return 1 << r
}

// DefMask returns the registers written by in as a bitset (bit r set for
// register r), without allocating. The NZCV flags are not in it: only the
// compare instructions write them. A call's mask is LR, which its encoding
// writes; the rest of the caller-saved set it clobbers is the calling
// convention's, not the instruction's, and is not reported here.
func (in Inst) DefMask() uint64 {
	switch in.Op {
	case MOVZ, ORRrs, ANDrs, EORrs, ADDrs, ADDri, SUBrs, SUBri,
		MUL, SDIV, MSUB, LSLri, LSRri, ASRri, CSET, LDRui, ADR:
		return regBit(in.Rd)
	case LDPui:
		return regBit(in.Rd) | regBit(in.Rd2)
	case LDPpost:
		return regBit(in.Rd) | regBit(in.Rd2) | regBit(in.Rn) // writeback
	case LDRpost:
		return regBit(in.Rd) | regBit(in.Rn) // writeback
	case STPpre, STRpre:
		return regBit(in.Rn) // writeback
	case BL, BLR:
		return regBit(LR)
	}
	return 0
}

// UseMask returns the registers read by in as a bitset, without allocating.
func (in Inst) UseMask() uint64 {
	switch in.Op {
	case ORRrs, ANDrs, EORrs, ADDrs, SUBrs, MUL, SDIV, CMPrs:
		return regBit(in.Rn) | regBit(in.Rm)
	case MSUB:
		// Rd = Ra - Rn*Rm with Ra in Rd pre-state is not modeled; our MSUB
		// reads Rn, Rm and the accumulator carried in Rd2.
		return regBit(in.Rn) | regBit(in.Rm) | regBit(in.Rd2)
	case ADDri, SUBri, LSLri, LSRri, ASRri, CMPri, LDRui:
		return regBit(in.Rn)
	case STRui, STRpre:
		return regBit(in.Rd) | regBit(in.Rn)
	case STPui, STPpre:
		return regBit(in.Rd) | regBit(in.Rd2) | regBit(in.Rn)
	case LDPui, LDPpost, LDRpost:
		return regBit(in.Rn)
	case CBZ, CBNZ, BLR:
		return regBit(in.Rn)
	case RET:
		return regBit(LR)
	}
	return 0
}

// IsTerminator reports whether in ends a basic block.
func (in Inst) IsTerminator() bool {
	switch in.Op {
	case B, Bcc, CBZ, CBNZ, RET, BRK:
		return true
	}
	return false
}

// IsCall reports whether in transfers control with a link (BL/BLR).
func (in Inst) IsCall() bool { return in.Op == BL || in.Op == BLR }

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
// outside of the implicit call/return semantics.
func (in Inst) UsesLR() bool {
	lr := regBit(LR)
	if in.UseMask()&lr != 0 {
		return in.Op != RET // RET's implicit LR read is handled by strategy
	}
	return in.DefMask()&lr != 0 && !in.IsCall()
}
