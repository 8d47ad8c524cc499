package codegen

import (
	"outliner/internal/isa"
	"outliner/internal/llir"
	"outliner/internal/mir"
)

// scratch registers for spill reloads (never allocated).
var scratchRegs = [3]isa.Reg{isa.X8, isa.X17, isa.X16}

// frame is a function's stack frame (16-byte aligned):
//
//	[sp+0]                fp, lr pair
//	[sp+16 ...]           callee-saved pairs
//	[sp+csEnd ...]        spill slots (8 bytes each)
type frame struct {
	needed bool
	usedCS []isa.Reg
	csEnd  int
	size   int
}

func (fr *frame) slotOff(slot int32) int64 { return int64(fr.csEnd + 8*int(slot)) }

func (fr *frame) prologue(out []isa.Inst) []isa.Inst {
	if !fr.needed {
		return out
	}
	out = append(out, isa.Inst{
		Op: isa.STPpre, Rd: isa.FP, Rd2: isa.LR, Rn: isa.SP, Imm: -int64(fr.size),
	})
	for i := 0; i < len(fr.usedCS); i += 2 {
		off := int64(16 + 8*i)
		if i+1 < len(fr.usedCS) {
			out = append(out, isa.Inst{
				Op: isa.STPui, Rd: fr.usedCS[i], Rd2: fr.usedCS[i+1], Rn: isa.SP, Imm: off,
			})
		} else {
			out = append(out, isa.Inst{
				Op: isa.STRui, Rd: fr.usedCS[i], Rn: isa.SP, Imm: off,
			})
		}
	}
	return append(out, isa.Inst{Op: isa.ADDri, Rd: isa.FP, Rn: isa.SP, Imm: 0})
}

func (fr *frame) epilogue(out []isa.Inst) []isa.Inst {
	if !fr.needed {
		return out
	}
	for i := ((len(fr.usedCS) - 1) / 2) * 2; i >= 0 && len(fr.usedCS) > 0; i -= 2 {
		off := int64(16 + 8*i)
		if i+1 < len(fr.usedCS) {
			out = append(out, isa.Inst{
				Op: isa.LDPui, Rd: fr.usedCS[i], Rd2: fr.usedCS[i+1], Rn: isa.SP, Imm: off,
			})
		} else {
			out = append(out, isa.Inst{
				Op: isa.LDRui, Rd: fr.usedCS[i], Rn: isa.SP, Imm: off,
			})
		}
	}
	return append(out, isa.Inst{
		Op: isa.LDPpost, Rd: isa.FP, Rd2: isa.LR, Rn: isa.SP, Imm: int64(fr.size),
	})
}

func hasVreg(list []vreg, v vreg) bool {
	for _, u := range list {
		if u == v {
			return true
		}
	}
	return false
}

// emit produces the final machine function: virtual registers are replaced
// by their assignments, spill code is inserted around uses/defs, the frame
// (prologue/epilogue) is materialized, commutative operations take their
// canonical operand order, and branches to the immediately following block
// are elided. The code is assembled flat in the scratch and then copied into
// one exactly-sized slab the function's blocks window into.
func (sc *scratch) emit(f *llir.Func) *mir.Function {
	alloc := &sc.alloc
	csPairs := (len(alloc.usedCS) + 1) / 2
	fr := frame{
		needed: alloc.hasCalls || alloc.numSpills > 0 || len(alloc.usedCS) > 0,
		usedCS: alloc.usedCS,
		csEnd:  16 + 16*csPairs,
	}
	fr.size = fr.csEnd + 16*((alloc.numSpills*8+15)/16)

	nb := len(sc.vblocks)
	out := sc.out[:0]
	outStart := zeroed(sc.outStart, nb)
	outEnd := zeroed(sc.outEnd, nb)
	for bi, vb := range sc.vblocks {
		outStart[bi] = int32(len(out))
		if bi == 0 {
			out = fr.prologue(out)
		}
		for p := vb.start; p < vb.end; p++ {
			vi := &sc.vinsts[p]
			if vi.op == isa.RET {
				out = fr.epilogue(out)
				out = append(out, isa.Inst{Op: isa.RET})
				continue
			}
			// Map operands: reload spilled uses into scratch registers,
			// write spilled defs through a scratch register.
			scratchNext := 0
			regFor := func(v vreg, isUse bool) isa.Reg {
				if v == vnone {
					return isa.Reg(0)
				}
				if v.isPhys() {
					return v.physReg()
				}
				if r := alloc.regOf[v]; r != isa.NoReg {
					return r
				}
				r := scratchRegs[scratchNext]
				scratchNext++
				// A def-only value with no interval use has no slot either:
				// it just lands in the scratch register.
				if slot := alloc.spillSlot[v]; slot >= 0 && isUse {
					out = append(out, isa.Inst{
						Op: isa.LDRui, Rd: r, Rn: isa.SP, Imm: fr.slotOff(slot),
					})
				}
				return r
			}

			in := isa.Inst{Op: vi.op, Imm: vi.imm, Sym: vi.sym, Cond: vi.cond}
			useArr, n := vi.uses()
			uses := useArr[:n]
			def := vi.def()
			// Resolve use operands first (loads), then the def.
			in.Rn = regFor(vi.rn, hasVreg(uses, vi.rn))
			in.Rm = regFor(vi.rm, hasVreg(uses, vi.rm))
			in.Rd2 = regFor(vi.rd2, hasVreg(uses, vi.rd2))
			// rd can be a use (STRui) or a def.
			if vi.rd != vnone {
				in.Rd = regFor(vi.rd, hasVreg(uses, vi.rd) && vi.rd != def)
			}
			canonicalizeCommutative(&in)
			out = append(out, in)
			// Spill the def if needed.
			if def > 0 {
				if slot := alloc.spillSlot[def]; slot >= 0 {
					out = append(out, isa.Inst{
						Op: isa.STRui, Rd: in.Rd, Rn: isa.SP, Imm: fr.slotOff(slot),
					})
				}
			}
		}
		outEnd[bi] = int32(len(out))
	}
	sc.out, sc.outStart, sc.outEnd = out, outStart, outEnd

	// Elide a block-final "B next" when next is the physically following
	// block.
	total := 0
	for bi := range sc.vblocks {
		if s, e := outStart[bi], outEnd[bi]; bi+1 < nb && e > s {
			if last := &out[e-1]; last.Op == isa.B && last.Sym == sc.vblocks[bi+1].label {
				outEnd[bi]--
			}
		}
		total += int(outEnd[bi] - outStart[bi])
	}

	mf := &mir.Function{Name: f.Name, Module: f.Module, Blocks: make([]*mir.Block, nb)}
	blocks := make([]mir.Block, nb)
	slab := make([]isa.Inst, total)
	for bi, vb := range sc.vblocks {
		n := copy(slab, out[outStart[bi]:outEnd[bi]])
		blocks[bi] = mir.Block{Label: vb.label, Insts: slab[:n:n]}
		slab = slab[n:]
		mf.Blocks[bi] = &blocks[bi]
	}
	return mf
}

// canonicalizeCommutative puts a commutative ALU operation's operands in
// canonical order, lower-numbered register first, so sequences that differ
// only in that order are textually equal and the outliner's repeat finder
// matches them (the paper's §VIII future-work direction 1, semantic
// equivalence of machine sequences). The ORR-based register move keeps its
// shape: the zero register belongs in the Rn slot.
func canonicalizeCommutative(in *isa.Inst) {
	switch in.Op {
	case isa.ORRrs:
		if in.Rn == isa.XZR || in.Rm == isa.XZR {
			if in.Rn != isa.XZR { // a move written backwards
				in.Rn, in.Rm = in.Rm, in.Rn
			}
			return
		}
	case isa.ADDrs, isa.ANDrs, isa.EORrs, isa.MUL:
	default:
		return
	}
	if in.Rn > in.Rm {
		in.Rn, in.Rm = in.Rm, in.Rn
	}
}
