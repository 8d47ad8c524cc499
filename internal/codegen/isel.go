package codegen

import (
	"fmt"
	"math/bits"

	"outliner/internal/isa"
	"outliner/internal/llir"
)

// vreg is a register operand during selection: positive ids are virtual
// registers (llir value numbers), negative ids encode physical registers.
type vreg int32

const vnone vreg = 0

func phys(r isa.Reg) vreg       { return -vreg(r) - 1 }
func (v vreg) isPhys() bool     { return v < 0 }
func (v vreg) physReg() isa.Reg { return isa.Reg(-v - 1) }

// vinst is a machine instruction with (possibly) virtual register operands.
type vinst struct {
	op   isa.Op
	cond isa.Cond
	rd   vreg
	rd2  vreg
	rn   vreg
	rm   vreg
	imm  int64
	sym  string
}

// vblock is a pre-RA basic block: a label and a window into the lane's flat
// vinst buffer.
type vblock struct {
	label      string
	start, end int32
}

// useRef is one operand occurrence in a value's use list: the using
// instruction and the block holding it.
type useRef struct {
	in    *llir.Inst
	block int32
}

// selectInstructions lowers the (post-SSA) LLIR function into sc.vblocks /
// sc.vinsts.
func (sc *scratch) selectInstructions(f *llir.Func) error {
	if f.NumParams > isa.NumArgRegs {
		return fmt.Errorf("%d parameters exceed the %d argument registers",
			f.NumParams, isa.NumArgRegs)
	}
	sc.indexUses(f)
	sc.planFolding(f)

	sc.vinsts = sc.vinsts[:0]
	sc.vblocks = sc.vblocks[:0]
	for bi, b := range f.Blocks {
		start := int32(len(sc.vinsts))
		if bi == 0 {
			// Materialize incoming parameters from the argument registers.
			for i := 0; i < f.NumParams; i++ {
				sc.mov(vreg(f.Param(i)), phys(isa.ArgReg(i)))
			}
		}
		for i := range b.Insts {
			if err := sc.lower(f, &b.Insts[i]); err != nil {
				return err
			}
		}
		sc.vblocks = append(sc.vblocks, vblock{label: b.Label, start: start, end: int32(len(sc.vinsts))})
	}
	return nil
}

// appendUses appends the values in reads to dst, one entry per operand
// occurrence.
func appendUses(dst []llir.Value, in *llir.Inst) []llir.Value {
	add := func(v llir.Value) {
		if v != llir.None {
			dst = append(dst, v)
		}
	}
	switch in.Op {
	case llir.Const, llir.GlobalAddr, llir.Br, llir.Unreachable:
	case llir.Call:
		// Args only.
	case llir.CallInd:
		add(in.A)
	default:
		add(in.A)
		add(in.B)
	}
	if e := in.Ext; e != nil {
		for _, a := range e.Args {
			add(a)
		}
		for _, inc := range e.Incomings {
			add(inc.Val)
		}
	}
	return dst
}

// indexUses fills the by-value tables in two passes over the function: the
// defining instructions and per-value use counts first, then (from the
// counts' prefix sums) every value's use list, so that folding decisions cost
// O(uses) instead of a scan of the whole function per candidate.
func (sc *scratch) indexUses(f *llir.Func) {
	n := f.NumValues + 1
	defOf := zeroed(sc.defOf, n)
	sc.skipped = zeroed(sc.skipped, n)
	off := zeroed(sc.useOff, n+1) // off[v+1] counts v's uses, then becomes its list's end
	buf := sc.useBuf
	for _, b := range f.Blocks {
		for i := range b.Insts {
			in := &b.Insts[i]
			if in.Dst != llir.None {
				defOf[in.Dst] = in
			}
			if in.Op == llir.Call && in.ErrDst() != llir.None {
				defOf[in.ErrDst()] = in
			}
			buf = appendUses(buf[:0], in)
			for _, u := range buf {
				off[u+1]++
			}
		}
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	list := zeroed(sc.useList, int(off[n]))
	for bi, b := range f.Blocks {
		for i := range b.Insts {
			in := &b.Insts[i]
			buf = appendUses(buf[:0], in)
			for _, u := range buf {
				list[off[u]] = useRef{in: in, block: int32(bi)}
				off[u]++
			}
		}
	}
	// The fill advanced off[v] to the end of v's list: shift back down.
	copy(off[1:], off[:n])
	off[0] = 0
	sc.defOf, sc.useOff, sc.useList, sc.useBuf = defOf, off, list, buf
}

func (sc *scratch) usersOf(v llir.Value) []useRef {
	return sc.useList[sc.useOff[v]:sc.useOff[v+1]]
}

// planFolding decides which Const definitions vanish entirely into immediate
// operands, and which Cmp definitions fuse into their consuming conditional
// branch.
func (sc *scratch) planFolding(f *llir.Func) {
	for bi, b := range f.Blocks {
		for i := range b.Insts {
			in := &b.Insts[i]
			switch in.Op {
			case llir.Const:
				if len(sc.usersOf(in.Dst)) > 0 && sc.allUsesFoldable(in.Dst, in.Imm) {
					sc.skipped[in.Dst] = true
				}
			case llir.Cmp:
				// Fuse when the only use is a CondBr of the same block.
				if us := sc.usersOf(in.Dst); len(us) == 1 && us[0].block == int32(bi) && us[0].in.Op == llir.CondBr {
					sc.skipped[in.Dst] = true
				}
			}
		}
	}
}

// allUsesFoldable reports whether every use of a Const can take the
// immediate form.
func (sc *scratch) allUsesFoldable(v llir.Value, imm int64) bool {
	for _, u := range sc.usersOf(v) {
		if !useFoldable(u.in, v, imm) {
			return false
		}
	}
	return true
}

func useFoldable(user *llir.Inst, v llir.Value, imm int64) bool {
	switch user.Op {
	case llir.Bin:
		if user.B != v || user.A == v {
			return false
		}
		switch user.BinOp {
		case llir.Add, llir.Sub:
			return imm >= 0 && imm < 4096
		case llir.Mul:
			return imm > 0 && imm&(imm-1) == 0 // power of two -> shift
		}
		return false
	case llir.Cmp:
		return user.B == v && user.A != v && imm >= 0 && imm < 4096
	case llir.Ret:
		// The error channel is set with an immediate move.
		return user.B == v && user.A != v
	case llir.Call, llir.CallInd:
		// Arguments can be materialized directly into argument registers.
		return argOnly(user, v)
	case llir.CondBr:
		return false
	}
	return false
}

// argOnly reports whether v appears only in the argument list of the call.
func argOnly(call *llir.Inst, v llir.Value) bool {
	if call.A == v || call.B == v {
		return false
	}
	for _, a := range call.Args() {
		if a == v {
			return true
		}
	}
	return false
}

// foldedImm returns v's immediate when v is a Const that planFolding folded
// into its users.
func (sc *scratch) foldedImm(v llir.Value) (int64, bool) {
	if d := sc.defOf[v]; d != nil && d.Op == llir.Const && sc.skipped[v] {
		return d.Imm, true
	}
	return 0, false
}

func (sc *scratch) emitV(vi vinst) { sc.vinsts = append(sc.vinsts, vi) }

func (sc *scratch) mov(dst, src vreg) {
	sc.emitV(vinst{op: isa.ORRrs, rd: dst, rn: phys(isa.XZR), rm: src})
}

// emitArgs emits the argument moves of a call: constants can be moved as
// immediates.
func (sc *scratch) emitArgs(args []llir.Value) error {
	if len(args) > isa.NumArgRegs {
		return fmt.Errorf("call with %d arguments exceeds the %d argument registers",
			len(args), isa.NumArgRegs)
	}
	for i, a := range args {
		dst := phys(isa.ArgReg(i))
		if imm, ok := sc.foldedImm(a); ok {
			sc.emitV(vinst{op: isa.MOVZ, rd: dst, imm: imm})
		} else {
			sc.mov(dst, vreg(a))
		}
	}
	return nil
}

// lower translates one LLIR instruction, appending to sc.vinsts.
func (sc *scratch) lower(f *llir.Func, in *llir.Inst) error {
	switch in.Op {
	case llir.Const:
		if sc.skipped[in.Dst] {
			return nil
		}
		sc.emitV(vinst{op: isa.MOVZ, rd: vreg(in.Dst), imm: in.Imm})
	case llir.GlobalAddr:
		sc.emitV(vinst{op: isa.ADR, rd: vreg(in.Dst), sym: in.Sym})
	case llir.Bin:
		if imm, ok := sc.foldedImm(in.B); ok {
			switch in.BinOp {
			case llir.Add:
				sc.emitV(vinst{op: isa.ADDri, rd: vreg(in.Dst), rn: vreg(in.A), imm: imm})
				return nil
			case llir.Sub:
				sc.emitV(vinst{op: isa.SUBri, rd: vreg(in.Dst), rn: vreg(in.A), imm: imm})
				return nil
			case llir.Mul:
				sc.emitV(vinst{op: isa.LSLri, rd: vreg(in.Dst), rn: vreg(in.A), imm: int64(bits.TrailingZeros64(uint64(imm)))})
				return nil
			}
		}
		switch in.BinOp {
		case llir.Add:
			sc.emitV(vinst{op: isa.ADDrs, rd: vreg(in.Dst), rn: vreg(in.A), rm: vreg(in.B)})
		case llir.Sub:
			sc.emitV(vinst{op: isa.SUBrs, rd: vreg(in.Dst), rn: vreg(in.A), rm: vreg(in.B)})
		case llir.Mul:
			sc.emitV(vinst{op: isa.MUL, rd: vreg(in.Dst), rn: vreg(in.A), rm: vreg(in.B)})
		case llir.Div:
			sc.emitV(vinst{op: isa.SDIV, rd: vreg(in.Dst), rn: vreg(in.A), rm: vreg(in.B)})
		case llir.Rem:
			q := vreg(f.NewValue())
			sc.emitV(vinst{op: isa.SDIV, rd: q, rn: vreg(in.A), rm: vreg(in.B)})
			sc.emitV(vinst{op: isa.MSUB, rd: vreg(in.Dst), rn: q, rm: vreg(in.B), rd2: vreg(in.A)})
		}
	case llir.Cmp:
		if sc.skipped[in.Dst] {
			return nil // fused into the conditional branch
		}
		sc.emitCompare(in)
		sc.emitV(vinst{op: isa.CSET, rd: vreg(in.Dst), cond: lowerCond(in.Cond)})
	case llir.Not:
		sc.emitV(vinst{op: isa.CMPri, rn: vreg(in.A), imm: 0})
		sc.emitV(vinst{op: isa.CSET, rd: vreg(in.Dst), cond: isa.EQ})
	case llir.Neg:
		sc.emitV(vinst{op: isa.SUBrs, rd: vreg(in.Dst), rn: phys(isa.XZR), rm: vreg(in.A)})
	case llir.Load:
		sc.emitV(vinst{op: isa.LDRui, rd: vreg(in.Dst), rn: vreg(in.A), imm: in.Imm})
	case llir.Store:
		sc.emitV(vinst{op: isa.STRui, rd: vreg(in.B), rn: vreg(in.A), imm: in.Imm})
	case llir.Call:
		if err := sc.emitArgs(in.Args()); err != nil {
			return err
		}
		sc.emitV(vinst{op: isa.BL, sym: in.Sym})
		if in.Dst != llir.None {
			sc.mov(vreg(in.Dst), phys(isa.X0))
		}
		if in.Throws && in.ErrDst() != llir.None {
			sc.mov(vreg(in.ErrDst()), phys(isa.ErrReg))
		}
	case llir.CallInd:
		sc.mov(phys(isa.X16), vreg(in.A))
		if err := sc.emitArgs(in.Args()); err != nil {
			return err
		}
		sc.emitV(vinst{op: isa.BLR, rn: phys(isa.X16)})
		if in.Dst != llir.None {
			sc.mov(vreg(in.Dst), phys(isa.X0))
		}
	case llir.Ret:
		if in.A != llir.None {
			sc.mov(phys(isa.X0), vreg(in.A))
		}
		if f.Throws {
			if imm, ok := sc.foldedImm(in.B); ok {
				sc.emitV(vinst{op: isa.MOVZ, rd: phys(isa.ErrReg), imm: imm})
			} else if in.B != llir.None {
				sc.mov(phys(isa.ErrReg), vreg(in.B))
			}
		}
		sc.emitV(vinst{op: isa.RET})
	case llir.Br:
		sc.emitV(vinst{op: isa.B, sym: in.Sym})
	case llir.CondBr:
		if d := sc.defOf[in.A]; d != nil && d.Op == llir.Cmp && sc.skipped[in.A] {
			sc.emitCompare(d)
			sc.emitV(vinst{op: isa.Bcc, cond: lowerCond(d.Cond), sym: in.Sym})
		} else {
			sc.emitV(vinst{op: isa.CBNZ, rn: vreg(in.A), sym: in.Sym})
		}
		sc.emitV(vinst{op: isa.B, sym: in.Else()})
	case opCopy:
		sc.mov(vreg(in.Dst), vreg(in.A))
	case llir.Unreachable:
		sc.emitV(vinst{op: isa.BRK, imm: 1})
	case llir.Phi:
		return fmt.Errorf("phi survived out-of-SSA")
	default:
		return fmt.Errorf("unhandled LLIR op %d", in.Op)
	}
	return nil
}

func (sc *scratch) emitCompare(cmp *llir.Inst) {
	if imm, ok := sc.foldedImm(cmp.B); ok {
		sc.emitV(vinst{op: isa.CMPri, rn: vreg(cmp.A), imm: imm})
		return
	}
	sc.emitV(vinst{op: isa.CMPrs, rn: vreg(cmp.A), rm: vreg(cmp.B)})
}

func lowerCond(c llir.CondKind) isa.Cond {
	switch c {
	case llir.Eq:
		return isa.EQ
	case llir.Ne:
		return isa.NE
	case llir.Lt:
		return isa.LT
	case llir.Le:
		return isa.LE
	case llir.Gt:
		return isa.GT
	case llir.Ge:
		return isa.GE
	}
	return isa.EQ
}
