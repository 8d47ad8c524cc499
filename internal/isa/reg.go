// Package isa models a fixed-width, AArch64-like instruction set
// architecture. It is the target of the code generator and the subject of the
// machine outliner: instructions carry enough semantic structure to be
// executed by the interpreter (internal/exec), compared for equality by the
// outliner (internal/outline), and costed in bytes for size accounting.
//
// The ISA deliberately mirrors the subset of AArch64 that the paper's
// analysis revolves around: ORR-based register moves that set up calling
// conventions, BL/RET control transfer through the link register, STP/LDP
// frame setup and destruction pairs, and simple ALU/memory operations. Every
// instruction is 4 bytes except the ADR pseudo (which stands for an
// ADRP+ADD pair, 8 bytes), matching the fixed-width property the paper
// relies on when counting size savings.
//
// Each opcode's mnemonic, operand slots in printed order, and register roles
// are one row of the opcode table (Op.Info). The printer (Inst.AppendText),
// the MIR parser, the def/use masks and the code generator's register
// allocator all read that row, so adding an opcode is one constant and one
// row here, plus its semantics in the interpreter (internal/exec), the
// verifier (internal/verify) and the timing model (internal/perf).
package isa

import (
	"fmt"
	"strconv"
)

// Reg names a machine register. X0..X28 are general purpose; FP, LR, SP and
// XZR have their usual AArch64 roles. NoReg marks an unused operand slot.
type Reg uint8

// General-purpose and special registers.
const (
	X0 Reg = iota
	X1
	X2
	X3
	X4
	X5
	X6
	X7
	X8
	X9
	X10
	X11
	X12
	X13
	X14
	X15
	X16
	X17
	X18
	X19
	X20
	X21
	X22
	X23
	X24
	X25
	X26
	X27
	X28
	FP  // x29, frame pointer
	LR  // x30, link register
	SP  // stack pointer
	XZR // zero register (reads as zero, writes discarded)
	NumRegs
	NoReg Reg = 255
)

// Calling convention (AAPCS64-like):
//
//	X0..X7   argument/result registers (caller saved)
//	X8..X17  scratch (caller saved; X16/X17 are the linker scratch regs)
//	X19..X28 callee saved
//	FP/LR    frame pointer and link register
const (
	NumArgRegs = 8
	// FirstCalleeSaved..LastCalleeSaved is the callee-saved allocation range.
	FirstCalleeSaved = X19
	LastCalleeSaved  = X28
	// FirstTemp..LastTemp is the caller-saved scratch allocation range.
	FirstTemp = X9
	LastTemp  = X15
)

// IsCalleeSaved reports whether r must be preserved across calls.
func (r Reg) IsCalleeSaved() bool {
	return (r >= FirstCalleeSaved && r <= LastCalleeSaved) || r == FP || r == LR
}

// ErrReg is the error-channel register of the throwing-call convention
// (Swift's swifterror lives in x21; we reuse the same register).
const ErrReg = X21

// IsAllocatable reports whether the register allocator may assign r.
// X8/X16/X17 are spill scratch, X18 is platform-reserved, and X21 carries
// the error channel.
func (r Reg) IsAllocatable() bool {
	return r <= X28 && r != X16 && r != X17 && r != X18 && r != X8 && r != ErrReg
}

var regNames = [NumRegs]string{
	"x0", "x1", "x2", "x3", "x4", "x5", "x6", "x7", "x8", "x9",
	"x10", "x11", "x12", "x13", "x14", "x15", "x16", "x17", "x18", "x19",
	"x20", "x21", "x22", "x23", "x24", "x25", "x26", "x27", "x28",
	FP: "x29", LR: "x30", SP: "sp", XZR: "xzr",
}

// appendName appends the register's name; a value that names no register
// prints as "badreg(n)".
func (r Reg) appendName(dst []byte) []byte {
	switch {
	case r < NumRegs:
		return append(dst, regNames[r]...)
	case r == NoReg:
		return append(dst, "noreg"...)
	}
	dst = append(dst, "badreg("...)
	dst = strconv.AppendUint(dst, uint64(r), 10)
	return append(dst, ')')
}

func (r Reg) String() string {
	if r < NumRegs {
		return regNames[r]
	}
	return string(r.appendName(nil))
}

// ArgReg returns the i-th integer argument register (i < NumArgRegs).
func ArgReg(i int) Reg {
	if i < 0 || i >= NumArgRegs {
		panic(fmt.Sprintf("isa: argument register index %d out of range", i))
	}
	return X0 + Reg(i)
}
