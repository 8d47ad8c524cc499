package isa

import "strconv"

// Op is an instruction opcode. The mnemonic spellings follow LLVM's MIR
// conventions for AArch64 (ORRXrs, STPXpre, ...) so that dumps resemble the
// listings in the paper.
type Op uint8

// Opcodes.
const (
	BAD Op = iota

	// Data processing.
	MOVZ  // MOVZ  Rd, #imm          Rd = imm (pseudo: full 64-bit immediate)
	ORRrs // ORRXrs Rd, Rn, Rm       Rd = Rn | Rm (Rn=XZR encodes a register move)
	ANDrs // ANDXrs Rd, Rn, Rm       Rd = Rn & Rm
	EORrs // EORXrs Rd, Rn, Rm       Rd = Rn ^ Rm
	ADDrs // ADDXrs Rd, Rn, Rm       Rd = Rn + Rm
	ADDri // ADDXri Rd, Rn, #imm     Rd = Rn + imm
	SUBrs // SUBXrs Rd, Rn, Rm       Rd = Rn - Rm
	SUBri // SUBXri Rd, Rn, #imm     Rd = Rn - imm
	MUL   // MADDXrrr Rd, Rn, Rm     Rd = Rn * Rm (xzr accumulator)
	SDIV  // SDIVXr Rd, Rn, Rm       Rd = Rn / Rm (signed, trap on /0)
	MSUB  // MSUBXrrr Rd, Rn, Rm, Ra Rd = Ra - Rn*Rm (used for remainder)
	LSLri // LSLXri Rd, Rn, #imm     Rd = Rn << imm
	LSRri // LSRXri Rd, Rn, #imm     Rd = Rn >> imm (logical)
	ASRri // ASRXri Rd, Rn, #imm     Rd = Rn >> imm (arithmetic)

	// Flag setting and conditional materialization.
	CMPrs // SUBSXrs xzr, Rn, Rm     set NZCV from Rn - Rm
	CMPri // SUBSXri xzr, Rn, #imm   set NZCV from Rn - imm
	CSET  // CSETXr Rd, cond         Rd = cond ? 1 : 0

	// Memory.
	LDRui   // LDRXui  Rd, [Rn, #imm]      load 8 bytes
	STRui   // STRXui  Rd, [Rn, #imm]      store 8 bytes
	LDPui   // LDPXi   Rd, Rd2, [Rn, #imm] load pair
	STPui   // STPXi   Rd, Rd2, [Rn, #imm] store pair
	STPpre  // STPXpre Rd, Rd2, [SP, #-imm]! push pair, writes SP
	LDPpost // LDPXpost Rd, Rd2, [SP], #imm  pop pair, writes SP
	STRpre  // STRXpre Rd, [SP, #-imm]!     push one register, writes SP
	LDRpost // LDRXpost Rd, [SP], #imm      pop one register, writes SP

	// Address formation. Stands for an ADRP+ADDXri pair: 8 bytes.
	ADR // ADRP+ADD Rd, sym        Rd = &sym

	// Control flow.
	B    // B label                 unconditional branch (label or symbol)
	Bcc  // B.cond label            conditional branch on NZCV
	CBZ  // CBZX Rn, label          branch if Rn == 0
	CBNZ // CBNZX Rn, label         branch if Rn != 0
	BL   // BL sym                  call: LR = return address
	BLR  // BLR Rn                  indirect call through Rn
	RET  // RET                     return through LR
	BRK  // BRK #imm                trap

	NOP

	NumOps
)

// Cond is a condition code for Bcc/CSET.
type Cond uint8

// Condition codes (signed comparisons only; unsigned are not generated).
const (
	EQ Cond = iota
	NE
	LT
	LE
	GT
	GE
	CondNone Cond = 255
)

var condNames = [...]string{EQ: "eq", NE: "ne", LT: "lt", LE: "le", GT: "gt", GE: "ge"}

func (c Cond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return "al"
}

// Inst is one machine instruction. The operand slots are interpreted
// per-opcode (see the Op constants). Unused slots hold NoReg / 0 / "" so that
// structural equality of the struct coincides with semantic equality of the
// instruction, which is what the outliner's instruction mapper relies on.
//
// The byte-sized fields come first, packed into one word: machine functions
// hold their instructions by value in slabs (32 bytes each).
type Inst struct {
	Op   Op
	Rd   Reg    // destination (first of pair for LDP/STP)
	Rd2  Reg    // second of pair for LDP/STP
	Rn   Reg    // base register / first source
	Rm   Reg    // second source
	Cond Cond   // Bcc / CSET condition
	Imm  int64  // immediate
	Sym  string // branch label, call target, or global symbol
}

// Mnemonic spellings indexed by Op, for printing and parsing.
var opNames = [NumOps]string{
	BAD:     "BAD",
	MOVZ:    "MOVZXi",
	ORRrs:   "ORRXrs",
	ANDrs:   "ANDXrs",
	EORrs:   "EORXrs",
	ADDrs:   "ADDXrs",
	ADDri:   "ADDXri",
	SUBrs:   "SUBXrs",
	SUBri:   "SUBXri",
	MUL:     "MULXrr",
	SDIV:    "SDIVXr",
	MSUB:    "MSUBXrr",
	LSLri:   "LSLXri",
	LSRri:   "LSRXri",
	ASRri:   "ASRXri",
	CMPrs:   "CMPXrs",
	CMPri:   "CMPXri",
	CSET:    "CSETXr",
	LDRui:   "LDRXui",
	STRui:   "STRXui",
	LDPui:   "LDPXi",
	STPui:   "STPXi",
	STPpre:  "STPXpre",
	LDPpost: "LDPXpost",
	STRpre:  "STRXpre",
	LDRpost: "LDRXpost",
	ADR:     "ADRP",
	B:       "B",
	Bcc:     "Bcc",
	CBZ:     "CBZX",
	CBNZ:    "CBNZX",
	BL:      "BL",
	BLR:     "BLR",
	RET:     "RET",
	BRK:     "BRK",
	NOP:     "NOP",
}

// OpName returns the mnemonic for op.
func OpName(op Op) string {
	if op < NumOps {
		return opNames[op]
	}
	return "BAD"
}

// OpFromName returns the opcode with the given mnemonic.
func OpFromName(name string) (Op, bool) {
	op, ok := opByName[name]
	return op, ok
}

var opByName = func() map[string]Op {
	m := make(map[string]Op, NumOps)
	for op := Op(0); op < NumOps; op++ {
		m[opNames[op]] = op
	}
	return m
}()

// Size returns the encoded size of the instruction in bytes. AArch64 is
// fixed-width (4 bytes); the ADR pseudo stands for an ADRP+ADD pair.
func (in Inst) Size() int {
	if in.Op == ADR {
		return 8
	}
	return 4
}

// AppendText appends the instruction in an LLVM-MIR-like syntax, e.g.
//
//	ORRXrs $x0, $xzr, $x20
//	BL @swift_release
//	STPXpre $x26, $x25, $sp, #-64
//
// It is the one renderer of machine code: String, the mir text format and the
// image listing are all built on it. Operands print whatever they hold — an
// out-of-range opcode is "BAD", an out-of-range register "badreg(n)" — because
// the paths that report a malformed instruction print it.
func (in Inst) AppendText(dst []byte) []byte {
	dst = append(dst, OpName(in.Op)...)
	const first, next = " ", ", "
	switch in.Op {
	case MOVZ:
		dst = appendReg(dst, first, in.Rd)
		dst = appendImm(dst, next, in.Imm)
	case ORRrs, ANDrs, EORrs, ADDrs, SUBrs, MUL, SDIV, MSUB:
		dst = appendReg(dst, first, in.Rd)
		dst = appendReg(dst, next, in.Rn)
		dst = appendReg(dst, next, in.Rm)
		if in.Op == MSUB {
			dst = appendReg(dst, next, in.Rd2)
		}
	case ADDri, SUBri, LSLri, LSRri, ASRri, LDRui, STRui, STRpre, LDRpost:
		dst = appendReg(dst, first, in.Rd)
		dst = appendReg(dst, next, in.Rn)
		dst = appendImm(dst, next, in.Imm)
	case CMPrs:
		dst = appendReg(dst, first, in.Rn)
		dst = appendReg(dst, next, in.Rm)
	case CMPri:
		dst = appendReg(dst, first, in.Rn)
		dst = appendImm(dst, next, in.Imm)
	case CSET:
		dst = appendReg(dst, first, in.Rd)
		dst = append(dst, next...)
		dst = append(dst, in.Cond.String()...)
	case LDPui, STPui, STPpre, LDPpost:
		dst = appendReg(dst, first, in.Rd)
		dst = appendReg(dst, next, in.Rd2)
		dst = appendReg(dst, next, in.Rn)
		dst = appendImm(dst, next, in.Imm)
	case ADR:
		dst = appendReg(dst, first, in.Rd)
		dst = appendSym(dst, next, in.Sym)
	case B, BL:
		dst = appendSym(dst, first, in.Sym)
	case Bcc:
		dst = append(dst, '.')
		dst = append(dst, in.Cond.String()...)
		dst = appendSym(dst, first, in.Sym)
	case CBZ, CBNZ:
		dst = appendReg(dst, first, in.Rn)
		dst = appendSym(dst, next, in.Sym)
	case BLR:
		dst = appendReg(dst, first, in.Rn)
	case BRK:
		dst = appendImm(dst, first, in.Imm)
	}
	return dst
}

func appendReg(dst []byte, sep string, r Reg) []byte {
	dst = append(dst, sep...)
	dst = append(dst, '$')
	return r.appendName(dst)
}

func appendImm(dst []byte, sep string, v int64) []byte {
	dst = append(dst, sep...)
	dst = append(dst, '#')
	return strconv.AppendInt(dst, v, 10)
}

func appendSym(dst []byte, sep, sym string) []byte {
	dst = append(dst, sep...)
	dst = append(dst, '@')
	return append(dst, sym...)
}

// String renders the instruction as AppendText does.
func (in Inst) String() string {
	var buf [64]byte
	return string(in.AppendText(buf[:0]))
}

// MoveRR builds the canonical AArch64 register move "ORRXrs Rd, xzr, Rm".
// These moves, materializing calling conventions before calls, are the most
// frequently repeated machine pattern the paper observes (Listings 1-6).
func MoveRR(rd, rm Reg) Inst { return Inst{Op: ORRrs, Rd: rd, Rn: XZR, Rm: rm} }
