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
	MSUB  // MSUBXrrr Rd, Rn, Rm, Ra Rd = Ra - Rn*Rm (used for remainder; Ra is in Rd2)
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

// Slot names one operand field of Inst.
type Slot uint8

// Operand slots: the four registers, then the immediate (printed #imm), the
// symbol (@sym) and the condition code.
const (
	SlotRd Slot = iota
	SlotRd2
	SlotRn
	SlotRm
	SlotImm
	SlotSym
	SlotCond
)

// Role is what an instruction does with a register: reads it, writes it, or
// both (the base register of a pre/post-indexed access, written back).
type Role uint8

// Register roles.
const (
	Use Role = 1 << iota
	Def
	DefUse = Def | Use
)

// Operand is one operand of an opcode's row: the slot it prints and, for a
// register, its role.
type Operand struct {
	Slot Slot
	Role Role
}

// OpInfo is one opcode's row of the opcode table. The printer, the MIR
// parser, the def/use masks and the register allocator all read it, so an
// opcode's format and register roles are written down once.
type OpInfo struct {
	Name string // mnemonic
	// Operands lists the printed operands in order. A leading SlotCond is
	// a mnemonic suffix ("Bcc.ne"); elsewhere it prints as an operand.
	Operands []Operand
	LR       Role // implicit link-register role: BL and BLR define LR, RET reads it
	Term     bool // ends a basic block
	// Frame marks the pair and pre/post-indexed loads and stores. Only code
	// around an allocated body uses them (the prologue and epilogue, the
	// outliner's LR spill); instruction selection never emits one.
	Frame bool
}

// roles holds, per Op value, the register slots (bit s for slot s) and the
// implicit LR (bit lrSlot) that its row defines and uses, derived from
// opTable at start-up. DefMask, UseMask and IsCall run per instruction on
// every outlining round; sized to every Op value, roles needs no bounds check,
// and a value past the table has no roles, as BAD has none.
var roles [256]struct{ defs, uses uint8 }

// lrSlot stands for the implicit LR in roles.
const lrSlot = 7

func init() {
	for op := range opTable {
		r := &opTable[op]
		// The implicit LR counts as one more operand, in slot lrSlot.
		for _, o := range append(r.Operands[:len(r.Operands):len(r.Operands)], Operand{lrSlot, r.LR}) {
			if o.Role&Def != 0 {
				roles[op].defs |= 1 << o.Slot
			}
			if o.Role&Use != 0 {
				roles[op].uses |= 1 << o.Slot
			}
		}
	}
}

// Operand lists shared by several rows.
var (
	rdRnRm  = []Operand{{SlotRd, Def}, {SlotRn, Use}, {SlotRm, Use}}
	rdRnImm = []Operand{{SlotRd, Def}, {SlotRn, Use}, {SlotImm, 0}}
	target  = []Operand{{SlotSym, 0}}
	rnSym   = []Operand{{SlotRn, Use}, {SlotSym, 0}}
)

// opTable is the opcode table: one row per opcode.
var opTable = [NumOps]OpInfo{
	BAD:     {Name: "BAD"},
	MOVZ:    {Name: "MOVZXi", Operands: []Operand{{SlotRd, Def}, {SlotImm, 0}}},
	ORRrs:   {Name: "ORRXrs", Operands: rdRnRm},
	ANDrs:   {Name: "ANDXrs", Operands: rdRnRm},
	EORrs:   {Name: "EORXrs", Operands: rdRnRm},
	ADDrs:   {Name: "ADDXrs", Operands: rdRnRm},
	ADDri:   {Name: "ADDXri", Operands: rdRnImm},
	SUBrs:   {Name: "SUBXrs", Operands: rdRnRm},
	SUBri:   {Name: "SUBXri", Operands: rdRnImm},
	MUL:     {Name: "MULXrr", Operands: rdRnRm},
	SDIV:    {Name: "SDIVXr", Operands: rdRnRm},
	MSUB:    {Name: "MSUBXrr", Operands: []Operand{{SlotRd, Def}, {SlotRn, Use}, {SlotRm, Use}, {SlotRd2, Use}}},
	LSLri:   {Name: "LSLXri", Operands: rdRnImm},
	LSRri:   {Name: "LSRXri", Operands: rdRnImm},
	ASRri:   {Name: "ASRXri", Operands: rdRnImm},
	CMPrs:   {Name: "CMPXrs", Operands: []Operand{{SlotRn, Use}, {SlotRm, Use}}},
	CMPri:   {Name: "CMPXri", Operands: []Operand{{SlotRn, Use}, {SlotImm, 0}}},
	CSET:    {Name: "CSETXr", Operands: []Operand{{SlotRd, Def}, {SlotCond, 0}}},
	LDRui:   {Name: "LDRXui", Operands: rdRnImm},
	STRui:   {Name: "STRXui", Operands: []Operand{{SlotRd, Use}, {SlotRn, Use}, {SlotImm, 0}}},
	LDPui:   {Name: "LDPXi", Operands: []Operand{{SlotRd, Def}, {SlotRd2, Def}, {SlotRn, Use}, {SlotImm, 0}}, Frame: true},
	STPui:   {Name: "STPXi", Operands: []Operand{{SlotRd, Use}, {SlotRd2, Use}, {SlotRn, Use}, {SlotImm, 0}}, Frame: true},
	STPpre:  {Name: "STPXpre", Operands: []Operand{{SlotRd, Use}, {SlotRd2, Use}, {SlotRn, DefUse}, {SlotImm, 0}}, Frame: true},
	LDPpost: {Name: "LDPXpost", Operands: []Operand{{SlotRd, Def}, {SlotRd2, Def}, {SlotRn, DefUse}, {SlotImm, 0}}, Frame: true},
	STRpre:  {Name: "STRXpre", Operands: []Operand{{SlotRd, Use}, {SlotRn, DefUse}, {SlotImm, 0}}, Frame: true},
	LDRpost: {Name: "LDRXpost", Operands: []Operand{{SlotRd, Def}, {SlotRn, DefUse}, {SlotImm, 0}}, Frame: true},
	ADR:     {Name: "ADRP", Operands: []Operand{{SlotRd, Def}, {SlotSym, 0}}},
	B:       {Name: "B", Operands: target, Term: true},
	Bcc:     {Name: "Bcc", Operands: []Operand{{SlotCond, 0}, {SlotSym, 0}}, Term: true},
	CBZ:     {Name: "CBZX", Operands: rnSym, Term: true},
	CBNZ:    {Name: "CBNZX", Operands: rnSym, Term: true},
	BL:      {Name: "BL", Operands: target, LR: Def},
	BLR:     {Name: "BLR", Operands: []Operand{{SlotRn, Use}}, LR: Def},
	RET:     {Name: "RET", LR: Use, Term: true},
	BRK:     {Name: "BRK", Operands: []Operand{{SlotImm, 0}}, Term: true},
	NOP:     {Name: "NOP"},
}

// Info returns op's row of the opcode table, which callers must not modify.
// An op past the table gets BAD's row.
func (op Op) Info() *OpInfo {
	if op >= NumOps {
		op = BAD
	}
	return &opTable[op]
}

// IsCall reports whether op transfers control with a link (BL/BLR): whether
// it defines LR.
func (op Op) IsCall() bool { return roles[op].defs&(1<<lrSlot) != 0 }

// OpName returns the mnemonic for op.
func OpName(op Op) string { return op.Info().Name }

// OpFromName returns the opcode with the given mnemonic.
func OpFromName(name string) (Op, bool) {
	op, ok := opByName[name]
	return op, ok
}

var opByName = func() map[string]Op {
	m := make(map[string]Op, NumOps)
	for op := Op(0); op < NumOps; op++ {
		m[opTable[op].Name] = op
	}
	return m
}()

// RegField returns the register field that slot s names, or nil for a slot
// that holds no register.
func (in *Inst) RegField(s Slot) *Reg {
	switch s {
	case SlotRd:
		return &in.Rd
	case SlotRd2:
		return &in.Rd2
	case SlotRn:
		return &in.Rn
	case SlotRm:
		return &in.Rm
	}
	return nil
}

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
// image listing are all built on it. It prints the operands of the opcode's
// row in order. Operands print whatever they hold — an out-of-range opcode is
// "BAD", an out-of-range register "badreg(n)" — because the paths that
// report a malformed instruction print it.
func (in Inst) AppendText(dst []byte) []byte {
	info := in.Op.Info()
	dst = append(dst, info.Name...)
	operands := info.Operands
	if len(operands) > 0 && operands[0].Slot == SlotCond { // a mnemonic suffix: Bcc.ne
		dst = append(append(dst, '.'), in.Cond.String()...)
		operands = operands[1:]
	}
	regs := [...]Reg{SlotRd: in.Rd, SlotRd2: in.Rd2, SlotRn: in.Rn, SlotRm: in.Rm}
	for i, o := range operands {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, ' ')
		switch o.Slot {
		case SlotRd, SlotRd2, SlotRn, SlotRm:
			dst = regs[o.Slot].appendName(append(dst, '$'))
		case SlotImm:
			dst = strconv.AppendInt(append(dst, '#'), in.Imm, 10)
		case SlotSym:
			dst = append(append(dst, '@'), in.Sym...)
		case SlotCond:
			dst = append(dst, in.Cond.String()...)
		}
	}
	return dst
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
