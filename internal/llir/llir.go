// Package llir defines the low-level SSA IR — the analog of LLVM IR in the
// reproduction's pipeline. SIR lowers into LLIR (constructing SSA), the
// mid-level size optimizations of the paper's Table I run here (one
// function merger for the MergeFunctions and FMSA rows, DCE, CFG
// simplification), llvm-link-style
// module merging happens at this level (internal/irlink), and the code
// generator destroys SSA again on the way to machine code.
package llir

import (
	"fmt"
	"strings"
)

// Value is an SSA value id. 0 means "none".
type Value int32

// None marks an absent value.
const None Value = 0

// Op is an LLIR operation.
type Op uint8

// LLIR operations.
const (
	BadOp Op = iota

	Const      // Dst = Imm
	GlobalAddr // Dst = &Sym (global datum or function)
	Bin        // Dst = A <BinOp> B
	Cmp        // Dst = (A <Cond> B) as 0/1
	Not        // Dst = A == 0
	Neg        // Dst = -A

	Load  // Dst = mem[A + Imm]
	Store // mem[A + Imm] = B

	Call    // Dst = Sym(Args...); throwing callees also define ErrDst
	CallInd // Dst = (*A)(Args...)

	Ret // return A (None for void); in throwing functions B is the error
	// channel value (0 = normal return)
	Br     // branch Sym
	CondBr // if A != 0 branch Sym else Else()
	Phi    // Dst = φ(Incomings)

	Unreachable

	NumOps
)

// BinKind mirrors sir's binary operators.
type BinKind uint8

// Binary operators.
const (
	Add BinKind = iota
	Sub
	Mul
	Div
	Rem
)

func (b BinKind) String() string {
	return [...]string{"add", "sub", "mul", "div", "rem"}[b]
}

// CondKind mirrors sir's comparisons.
type CondKind uint8

// Comparisons.
const (
	Eq CondKind = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

func (c CondKind) String() string {
	return [...]string{"eq", "ne", "lt", "le", "gt", "ge"}[c]
}

// Incoming is one phi input.
type Incoming struct {
	Pred string
	Val  Value
}

// Inst is one LLIR instruction.
//
// It is 48 bytes: the byte-sized fields packed into one word with Dst, A and
// B, then Imm, Sym and a pointer to the operands only calls, phis and
// conditional branches have (Ext). Const and Bin, most of every module, use
// none of them. Read those operands through the nil-safe accessors (Args,
// Incomings, Else, ErrDst).
//
// Copying an Inst shares its Ext: a pass that changes a copy's record gives
// the copy a record of its own first. Passes that edit a function they own in
// place change its records directly.
type Inst struct {
	Op     Op
	BinOp  BinKind
	Cond   CondKind
	Throws bool
	Dst    Value
	A, B   Value
	Imm    int64
	Sym    string
	Ext    *Ext // nil when the instruction has none of the record's operands
}

// Ext holds the operands an instruction has only as a call, a phi or a
// conditional branch.
type Ext struct {
	ErrDst    Value // Call of a throwing function
	Else      string
	Args      []Value
	Incomings []Incoming
}

// Args returns a call's arguments.
func (in *Inst) Args() []Value {
	if in.Ext == nil {
		return nil
	}
	return in.Ext.Args
}

// Incomings returns a phi's inputs.
func (in *Inst) Incomings() []Incoming {
	if in.Ext == nil {
		return nil
	}
	return in.Ext.Incomings
}

// Else returns a conditional branch's fall-back label (taken when A == 0).
func (in *Inst) Else() string {
	if in.Ext == nil {
		return ""
	}
	return in.Ext.Else
}

// ErrDst returns the error value a call of a throwing function defines.
func (in *Inst) ErrDst() Value {
	if in.Ext == nil {
		return None
	}
	return in.Ext.ErrDst
}

// IsTerminator reports whether op ends a block.
func (op Op) IsTerminator() bool {
	switch op {
	case Ret, Br, CondBr, Unreachable:
		return true
	}
	return false
}

// Block is a basic block; phis always come first.
type Block struct {
	Label string
	Insts []Inst
}

// Terminator returns the block's final instruction.
func (b *Block) Terminator() *Inst {
	if len(b.Insts) == 0 {
		return nil
	}
	return &b.Insts[len(b.Insts)-1]
}

// Succs returns the labels this block can branch to.
func (b *Block) Succs() []string {
	t := b.Terminator()
	if t == nil {
		return nil
	}
	switch t.Op {
	case Br:
		return []string{t.Sym}
	case CondBr:
		return []string{t.Sym, t.Else()}
	}
	return nil
}

// Func is an LLIR function in SSA form.
type Func struct {
	Name      string
	Module    string
	NumParams int // parameters are values 1..NumParams
	Throws    bool
	Blocks    []*Block
	NumValues int
}

// Param returns the value of parameter i (0-based).
func (f *Func) Param(i int) Value { return Value(i + 1) }

// NewValue allocates a fresh SSA value id.
func (f *Func) NewValue() Value {
	f.NumValues++
	return Value(f.NumValues)
}

// NumInsts counts instructions.
func (f *Func) NumInsts() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Insts)
	}
	return n
}

// Global is a data-section constant with module provenance.
type Global struct {
	Name   string
	Module string
	Words  []int64
}

// Module is a set of LLIR functions and globals. After irlink it may contain
// functions from many source modules (each Func keeps its own provenance).
type Module struct {
	Name    string
	Funcs   []*Func
	Globals []*Global

	// Metadata mirrors LLVM's module flags. The paper's §VI-2 conflict: the
	// Swift and Clang compilers emit different "Objective-C Garbage
	// Collection" values, and merging modules fails unless the flag is
	// split into attributes.
	Metadata map[string]string

	funcIndex map[string]*Func
}

// NewModule returns an empty module.
func NewModule(name string) *Module {
	return &Module{
		Name:      name,
		Metadata:  make(map[string]string),
		funcIndex: make(map[string]*Func),
	}
}

// AddFunc appends f (duplicate names panic).
func (m *Module) AddFunc(f *Func) {
	if m.funcIndex == nil {
		m.funcIndex = make(map[string]*Func)
	}
	if _, dup := m.funcIndex[f.Name]; dup {
		panic(fmt.Sprintf("llir: duplicate function %q", f.Name))
	}
	m.funcIndex[f.Name] = f
	m.Funcs = append(m.Funcs, f)
}

// Func returns a function by name, or nil.
func (m *Module) Func(name string) *Func { return m.funcIndex[name] }

// NumInsts counts instructions in the module.
func (m *Module) NumInsts() int {
	n := 0
	for _, f := range m.Funcs {
		n += f.NumInsts()
	}
	return n
}

// String renders the module.
func (m *Module) String() string {
	var b strings.Builder
	for _, f := range m.Funcs {
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	for _, g := range m.Globals {
		fmt.Fprintf(&b, "global @%s = %v\n", g.Name, g.Words)
	}
	return b.String()
}

// String renders one function.
func (f *Func) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "llir func @%s(%d params)", f.Name, f.NumParams)
	if f.Throws {
		b.WriteString(" throws")
	}
	b.WriteString(" {\n")
	for _, blk := range f.Blocks {
		fmt.Fprintf(&b, "%s:\n", blk.Label)
		for _, in := range blk.Insts {
			fmt.Fprintf(&b, "  %s\n", in)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

func (in Inst) String() string {
	v := func(x Value) string { return fmt.Sprintf("%%%d", x) }
	switch in.Op {
	case Const:
		return fmt.Sprintf("%s = const %d", v(in.Dst), in.Imm)
	case GlobalAddr:
		return fmt.Sprintf("%s = addr @%s", v(in.Dst), in.Sym)
	case Bin:
		return fmt.Sprintf("%s = %s %s, %s", v(in.Dst), in.BinOp, v(in.A), v(in.B))
	case Cmp:
		return fmt.Sprintf("%s = cmp.%s %s, %s", v(in.Dst), in.Cond, v(in.A), v(in.B))
	case Not:
		return fmt.Sprintf("%s = not %s", v(in.Dst), v(in.A))
	case Neg:
		return fmt.Sprintf("%s = neg %s", v(in.Dst), v(in.A))
	case Load:
		return fmt.Sprintf("%s = load [%s + %d]", v(in.Dst), v(in.A), in.Imm)
	case Store:
		return fmt.Sprintf("store [%s + %d] = %s", v(in.A), in.Imm, v(in.B))
	case Call:
		args := make([]string, len(in.Args()))
		for i, a := range in.Args() {
			args[i] = v(a)
		}
		s := fmt.Sprintf("call @%s(%s)", in.Sym, strings.Join(args, ", "))
		if in.Dst != None {
			s = v(in.Dst) + " = " + s
		}
		if in.Throws {
			s += " throws -> " + v(in.ErrDst())
		}
		return s
	case CallInd:
		args := make([]string, len(in.Args()))
		for i, a := range in.Args() {
			args[i] = v(a)
		}
		s := fmt.Sprintf("call_ind %s(%s)", v(in.A), strings.Join(args, ", "))
		if in.Dst != None {
			s = v(in.Dst) + " = " + s
		}
		return s
	case Ret:
		s := "ret"
		if in.A != None {
			s += " " + v(in.A)
		}
		if in.B != None {
			s += " err=" + v(in.B)
		}
		return s
	case Br:
		return "br " + in.Sym
	case CondBr:
		return fmt.Sprintf("condbr %s, %s, %s", v(in.A), in.Sym, in.Else())
	case Phi:
		parts := make([]string, len(in.Incomings()))
		for i, inc := range in.Incomings() {
			parts[i] = fmt.Sprintf("[%s: %s]", inc.Pred, v(inc.Val))
		}
		return fmt.Sprintf("%s = phi %s", v(in.Dst), strings.Join(parts, " "))
	case Unreachable:
		return "unreachable"
	}
	return "bad"
}
