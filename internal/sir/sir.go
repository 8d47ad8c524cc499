// Package sir defines the SwiftLite Intermediate Representation — the
// analog of Swift's SIL. SIRGen lowers the type-checked AST into SIR,
// inserting the reference-counting traffic (retain/release) that the paper
// identifies as the dominant source of repeated machine code. SIR-level
// passes implement the SIL rows of the paper's Table I: the SIL "Outlining"
// pass and closure specialization.
//
// SIR is register-based but not SSA: a virtual register may be assigned
// multiple times (locals map to registers directly). SSA is constructed
// during lowering to LLIR, and destroyed again by the code generator — the
// round trip that produces the paper's out-of-SSA copy blow-up (§IV-4).
package sir

import (
	"fmt"
	"strings"
)

// Value is a virtual register. 0 is "none".
type Value int

// None marks an absent value operand.
const None Value = 0

// Op is a SIR operation.
type Op uint8

// SIR operations.
const (
	BadOp Op = iota

	ConstInt // Dst = Imm
	ConstStr // Dst = address of string constant Sym
	ConstNil // Dst = nil
	Move     // Dst = A

	Bin // Dst = A <BinOp> B
	Cmp // Dst = (A <Cond> B) as 0/1
	Not // Dst = !A
	Neg // Dst = -A

	Br     // branch to Sym
	CondBr // if A != 0 branch to Sym else Sym2

	Call        // Dst = Sym(Args...); if Throws, ErrDst receives the error channel (0 = ok)
	CallClosure // Dst = A(Args...) through a closure value
	Ret         // return A
	RetVoid     // return
	Throw       // set the error channel to A (a raw nonzero code) and return

	Retain  // retain A if it is a non-nil heap reference
	Release // release A if it is a non-nil heap reference

	AllocObject // Dst = new instance of class Sym with Imm fields
	FieldGet    // Dst = A.field[Imm]
	FieldSet    // A.field[Imm] = B
	AllocArray  // Dst = new zeroed array of length A
	ArrayGet    // Dst = A[B]
	ArraySet    // A[B] = C
	ArrayLen    // Dst = length of array A
	StrGet      // Dst = code unit B of string constant A
	StrLen      // Dst = length of string A
	Append      // Dst = array A with element B appended (fresh array)
	MakeClosure // Dst = closure over function Sym capturing Args...

	PrintInt  // print integer A
	PrintBool // print A as true/false
	PrintStr  // print string A

	Unreachable

	NumOps
)

// BinKind is an arithmetic/bitwise operator for Bin.
type BinKind uint8

// Binary operator kinds.
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

// CondKind is a comparison for Cmp.
type CondKind uint8

// Comparison kinds.
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

// Inst is one SIR instruction.
//
// The byte-sized fields come first, packed into one word: every slab, scratch
// copy and decoded module holds instructions by value (112 bytes).
type Inst struct {
	Op      Op
	BinOp   BinKind
	Cond    CondKind
	Throws  bool
	Dst     Value
	A, B, C Value
	ErrDst  Value // Call with Throws: receives the error channel
	Imm     int64
	Sym     string // callee / class / label / string constant
	Sym2    string // CondBr else-label
	Args    []Value
}

// Block is a labeled instruction run ending in a terminator.
type Block struct {
	Label string
	Insts []Inst
}

// IsTerminator reports whether the op ends a block.
func (op Op) IsTerminator() bool {
	switch op {
	case Br, CondBr, Ret, RetVoid, Throw, Unreachable:
		return true
	}
	return false
}

// Func is a SIR function.
type Func struct {
	Name      string
	Module    string
	NumParams int // params are values 1..NumParams
	Throws    bool
	Blocks    []*Block
	NumValues int // highest allocated value id

	// RefParams[i] is true when parameter i is reference counted; used by
	// passes that need ownership information.
	RefParams []bool
}

// Param returns the value id of parameter i (0-based).
func (f *Func) Param(i int) Value { return Value(i + 1) }

// NewValue allocates a fresh virtual register.
func (f *Func) NewValue() Value {
	f.NumValues++
	return Value(f.NumValues)
}

// Block returns the block with the given label, or nil.
func (f *Func) Block(label string) *Block {
	for _, b := range f.Blocks {
		if b.Label == label {
			return b
		}
	}
	return nil
}

// NumInsts counts instructions.
func (f *Func) NumInsts() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Insts)
	}
	return n
}

// Global is a data constant (string literals).
type Global struct {
	Name   string
	Module string
	Words  []int64
}

// Module is a compiled SwiftLite module.
type Module struct {
	Name    string
	Funcs   []*Func
	Globals []*Global

	funcIndex map[string]*Func
}

// NewModule returns an empty module.
func NewModule(name string) *Module {
	return &Module{Name: name, funcIndex: make(map[string]*Func)}
}

// AddFunc appends f; duplicate names panic.
func (m *Module) AddFunc(f *Func) {
	if _, dup := m.funcIndex[f.Name]; dup {
		panic(fmt.Sprintf("sir: duplicate function %q", f.Name))
	}
	m.funcIndex[f.Name] = f
	m.Funcs = append(m.Funcs, f)
}

// Func returns a function by name, or nil.
func (m *Module) Func(name string) *Func {
	return m.funcIndex[name]
}

// NumInsts counts instructions in the module.
func (m *Module) NumInsts() int {
	n := 0
	for _, f := range m.Funcs {
		n += f.NumInsts()
	}
	return n
}

// String renders the module for debugging.
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
	fmt.Fprintf(&b, "sir func @%s(%d params)", f.Name, f.NumParams)
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
	v := func(x Value) string { return fmt.Sprintf("v%d", x) }
	args := func() string {
		parts := make([]string, len(in.Args))
		for i, a := range in.Args {
			parts[i] = v(a)
		}
		return strings.Join(parts, ", ")
	}
	switch in.Op {
	case ConstInt:
		return fmt.Sprintf("%s = const %d", v(in.Dst), in.Imm)
	case ConstStr:
		return fmt.Sprintf("%s = str @%s", v(in.Dst), in.Sym)
	case ConstNil:
		return fmt.Sprintf("%s = nil", v(in.Dst))
	case Move:
		return fmt.Sprintf("%s = move %s", v(in.Dst), v(in.A))
	case Bin:
		return fmt.Sprintf("%s = %s %s, %s", v(in.Dst), in.BinOp, v(in.A), v(in.B))
	case Cmp:
		return fmt.Sprintf("%s = cmp.%s %s, %s", v(in.Dst), in.Cond, v(in.A), v(in.B))
	case Not:
		return fmt.Sprintf("%s = not %s", v(in.Dst), v(in.A))
	case Neg:
		return fmt.Sprintf("%s = neg %s", v(in.Dst), v(in.A))
	case Br:
		return fmt.Sprintf("br %s", in.Sym)
	case CondBr:
		return fmt.Sprintf("condbr %s, %s, %s", v(in.A), in.Sym, in.Sym2)
	case Call:
		s := fmt.Sprintf("call @%s(%s)", in.Sym, args())
		if in.Dst != None {
			s = fmt.Sprintf("%s = %s", v(in.Dst), s)
		}
		if in.Throws {
			s += fmt.Sprintf(" throws -> %s", v(in.ErrDst))
		}
		return s
	case CallClosure:
		s := fmt.Sprintf("call_closure %s(%s)", v(in.A), args())
		if in.Dst != None {
			s = fmt.Sprintf("%s = %s", v(in.Dst), s)
		}
		return s
	case Ret:
		return fmt.Sprintf("ret %s", v(in.A))
	case RetVoid:
		return "ret"
	case Throw:
		return fmt.Sprintf("throw %s", v(in.A))
	case Retain:
		return fmt.Sprintf("retain %s", v(in.A))
	case Release:
		return fmt.Sprintf("release %s", v(in.A))
	case AllocObject:
		return fmt.Sprintf("%s = alloc_object %s, %d fields", v(in.Dst), in.Sym, in.Imm)
	case FieldGet:
		return fmt.Sprintf("%s = field_get %s.%d", v(in.Dst), v(in.A), in.Imm)
	case FieldSet:
		return fmt.Sprintf("field_set %s.%d = %s", v(in.A), in.Imm, v(in.B))
	case AllocArray:
		return fmt.Sprintf("%s = alloc_array len %s", v(in.Dst), v(in.A))
	case ArrayGet:
		return fmt.Sprintf("%s = array_get %s[%s]", v(in.Dst), v(in.A), v(in.B))
	case ArraySet:
		return fmt.Sprintf("array_set %s[%s] = %s", v(in.A), v(in.B), v(in.C))
	case ArrayLen:
		return fmt.Sprintf("%s = array_len %s", v(in.Dst), v(in.A))
	case StrGet:
		return fmt.Sprintf("%s = str_get %s[%s]", v(in.Dst), v(in.A), v(in.B))
	case StrLen:
		return fmt.Sprintf("%s = str_len %s", v(in.Dst), v(in.A))
	case Append:
		return fmt.Sprintf("%s = append %s, %s", v(in.Dst), v(in.A), v(in.B))
	case MakeClosure:
		return fmt.Sprintf("%s = make_closure @%s(%s)", v(in.Dst), in.Sym, args())
	case PrintInt:
		return fmt.Sprintf("print_int %s", v(in.A))
	case PrintBool:
		return fmt.Sprintf("print_bool %s", v(in.A))
	case PrintStr:
		return fmt.Sprintf("print_str %s", v(in.A))
	case Unreachable:
		return "unreachable"
	}
	return "bad"
}
