// Package mir defines the machine-level intermediate representation that the
// code generator produces and the machine outliner transforms: programs of
// functions, functions of basic blocks, blocks of isa.Inst instructions.
//
// It corresponds to LLVM's MachineFunction layer after register allocation —
// the representation the paper's analysis and optimization operate on. The
// textual form (String / Parse) resembles LLVM MIR dumps so that test inputs
// read like the paper's listings.
package mir

import (
	"fmt"
	"sort"

	"outliner/internal/isa"
)

// Block is a basic block: a label and a straight-line run of instructions
// ending in at most one terminator.
type Block struct {
	Label string
	Insts []isa.Inst
}

// Clone returns a deep copy of the block.
func (b *Block) Clone() *Block {
	nb := &Block{Label: b.Label, Insts: make([]isa.Inst, len(b.Insts))}
	copy(nb.Insts, b.Insts)
	return nb
}

// Function is a machine function.
type Function struct {
	Name   string
	Module string // provenance: source module that produced the function
	Blocks []*Block

	// Outlined marks functions created by the machine outliner
	// (OUTLINED_FUNCTION_* in the paper's debugging war story).
	Outlined bool
}

// Clone returns a deep copy of the function.
func (f *Function) Clone() *Function {
	nf := &Function{Name: f.Name, Module: f.Module, Outlined: f.Outlined}
	nf.Blocks = make([]*Block, len(f.Blocks))
	for i, b := range f.Blocks {
		nf.Blocks[i] = b.Clone()
	}
	return nf
}

// NumInsts returns the number of instructions in the function.
func (f *Function) NumInsts() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Insts)
	}
	return n
}

// CodeSize returns the byte size of the function's instructions.
func (f *Function) CodeSize() int {
	n := 0
	for _, b := range f.Blocks {
		for _, in := range b.Insts {
			n += in.Size()
		}
	}
	return n
}

// Block returns the block with the given label, or nil.
func (f *Function) Block(label string) *Block {
	for _, b := range f.Blocks {
		if b.Label == label {
			return b
		}
	}
	return nil
}

// Global is a data-section entry: a named array of 8-byte words with module
// provenance. Provenance drives the data-layout ordering experiments (§VI-3):
// the IR linker can either preserve per-module grouping or interleave.
type Global struct {
	Name   string
	Module string
	Words  []int64
}

// Size returns the byte size of the global.
func (g *Global) Size() int { return 8 * len(g.Words) }

// Program is a whole machine program: the unit the whole-program outliner
// sees, and the unit the binary image is produced from.
type Program struct {
	Funcs   []*Function
	Globals []*Global

	funcIndex map[string]*Function
}

// NewProgram returns an empty program.
func NewProgram() *Program { return NewProgramSized(0, 0) }

// NewProgramSized returns an empty program with room for nfuncs functions
// and nglobals globals, its name index included: a caller that knows the
// final counts adds every function and global without regrowing either.
func NewProgramSized(nfuncs, nglobals int) *Program {
	return &Program{
		Funcs:     make([]*Function, 0, nfuncs),
		Globals:   make([]*Global, 0, nglobals),
		funcIndex: make(map[string]*Function, nfuncs),
	}
}

// AddFunc appends f. It panics on duplicate names: machine-level symbols
// must be unique by the time a program is assembled.
func (p *Program) AddFunc(f *Function) {
	if p.funcIndex == nil {
		p.rebuildIndex()
	}
	if _, dup := p.funcIndex[f.Name]; dup {
		panic(fmt.Sprintf("mir: duplicate function %q", f.Name))
	}
	p.funcIndex[f.Name] = f
	p.Funcs = append(p.Funcs, f)
}

// AddGlobal appends g.
func (p *Program) AddGlobal(g *Global) { p.Globals = append(p.Globals, g) }

// Func returns the function with the given name, or nil.
func (p *Program) Func(name string) *Function {
	if p.funcIndex == nil {
		p.rebuildIndex()
	}
	return p.funcIndex[name]
}

func (p *Program) rebuildIndex() {
	p.funcIndex = make(map[string]*Function, len(p.Funcs))
	for _, f := range p.Funcs {
		p.funcIndex[f.Name] = f
	}
}

// Clone returns a deep copy of the program.
func (p *Program) Clone() *Program {
	np := NewProgramSized(len(p.Funcs), len(p.Globals))
	for _, f := range p.Funcs {
		np.AddFunc(f.Clone())
	}
	for _, g := range p.Globals {
		words := make([]int64, len(g.Words))
		copy(words, g.Words)
		np.AddGlobal(&Global{Name: g.Name, Module: g.Module, Words: words})
	}
	return np
}

// ResetTo replaces p's contents in place with a deep copy of src, keeping
// every existing *Program reference to p valid — how the outliner rolls a
// shared program back to a snapshot.
func (p *Program) ResetTo(src *Program) { *p = *src.Clone() }

// NumInsts returns the total instruction count.
func (p *Program) NumInsts() int {
	n := 0
	for _, f := range p.Funcs {
		n += f.NumInsts()
	}
	return n
}

// CodeSize returns the total byte size of all instructions — the paper's
// "code section" size.
func (p *Program) CodeSize() int {
	n := 0
	for _, f := range p.Funcs {
		n += f.CodeSize()
	}
	return n
}

// DataSize returns the total byte size of all globals.
func (p *Program) DataSize() int {
	n := 0
	for _, g := range p.Globals {
		n += g.Size()
	}
	return n
}

// Modules returns the sorted set of module names present in the program.
func (p *Program) Modules() []string {
	seen := make(map[string]bool)
	for _, f := range p.Funcs {
		seen[f.Module] = true
	}
	for _, g := range p.Globals {
		seen[g.Module] = true
	}
	names := make([]string, 0, len(seen))
	for m := range seen {
		names = append(names, m)
	}
	sort.Strings(names)
	return names
}

// ReorderFuncs replaces the program's function order with funcs. It panics
// unless funcs is a true permutation of the current function list — a layout
// pass must move functions, never drop, duplicate, or invent them — so every
// reordering caller gets the permutation invariant enforced at the IR layer.
func (p *Program) ReorderFuncs(funcs []*Function) {
	if len(funcs) != len(p.Funcs) {
		panic(fmt.Sprintf("mir: reorder with %d functions, program has %d", len(funcs), len(p.Funcs)))
	}
	if p.funcIndex == nil {
		p.rebuildIndex()
	}
	seen := make(map[string]bool, len(funcs))
	for _, f := range funcs {
		if p.funcIndex[f.Name] != f {
			panic(fmt.Sprintf("mir: reorder introduces foreign function %q", f.Name))
		}
		if seen[f.Name] {
			panic(fmt.Sprintf("mir: reorder duplicates function %q", f.Name))
		}
		seen[f.Name] = true
	}
	p.Funcs = funcs
}
