// Package exec interprets machine programs (internal/mir) with a simulated
// Swift-like runtime: reference-counted heap objects, arrays, string
// constants, and print routines. It is the reproduction's stand-in for
// running AArch64 binaries on hardware.
//
// The interpreter is faithful to the parts that matter for the paper:
//   - the link register / BL / RET discipline the outlining strategies
//     manipulate (outlined code must execute identically),
//   - real code addresses, so instruction-cache behaviour can be modeled by
//     internal/perf from the PC trace,
//   - the error-channel register convention of throwing functions.
//
// Correctness of transformations is checked by executing programs before and
// after outlining and comparing outputs — the strongest test the repo has.
package exec

import (
	"fmt"
	"strings"

	"outliner/internal/isa"
	"outliner/internal/mir"
	"outliner/internal/obs"
	"outliner/internal/profile"
)

// Memory layout constants (byte addresses; everything is 8-byte words).
const (
	globalsBase = int64(1) << 16 // 64KiB: data section
	heapBase    = int64(1) << 28 // 256MiB: bump-allocated heap
	stackBase   = int64(1) << 34 // stack grows down from stackBase+stackSize
	stackSize   = int64(4) << 20
	codeBase    = int64(1) << 36 // instruction addresses
	rtBase      = int64(1) << 40 // runtime entry pseudo-addresses
)

// Options configures a run.
type Options struct {
	// MaxSteps bounds executed instructions (0 = default 500M).
	MaxSteps int64
	// Trace receives one event per executed instruction when non-nil.
	Trace func(ev Event)
	// Profile, when non-nil, collects an execution profile: function entry
	// counts, call edges keyed by call-site offset, basic-block execution
	// counts, and per-function step totals. Counts accumulate locally and
	// flush to the collector at the end of every Run, so one collector can
	// merge many runs and many machines. Nil costs one pointer check per
	// instruction — the interpreter is otherwise unchanged.
	Profile *profile.Collector
}

// Event describes one executed instruction for tracing (consumed by the
// performance model).
type Event struct {
	PC      int64 // code address
	Size    int   // instruction bytes
	Op      isa.Op
	Branch  bool  // control transfer occurred (incl. taken conditionals)
	Target  int64 // branch/call target when Branch
	MemAddr int64 // nonzero for loads/stores: the data address
	IsLoad  bool
	IsStore bool
	// SP is the stack pointer value after the instruction (debug aid for
	// frame-discipline analysis).
	SP int64
}

// Stats summarizes execution since machine creation or the last ResetStats.
type Stats struct {
	DynamicInsts int64
	Calls        int64
	Branches     int64
	Taken        int64
	Loads        int64
	Stores       int64
	HeapAllocs   int64
	HeapWords    int64
	// RuntimeCalls counts transfers into runtime entries (swift_retain,
	// print_int, ...) — the paper's §V-2 runtime-call density signal.
	RuntimeCalls int64
	// OutlinedInsts counts dynamic instructions executed inside outlined
	// functions (the paper reports ~3%).
	OutlinedInsts int64
}

// EmitCounters publishes the stats as internal/obs counters, so instrumented
// and oracle runs show up in -trace/-summary next to build-stage counters.
// Nil-tracer safe, like the rest of the obs API.
func (s Stats) EmitCounters(tr *obs.Tracer) {
	tr.Add("exec/steps", s.DynamicInsts)
	tr.Add("exec/calls", s.Calls)
	tr.Add("exec/branches", s.Branches)
	tr.Add("exec/taken_branches", s.Taken)
	tr.Add("exec/loads", s.Loads)
	tr.Add("exec/stores", s.Stores)
	tr.Add("exec/runtime_calls", s.RuntimeCalls)
	tr.Add("exec/heap_allocs", s.HeapAllocs)
	tr.Add("exec/outlined_insts", s.OutlinedInsts)
}

// Machine interprets one program.
type Machine struct {
	prog *mir.Program
	opts Options

	code      []codeInst
	addrOf    map[symKey]int64 // block label within function -> address
	funcEntry map[string]int64
	funcOf    []int // code index -> function index (for outlined accounting)
	outlined  []bool

	globals     []int64
	globalAddrs map[string]int64

	heap       []int64
	heapNext   int64
	allocSizes map[int64]int64 // block base addr -> word count

	stack []int64

	regs  [int(isa.NumRegs)]int64
	fLess bool
	fEq   bool

	out   strings.Builder
	stats Stats

	// Profiling state; nil/empty unless opts.Profile is set. Counts
	// accumulate in flat per-function / per-instruction arrays during a run
	// (no map work on the hot path) and flush to the collector when Run
	// returns.
	pcol       *profile.Collector
	funcAddrs  []int64  // function index -> entry address
	blockLabel []string // code index -> label when first inst of its block
	pSteps     []int64  // per-function dynamic steps this run
	pEntries   []int64  // per-function entries this run
	pBlocks    []int64  // per-code-index block executions this run
	pCalls     map[callSite]int64
}

// callSite identifies a call edge: calling function, call-site offset from
// its entry, and callee name.
type callSite struct {
	fn     int
	off    int64
	callee string
}

type symKey struct {
	fn    int
	label string
}

type codeInst struct {
	in   isa.Inst
	fn   int
	addr int64
	next int64 // address of the next instruction (fallthrough)
}

// runtime entry points, each with a fixed pseudo-address.
var runtimeEntries = []string{
	"swift_retain", "swift_release", "swift_allocObject", "swift_allocArray",
	"swift_arrayAppend", "print_int", "print_bool", "print_str",
	"objc_retain", "objc_release",
}

// RuntimeAddrs maps runtime symbol names to their pseudo-addresses.
func runtimeAddr(name string) (int64, bool) {
	for i, n := range runtimeEntries {
		if n == name {
			return rtBase + int64(i)*8, true
		}
	}
	return 0, false
}

// New lays out the program (code addresses, globals) and returns a machine
// ready to Run.
func New(prog *mir.Program, opts Options) (*Machine, error) {
	if opts.MaxSteps == 0 {
		opts.MaxSteps = 500_000_000
	}
	m := &Machine{
		prog:        prog,
		opts:        opts,
		addrOf:      make(map[symKey]int64),
		funcEntry:   make(map[string]int64),
		globalAddrs: make(map[string]int64),
		allocSizes:  make(map[int64]int64),
		heapNext:    heapBase,
		stack:       make([]int64, stackSize/8),
	}

	// Lay out code.
	profiling := opts.Profile != nil
	addr := codeBase
	for fi, f := range prog.Funcs {
		m.funcEntry[f.Name] = addr
		m.funcAddrs = append(m.funcAddrs, addr)
		m.outlined = append(m.outlined, f.Outlined)
		for _, b := range f.Blocks {
			m.addrOf[symKey{fn: fi, label: b.Label}] = addr
			first := true
			for _, in := range b.Insts {
				size := int64(in.Size())
				m.code = append(m.code, codeInst{in: in, fn: fi, addr: addr, next: addr + size})
				m.funcOf = append(m.funcOf, fi)
				if profiling {
					label := ""
					if first {
						label = b.Label
					}
					m.blockLabel = append(m.blockLabel, label)
				}
				first = false
				addr += size
			}
		}
	}
	if profiling {
		m.pcol = opts.Profile
		m.pSteps = make([]int64, len(prog.Funcs))
		m.pEntries = make([]int64, len(prog.Funcs))
		m.pBlocks = make([]int64, len(m.code))
		m.pCalls = make(map[callSite]int64)
	}

	// Lay out globals in program order (the order the linker decided —
	// §VI-3's data-locality experiments depend on this).
	off := int64(0)
	for _, g := range prog.Globals {
		m.globalAddrs[g.Name] = globalsBase + off
		m.globals = append(m.globals, g.Words...)
		off += int64(len(g.Words)) * 8
	}
	return m, nil
}

// addrIndex maps a code address to its instruction index.
func (m *Machine) addrIndex(addr int64) (int, error) {
	// Instructions are 4 or 8 bytes; binary search by address.
	lo, hi := 0, len(m.code)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		a := m.code[mid].addr
		if a == addr {
			return mid, nil
		}
		if a < addr {
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	return 0, trapf("jump to non-instruction address %#x", addr)
}

// Output returns everything printed so far.
func (m *Machine) Output() string { return m.out.String() }

// Stats returns execution statistics accumulated since machine creation or
// the last ResetStats.
func (m *Machine) Stats() Stats { return m.stats }

// ResetStats zeroes the statistics, making per-run accounting possible on a
// reused machine: multi-entry profiling runs call Run repeatedly on one
// machine, and without a reset every run's Stats would include its
// predecessors' counts.
func (m *Machine) ResetStats() { m.stats = Stats{} }

// Run executes function name (no arguments) until it returns. Returns the
// accumulated output. When profiling, the run's counts — including those of
// a failed run — flush to the collector before Run returns, and the run
// starts from zeroed accumulators, so repeated Runs on one machine never
// double-count.
func (m *Machine) Run(name string) (string, error) {
	out, err := m.run(name)
	if m.pcol != nil {
		m.flushProfile()
	}
	return out, err
}

func (m *Machine) run(name string) (string, error) {
	entry, ok := m.funcEntry[name]
	if !ok {
		return "", fmt.Errorf("exec: no function %q", name)
	}
	const haltAddr = codeBase - 8
	m.regs[isa.LR] = haltAddr
	m.regs[isa.SP] = stackBase + stackSize
	m.regs[isa.XZR] = 0

	idx, err := m.addrIndex(entry)
	if err != nil {
		return "", err
	}
	if m.pcol != nil {
		m.pEntries[m.code[idx].fn]++
	}
	steps := int64(0)
	for {
		ci := &m.code[idx]
		if steps >= m.opts.MaxSteps {
			e := &Error{Kind: KindMaxSteps,
				Msg: fmt.Sprintf("step limit (%d) exceeded — runaway loop?", m.opts.MaxSteps)}
			return m.Output(), m.fault(e, ci, steps)
		}
		steps++
		nextAddr, err := m.step(ci)
		if err != nil {
			return m.Output(), m.fault(err, ci, steps)
		}
		m.stats.DynamicInsts++
		if m.outlined[ci.fn] {
			m.stats.OutlinedInsts++
		}
		if m.pcol != nil {
			m.profStep(idx, ci, nextAddr)
		}
		if nextAddr == haltAddr {
			return m.Output(), nil
		}
		if nextAddr == ci.next {
			idx++
			if idx >= len(m.code) || m.code[idx].addr != nextAddr {
				i, err := m.addrIndex(nextAddr)
				if err != nil {
					return m.Output(), m.fault(err, ci, steps)
				}
				idx = i
			}
			continue
		}
		// Control transfer (possibly to a runtime entry).
		for {
			if nextAddr >= rtBase {
				ret, err := m.runtimeCall(nextAddr)
				if err != nil {
					return m.Output(), m.fault(err, ci, steps)
				}
				nextAddr = ret
				continue
			}
			break
		}
		if nextAddr == haltAddr {
			return m.Output(), nil
		}
		i, err := m.addrIndex(nextAddr)
		if err != nil {
			return m.Output(), m.fault(err, ci, steps)
		}
		idx = i
	}
}

// fault attaches instruction context to an execution error. Errors raised
// below step (memory system, runtime calls) are context-free *Error values;
// anything else is wrapped as a trap so every Run failure unwraps to *Error.
func (m *Machine) fault(err error, ci *codeInst, steps int64) *Error {
	e, ok := err.(*Error)
	if !ok {
		e = &Error{Kind: KindTrap, Msg: err.Error()}
	}
	e.PC = ci.addr
	e.Func = m.prog.Funcs[ci.fn].Name
	e.Inst = ci.in.String()
	e.Step = steps
	return e
}

// profStep records one executed instruction into the run's profiling
// accumulators: a step for the hosting function, a block execution when the
// instruction opens its block, and — for calls and cross-function tail
// calls — a call edge plus an entry for the callee.
func (m *Machine) profStep(idx int, ci *codeInst, nextAddr int64) {
	m.pSteps[ci.fn]++
	if m.blockLabel[idx] != "" {
		m.pBlocks[idx]++
	}
	op := ci.in.Op
	isCall := op == isa.BL || op == isa.BLR
	if !isCall && op != isa.B {
		return
	}
	if nextAddr >= rtBase {
		m.profCall(ci, runtimeEntries[(nextAddr-rtBase)/8])
		return
	}
	ti, err := m.addrIndex(nextAddr)
	if err != nil {
		return // halt address or a fault the main loop will surface
	}
	tfn := m.code[ti].fn
	if isCall || tfn != ci.fn {
		m.pEntries[tfn]++
		m.profCall(ci, m.prog.Funcs[tfn].Name)
	}
}

func (m *Machine) profCall(ci *codeInst, callee string) {
	m.pCalls[callSite{fn: ci.fn, off: ci.addr - m.funcAddrs[ci.fn], callee: callee}]++
}

// flushProfile drains the run's accumulators into the collector (zeroing
// them), taking the collector lock once per run.
func (m *Machine) flushProfile() {
	p := profile.New()
	for fi, f := range m.prog.Funcs {
		entries, steps := m.pEntries[fi], m.pSteps[fi]
		if entries == 0 && steps == 0 {
			continue
		}
		fp := p.Func(f.Name)
		fp.Entries = entries
		fp.Steps = steps
		m.pEntries[fi], m.pSteps[fi] = 0, 0
	}
	for idx, n := range m.pBlocks {
		if n == 0 {
			continue
		}
		ci := &m.code[idx]
		fp := p.Func(m.prog.Funcs[ci.fn].Name)
		if fp.Blocks == nil {
			fp.Blocks = make(map[string]int64)
		}
		fp.Blocks[m.blockLabel[idx]] += n
		m.pBlocks[idx] = 0
	}
	for site, n := range m.pCalls {
		fp := p.Func(m.prog.Funcs[site.fn].Name)
		if fp.Calls == nil {
			fp.Calls = make(map[string]int64)
		}
		fp.Calls[profile.EdgeKey(site.callee, site.off)] += n
	}
	clear(m.pCalls)
	m.pcol.Add(p)
}

func (m *Machine) get(r isa.Reg) int64 {
	if r == isa.XZR {
		return 0
	}
	return m.regs[r]
}

func (m *Machine) set(r isa.Reg, v int64) {
	if r == isa.XZR {
		return
	}
	m.regs[r] = v
}

// load/store with segment resolution.
func (m *Machine) load(addr int64) (int64, error) {
	w, err := m.slot(addr)
	if err != nil {
		return 0, err
	}
	return *w, nil
}

func (m *Machine) store(addr, v int64) error {
	w, err := m.slot(addr)
	if err != nil {
		return err
	}
	*w = v
	return nil
}

func (m *Machine) slot(addr int64) (*int64, error) {
	if addr%8 != 0 {
		return nil, memf("unaligned access at %#x", addr)
	}
	switch {
	case addr >= globalsBase && addr < globalsBase+int64(len(m.globals))*8:
		return &m.globals[(addr-globalsBase)/8], nil
	case addr >= heapBase && addr < m.heapNext:
		return &m.heap[(addr-heapBase)/8], nil
	case addr >= stackBase && addr < stackBase+stackSize:
		return &m.stack[(addr-stackBase)/8], nil
	}
	return nil, memf("bad memory access at %#x", addr)
}

// alloc bump-allocates n words and returns the block address.
func (m *Machine) alloc(words int64) (int64, error) {
	if words < 0 || words > 1<<24 {
		return 0, trapf("bad allocation size %d words", words)
	}
	addr := m.heapNext
	m.heap = append(m.heap, make([]int64, words)...)
	m.heapNext += words * 8
	m.allocSizes[addr] = words
	m.stats.HeapAllocs++
	m.stats.HeapWords += words
	return addr, nil
}

// step executes one instruction, returning the next PC address.
func (m *Machine) step(ci *codeInst) (int64, error) {
	in := ci.in
	ev := Event{PC: ci.addr, Size: in.Size(), Op: in.Op}
	next := ci.next
	defer func() {
		if m.opts.Trace != nil {
			ev.SP = m.regs[isa.SP]
			m.opts.Trace(ev)
		}
	}()

	branchTo := func(addr int64) {
		ev.Branch = true
		ev.Target = addr
		next = addr
	}
	labelAddr := func(sym string) (int64, bool) {
		if a, ok := m.addrOf[symKey{fn: ci.fn, label: sym}]; ok {
			return a, true
		}
		return 0, false
	}
	symbolAddr := func(sym string) (int64, error) {
		if a, ok := m.funcEntry[sym]; ok {
			return a, nil
		}
		if a, ok := runtimeAddr(sym); ok {
			return a, nil
		}
		return 0, trapf("unknown symbol %q", sym)
	}

	switch in.Op {
	case isa.MOVZ:
		m.set(in.Rd, in.Imm)
	case isa.ORRrs:
		m.set(in.Rd, m.get(in.Rn)|m.get(in.Rm))
	case isa.ANDrs:
		m.set(in.Rd, m.get(in.Rn)&m.get(in.Rm))
	case isa.EORrs:
		m.set(in.Rd, m.get(in.Rn)^m.get(in.Rm))
	case isa.ADDrs:
		m.set(in.Rd, m.get(in.Rn)+m.get(in.Rm))
	case isa.ADDri:
		m.set(in.Rd, m.get(in.Rn)+in.Imm)
	case isa.SUBrs:
		m.set(in.Rd, m.get(in.Rn)-m.get(in.Rm))
	case isa.SUBri:
		m.set(in.Rd, m.get(in.Rn)-in.Imm)
	case isa.MUL:
		m.set(in.Rd, m.get(in.Rn)*m.get(in.Rm))
	case isa.SDIV:
		d := m.get(in.Rm)
		if d == 0 {
			return 0, trapf("division by zero")
		}
		m.set(in.Rd, m.get(in.Rn)/d)
	case isa.MSUB:
		m.set(in.Rd, m.get(in.Rd2)-m.get(in.Rn)*m.get(in.Rm))
	case isa.LSLri:
		m.set(in.Rd, m.get(in.Rn)<<uint(in.Imm))
	case isa.LSRri:
		m.set(in.Rd, int64(uint64(m.get(in.Rn))>>uint(in.Imm)))
	case isa.ASRri:
		m.set(in.Rd, m.get(in.Rn)>>uint(in.Imm))
	case isa.CMPrs:
		a, b := m.get(in.Rn), m.get(in.Rm)
		m.fLess, m.fEq = a < b, a == b
	case isa.CMPri:
		a := m.get(in.Rn)
		m.fLess, m.fEq = a < in.Imm, a == in.Imm
	case isa.CSET:
		v := int64(0)
		if m.condHolds(in.Cond) {
			v = 1
		}
		m.set(in.Rd, v)
	case isa.LDRui:
		addr := m.get(in.Rn) + in.Imm
		v, err := m.load(addr)
		if err != nil {
			return 0, err
		}
		m.set(in.Rd, v)
		ev.MemAddr, ev.IsLoad = addr, true
		m.stats.Loads++
	case isa.STRui:
		addr := m.get(in.Rn) + in.Imm
		if err := m.store(addr, m.get(in.Rd)); err != nil {
			return 0, err
		}
		ev.MemAddr, ev.IsStore = addr, true
		m.stats.Stores++
	case isa.LDPui:
		addr := m.get(in.Rn) + in.Imm
		v1, err := m.load(addr)
		if err != nil {
			return 0, err
		}
		v2, err := m.load(addr + 8)
		if err != nil {
			return 0, err
		}
		m.set(in.Rd, v1)
		m.set(in.Rd2, v2)
		ev.MemAddr, ev.IsLoad = addr, true
		m.stats.Loads++
	case isa.STPui:
		addr := m.get(in.Rn) + in.Imm
		if err := m.store(addr, m.get(in.Rd)); err != nil {
			return 0, err
		}
		if err := m.store(addr+8, m.get(in.Rd2)); err != nil {
			return 0, err
		}
		ev.MemAddr, ev.IsStore = addr, true
		m.stats.Stores++
	case isa.STPpre:
		base := m.get(in.Rn) + in.Imm // Imm is negative
		if err := m.store(base, m.get(in.Rd)); err != nil {
			return 0, err
		}
		if err := m.store(base+8, m.get(in.Rd2)); err != nil {
			return 0, err
		}
		m.set(in.Rn, base)
		ev.MemAddr, ev.IsStore = base, true
		m.stats.Stores++
	case isa.LDPpost:
		base := m.get(in.Rn)
		v1, err := m.load(base)
		if err != nil {
			return 0, err
		}
		v2, err := m.load(base + 8)
		if err != nil {
			return 0, err
		}
		m.set(in.Rd, v1)
		m.set(in.Rd2, v2)
		m.set(in.Rn, base+in.Imm)
		ev.MemAddr, ev.IsLoad = base, true
		m.stats.Loads++
	case isa.STRpre:
		base := m.get(in.Rn) + in.Imm
		if err := m.store(base, m.get(in.Rd)); err != nil {
			return 0, err
		}
		m.set(in.Rn, base)
		ev.MemAddr, ev.IsStore = base, true
		m.stats.Stores++
	case isa.LDRpost:
		base := m.get(in.Rn)
		v, err := m.load(base)
		if err != nil {
			return 0, err
		}
		m.set(in.Rd, v)
		m.set(in.Rn, base+in.Imm)
		ev.MemAddr, ev.IsLoad = base, true
		m.stats.Loads++
	case isa.ADR:
		if a, ok := m.globalAddrs[in.Sym]; ok {
			m.set(in.Rd, a)
		} else if a, ok := m.funcEntry[in.Sym]; ok {
			m.set(in.Rd, a)
		} else if a, ok := runtimeAddr(in.Sym); ok {
			m.set(in.Rd, a)
		} else {
			return 0, trapf("unknown symbol %q", in.Sym)
		}
	case isa.B:
		if a, ok := labelAddr(in.Sym); ok {
			branchTo(a)
		} else {
			a, err := symbolAddr(in.Sym) // tail call
			if err != nil {
				return 0, err
			}
			branchTo(a)
		}
		m.stats.Branches++
		m.stats.Taken++
	case isa.Bcc:
		m.stats.Branches++
		if m.condHolds(in.Cond) {
			a, ok := labelAddr(in.Sym)
			if !ok {
				return 0, trapf("unknown label %q", in.Sym)
			}
			branchTo(a)
			m.stats.Taken++
		}
	case isa.CBZ, isa.CBNZ:
		m.stats.Branches++
		v := m.get(in.Rn)
		if (in.Op == isa.CBZ && v == 0) || (in.Op == isa.CBNZ && v != 0) {
			a, ok := labelAddr(in.Sym)
			if !ok {
				return 0, trapf("unknown label %q", in.Sym)
			}
			branchTo(a)
			m.stats.Taken++
		}
	case isa.BL:
		a, err := symbolAddr(in.Sym)
		if err != nil {
			return 0, err
		}
		m.set(isa.LR, ci.next)
		branchTo(a)
		m.stats.Calls++
	case isa.BLR:
		m.set(isa.LR, ci.next)
		branchTo(m.get(in.Rn))
		m.stats.Calls++
	case isa.RET:
		branchTo(m.get(isa.LR))
		m.stats.Branches++
		m.stats.Taken++
	case isa.BRK:
		return 0, trapf("trap (BRK #%d)", in.Imm)
	case isa.NOP:
	default:
		return 0, trapf("unimplemented opcode %s", isa.OpName(in.Op))
	}
	return next, nil
}

func (m *Machine) condHolds(c isa.Cond) bool {
	switch c {
	case isa.EQ:
		return m.fEq
	case isa.NE:
		return !m.fEq
	case isa.LT:
		return m.fLess
	case isa.LE:
		return m.fLess || m.fEq
	case isa.GT:
		return !m.fLess && !m.fEq
	case isa.GE:
		return !m.fLess
	}
	return false
}

// runtimeCall executes the runtime entry at addr and returns the return
// address (the caller's LR).
func (m *Machine) runtimeCall(addr int64) (int64, error) {
	name := runtimeEntries[(addr-rtBase)/8]
	m.stats.RuntimeCalls++
	x0 := m.regs[isa.X0]
	switch name {
	case "swift_retain", "objc_retain":
		if n, ok := m.allocSizes[x0]; ok && n > 0 {
			m.heap[(x0-heapBase)/8]++
		}
	case "swift_release", "objc_release":
		if n, ok := m.allocSizes[x0]; ok && n > 0 {
			m.heap[(x0-heapBase)/8]--
		}
	case "swift_allocObject":
		// x0 = field count; block = [refcount, fields...]
		p, err := m.alloc(1 + x0)
		if err != nil {
			return 0, err
		}
		m.heap[(p-heapBase)/8] = 1
		m.regs[isa.X0] = p
	case "swift_allocArray":
		// x0 = length; block = [refcount, length, elems...]
		p, err := m.alloc(2 + x0)
		if err != nil {
			return 0, err
		}
		m.heap[(p-heapBase)/8] = 1
		m.heap[(p-heapBase)/8+1] = x0
		m.regs[isa.X0] = p
	case "swift_arrayAppend":
		arr, elem := x0, m.regs[isa.X1]
		n, err := m.load(arr + 8)
		if err != nil {
			return 0, prefixErr(err, "append to bad array %#x", arr)
		}
		p, err := m.alloc(2 + n + 1)
		if err != nil {
			return 0, err
		}
		base := (p - heapBase) / 8
		m.heap[base] = 1
		m.heap[base+1] = n + 1
		for i := int64(0); i < n; i++ {
			v, err := m.load(arr + 16 + 8*i)
			if err != nil {
				return 0, err
			}
			m.heap[base+2+i] = v
		}
		m.heap[base+2+n] = elem
		m.regs[isa.X0] = p
	case "print_int":
		fmt.Fprintf(&m.out, "%d\n", x0)
	case "print_bool":
		if x0 != 0 {
			m.out.WriteString("true\n")
		} else {
			m.out.WriteString("false\n")
		}
	case "print_str":
		n, err := m.load(x0)
		if err != nil {
			return 0, prefixErr(err, "print_str of bad pointer %#x", x0)
		}
		var sb strings.Builder
		for i := int64(0); i < n; i++ {
			ch, err := m.load(x0 + 8 + 8*i)
			if err != nil {
				return 0, err
			}
			sb.WriteRune(rune(ch))
		}
		m.out.WriteString(sb.String())
		m.out.WriteByte('\n')
	default:
		return 0, trapf("unknown runtime entry %q", name)
	}
	return m.regs[isa.LR], nil
}
