// Package verify is the repo's stand-in for LLVM's MachineVerifier: a static
// checker over machine programs (internal/mir) and laid-out images
// (internal/binimg) that rejects malformed machine code the moment a pass
// emits it, rather than waiting for an execution test to diverge.
//
// The paper ships repeated machine outlining to production on the strength of
// "no behavioural change"; every round rewrites hot instruction sequences in
// the whole program. The checks here encode the invariants those rewrites
// must preserve:
//
//   - stack-pointer balance: the SP delta is tracked along every path through
//     a function; it must agree at join points, be zero at every RET and
//     tail call, and SP-relative accesses inside an established frame must
//     stay inside it;
//   - BL/RET link-register discipline: a path that executes BL/BLR clobbers
//     LR and may only RET (or tail-call) after restoring the entry value from
//     the slot it was saved to — outlined thunks and plain outlined functions
//     obey their strategy's contract as a corollary;
//   - branch targets resolve to in-function labels, program functions, or
//     known external symbols; no instruction follows a terminator mid-block;
//     no fall-through off a function end;
//   - every callee and address-taken symbol referenced anywhere in the image
//     is defined in the program or is a known runtime symbol;
//   - global names are unique, and (via Image) the symbol table and section
//     sizes of the laid-out binary agree with the program.
//
// Violations carry function/PC context (code-section byte offsets, matching
// the addresses internal/binimg assigns), so a bad round is diagnosed at the
// instruction that broke, not at the output mismatch it eventually causes.
package verify

import (
	"fmt"
	"slices"
	"strings"

	"outliner/internal/isa"
	"outliner/internal/mir"
)

// Violation is one invariant failure, anchored to an instruction.
type Violation struct {
	Func  string
	Block string
	Inst  int   // instruction index within Block; -1 for function-level checks
	PC    int64 // code-section byte offset (binimg addressing), -1 if unknown
	Msg   string
}

func (v Violation) String() string {
	loc := "@" + v.Func
	if v.PC >= 0 {
		loc = fmt.Sprintf("@%s+%#x", v.Func, v.PC)
	}
	if v.Block != "" {
		loc += fmt.Sprintf(" (block %s, inst %d)", v.Block, v.Inst)
	}
	return loc + ": " + v.Msg
}

// Report is the result of verifying one program or image.
type Report struct {
	FuncsChecked int
	Violations   []Violation
}

// OK reports whether no violations were found.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Err returns nil when the report is clean, otherwise a *Error naming the
// violation count and the first few violations with function/PC context.
func (r *Report) Err() error {
	if r.OK() {
		return nil
	}
	return &Error{Report: r}
}

// Error is a failed report as a typed error: errors.As against *verify.Error
// is how the fault-tolerance layer recognizes "the verifier rejected the
// program" structurally — a diagnosed failure, never silent corruption —
// and how the outliner's rollback modes decide to shed a round.
type Error struct {
	Report *Report
}

func (e *Error) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "verify: %d violation(s): ", len(e.Report.Violations))
	for i, v := range e.Report.Violations {
		if i == 3 {
			fmt.Fprintf(&b, "; ... and %d more", len(e.Report.Violations)-i)
			break
		}
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString(v.String())
	}
	return b.String()
}

func (r *Report) addf(fn, block string, inst int, pc int64, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{
		Func: fn, Block: block, Inst: inst, PC: pc, Msg: fmt.Sprintf(format, args...),
	})
}

// Program verifies every function of prog plus program-level symbol
// invariants. externSyms lists symbols that may be referenced without a
// definition (runtime entry points; cross-module symbols during per-module
// verification).
func Program(prog *mir.Program, externSyms map[string]bool) *Report {
	fv := newFuncVerifier(prog, externSyms, true)
	fv.checkNames(true, nil)
	for fi := range prog.Funcs {
		fv.run(fi)
	}
	return fv.r
}

// Funcs verifies the functions prog.Funcs[i] for the ascending indices in
// funcs, each with every check Program applies to a function: structure,
// SP/LR dataflow, and branch, call and address targets resolved against the
// whole program's functions and globals, plus the unnamed- and
// duplicate-symbol checks for their names. It is the verifier for a pass
// that knows which functions it touched: every per-function check reads only
// the function's own instructions and whether a symbol exists, so as long as
// the pass removes and renames no function, and the rest of the program
// passed Program before it, Funcs over the touched and the added functions
// reports exactly what Program would. The global table is not re-checked.
func Funcs(prog *mir.Program, externSyms map[string]bool, funcs []int) *Report {
	fv := newFuncVerifier(prog, externSyms, false)
	fv.checkNames(false, funcs)
	for _, fi := range funcs {
		fv.run(fi)
	}
	return fv.r
}

// funcVerifier is the state of one Program or Funcs call: the report, the
// symbol tables every function is resolved against, and the tables one
// function's check needs (structure first, then the SP/LR dataflow), which
// run clears and reuses from function to function.
type funcVerifier struct {
	r       *Report
	prog    *mir.Program
	extern  map[string]bool
	globals map[string]bool
	// starts[i] is the code-section offset of prog.Funcs[i], binimg-style.
	// Only a violation needs an address, so it is built on first use.
	starts []int64

	fi     int // the function being checked
	f      *mir.Function
	labels map[string]int // block label -> block index
	// pcs[blockOff[b]+i] is the code-section offset of instruction i of block
	// b. Like starts it is built once a violation asks.
	pcs      []int64
	blockOff []int
	havePCs  bool
	// Worklist state of checkFrameDiscipline.
	in   []frameState
	have []bool
	work []int
}

func newFuncVerifier(prog *mir.Program, externSyms map[string]bool, reportGlobals bool) *funcVerifier {
	fv := &funcVerifier{
		r: &Report{}, prog: prog, extern: externSyms,
		globals: make(map[string]bool, len(prog.Globals)),
		labels:  make(map[string]int),
	}
	for _, g := range prog.Globals {
		if g.Name == "" {
			if reportGlobals {
				fv.r.addf("", "", -1, -1, "unnamed global")
			}
			continue
		}
		if reportGlobals && fv.globals[g.Name] {
			fv.r.addf("", "", -1, -1, "duplicate global %q", g.Name)
		}
		fv.globals[g.Name] = true
	}
	return fv
}

// start returns the code-section offset of function fi. The first call sizes
// every function, once.
func (fv *funcVerifier) start(fi int) int64 {
	if fv.starts == nil {
		fv.starts = make([]int64, len(fv.prog.Funcs))
		addr := int64(0)
		for i, f := range fv.prog.Funcs {
			fv.starts[i] = addr
			addr += int64(f.CodeSize())
		}
	}
	return fv.starts[fi]
}

// pc returns the code-section offset of instruction ii of block bi of the
// function being checked; ii may be one past the block's last instruction.
func (fv *funcVerifier) pc(bi, ii int) int64 {
	if !fv.havePCs {
		fv.havePCs = true
		fv.pcs, fv.blockOff = fv.pcs[:0], fv.blockOff[:0]
		pc := fv.start(fv.fi)
		for _, b := range fv.f.Blocks {
			fv.blockOff = append(fv.blockOff, len(fv.pcs))
			for _, in := range b.Insts {
				fv.pcs = append(fv.pcs, pc)
				pc += int64(in.Size())
			}
		}
		fv.pcs = append(fv.pcs, pc) // the address an empty last block has
	}
	return fv.pcs[fv.blockOff[bi]+ii]
}

// checkNames reports unnamed functions and every function whose name an
// earlier function of the program already carries — among all functions, or
// among the ascending indices in only.
func (fv *funcVerifier) checkNames(all bool, only []int) {
	seen := make(map[string]bool, len(fv.prog.Funcs))
	for fi, f := range fv.prog.Funcs {
		dup := seen[f.Name]
		seen[f.Name] = true
		if !all {
			if len(only) == 0 {
				return
			}
			if only[0] != fi {
				continue
			}
			only = only[1:]
		}
		if f.Name == "" {
			fv.r.addf("", "", -1, fv.start(fi), "unnamed function")
		}
		if dup {
			fv.r.addf(f.Name, "", -1, fv.start(fi), "duplicate function symbol")
		}
	}
}

func (fv *funcVerifier) violatef(bi, ii int, format string, args ...any) {
	block := ""
	pc := fv.start(fv.fi)
	if bi >= 0 && bi < len(fv.f.Blocks) {
		block = fv.f.Blocks[bi].Label
		if ii >= 0 && ii < len(fv.f.Blocks[bi].Insts) {
			pc = fv.pc(bi, ii)
		}
	}
	fv.r.addf(fv.f.Name, block, ii, pc, format, args...)
}

// run checks function fi.
func (fv *funcVerifier) run(fi int) {
	f := fv.prog.Funcs[fi]
	fv.fi, fv.f, fv.havePCs = fi, f, false
	fv.r.FuncsChecked++
	clear(fv.labels)
	for bi, b := range f.Blocks {
		if b.Label == "" {
			fv.r.addf(f.Name, "", -1, fv.pc(bi, 0), "unnamed block")
		}
		if _, dup := fv.labels[b.Label]; dup {
			fv.r.addf(f.Name, b.Label, -1, fv.pc(bi, 0), "duplicate block label")
		}
		fv.labels[b.Label] = bi
	}

	structureOK := fv.checkStructure()
	if f.Outlined && len(f.Blocks) != 1 {
		fv.violatef(0, -1, "outlined function has %d blocks, want a single straight-line block", len(f.Blocks))
	}
	// The dataflow walk needs resolvable branch targets and terminator
	// discipline; skip it when structure is already broken.
	if structureOK && len(f.Blocks) > 0 {
		fv.checkFrameDiscipline()
	}
}

// checkStructure enforces the block-shape invariants: terminators only as a
// trailing run, resolvable branch/call/address targets, and no fall-through
// off the end of the function.
func (fv *funcVerifier) checkStructure() bool {
	f := fv.f
	before := len(fv.r.Violations)
	for bi, b := range f.Blocks {
		seenTerm := false
		for ii, in := range b.Insts {
			if in.Op == isa.BAD || in.Op >= isa.NumOps {
				fv.violatef(bi, ii, "bad opcode %d", in.Op)
				continue
			}
			if seenTerm && !in.IsTerminator() {
				fv.violatef(bi, ii, "instruction %s after terminator", in)
			}
			if in.IsTerminator() {
				seenTerm = true
			}
			switch in.Op {
			case isa.B:
				// Intra-function branch or tail call.
				if _, ok := fv.labels[in.Sym]; !ok && fv.prog.Func(in.Sym) == nil && !fv.extern[in.Sym] {
					fv.violatef(bi, ii, "branch to unknown label or symbol %q", in.Sym)
				}
			case isa.Bcc, isa.CBZ, isa.CBNZ:
				if _, ok := fv.labels[in.Sym]; !ok {
					fv.violatef(bi, ii, "conditional branch to unknown label %q", in.Sym)
				}
			case isa.BL:
				if fv.prog.Func(in.Sym) == nil && !fv.extern[in.Sym] {
					fv.violatef(bi, ii, "call to undefined symbol %q", in.Sym)
				}
			case isa.ADR:
				if !fv.globals[in.Sym] && fv.prog.Func(in.Sym) == nil && !fv.extern[in.Sym] {
					fv.violatef(bi, ii, "address of unknown symbol %q", in.Sym)
				}
			}
		}
		if bi == len(f.Blocks)-1 {
			if len(b.Insts) == 0 || !b.Insts[len(b.Insts)-1].IsTerminator() {
				fv.violatef(bi, len(b.Insts)-1, "control falls through off the end of the function")
			}
		}
	}
	return len(fv.r.Violations) == before
}

// frameState is the abstract machine state the SP/LR dataflow tracks at a
// block boundary.
type frameState struct {
	delta int64 // SP relative to function entry (<= 0 inside a frame)
	// lrEntry: LR provably holds the function's entry value (the caller's
	// return address). Calls clobber it; reloading from a slot the entry
	// value was spilled to re-establishes it. Caller-side spills of an
	// already-clobbered LR (the outliner's STRXpre/BL/LDRXpost bracket)
	// save and restore a non-entry value, which is fine — the bracket's
	// reload just does not make LR entry-valid again.
	lrEntry bool
	// entrySlots holds the entry-SP-relative stack offsets currently storing
	// the entry LR value, sorted and distinct; nil and empty are both "no
	// slots". A set is never written once a state holds it: withSlot and
	// withoutSlot build a new one, so states at different blocks share sets
	// freely.
	entrySlots []int64
}

func (s frameState) slotHasEntry(off int64) bool {
	_, ok := slices.BinarySearch(s.entrySlots, off)
	return ok
}

// withSlot returns a state whose entrySlots include off (copy-on-write).
func (s frameState) withSlot(off int64) frameState {
	i, ok := slices.BinarySearch(s.entrySlots, off)
	if ok {
		return s
	}
	ns := make([]int64, len(s.entrySlots)+1)
	copy(ns, s.entrySlots[:i])
	ns[i] = off
	copy(ns[i+1:], s.entrySlots[i:])
	s.entrySlots = ns
	return s
}

// withoutSlot returns a state whose entrySlots exclude off (a store of
// anything other than the entry LR overwrote it).
func (s frameState) withoutSlot(off int64) frameState {
	i, ok := slices.BinarySearch(s.entrySlots, off)
	if !ok {
		return s
	}
	s.entrySlots = slices.Delete(slices.Clone(s.entrySlots), i, i+1)
	return s
}

// merge meets two states flowing into the same block. The second result is
// false when the stack depths disagree (a hard violation at the join);
// otherwise entry-LR facts intersect. When every slot of s is also in o the
// result keeps s's own set; a new set is built only when a fact is lost.
func (s frameState) merge(o frameState) (frameState, bool) {
	if s.delta != o.delta {
		return s, false
	}
	out := s
	out.lrEntry = s.lrEntry && o.lrEntry
	for _, k := range s.entrySlots {
		if !o.slotHasEntry(k) {
			out.entrySlots = nil
			for _, slot := range s.entrySlots {
				if o.slotHasEntry(slot) {
					out.entrySlots = append(out.entrySlots, slot)
				}
			}
			break
		}
	}
	return out, true
}

// equal reports whether two states carry the same facts.
func (s frameState) equal(o frameState) bool {
	return s.delta == o.delta && s.lrEntry == o.lrEntry && slices.Equal(s.entrySlots, o.entrySlots)
}

// checkFrameDiscipline walks the CFG tracking the SP delta and the LR state.
func (fv *funcVerifier) checkFrameDiscipline() {
	f := fv.f
	in := append(fv.in[:0], make([]frameState, len(f.Blocks))...)
	have := append(fv.have[:0], make([]bool, len(f.Blocks))...)
	in[0] = frameState{lrEntry: true}
	have[0] = true
	work := append(fv.work[:0], 0)
	fv.in, fv.have = in, have

	flow := func(bi int, st frameState, target string, ii int) {
		ti, ok := fv.labels[target]
		if !ok {
			return // tail call; checked at the branch site
		}
		if !have[ti] {
			in[ti], have[ti] = st, true
			work = append(work, ti)
			return
		}
		merged, ok := in[ti].merge(st)
		if !ok {
			fv.violatef(bi, ii, "stack depth disagrees at join %q: %d here vs %d on another path",
				target, st.delta, in[ti].delta)
			return
		}
		if !merged.equal(in[ti]) {
			in[ti] = merged
			work = append(work, ti)
		}
	}

	for len(work) > 0 {
		bi := work[len(work)-1]
		work = work[:len(work)-1]
		st := in[bi]
		b := f.Blocks[bi]
		terminated := false
		for ii, inst := range b.Insts {
			st = fv.stepFrame(bi, ii, inst, st)
			switch inst.Op {
			case isa.RET:
				if st.delta != 0 {
					fv.violatef(bi, ii, "RET with unbalanced stack pointer: SP is %+d bytes from entry", st.delta)
				}
				if !st.lrEntry {
					fv.violatef(bi, ii, "RET with clobbered link register (entry value not restored after BL)")
				}
				terminated = true
			case isa.B:
				if _, intra := fv.labels[inst.Sym]; intra {
					flow(bi, st, inst.Sym, ii)
				} else {
					// Tail call leaves the frame: same contract as RET.
					if st.delta != 0 {
						fv.violatef(bi, ii, "tail call to %q with unbalanced stack pointer: SP is %+d bytes from entry", inst.Sym, st.delta)
					}
					if !st.lrEntry {
						fv.violatef(bi, ii, "tail call to %q with clobbered link register", inst.Sym)
					}
				}
				terminated = true
			case isa.Bcc, isa.CBZ, isa.CBNZ:
				flow(bi, st, inst.Sym, ii)
			case isa.BRK:
				terminated = true
			}
			if terminated {
				break
			}
		}
		if !terminated && bi+1 < len(f.Blocks) {
			flow(bi, st, f.Blocks[bi+1].Label, len(b.Insts)-1)
		}
	}
	fv.work = work
}

// stepFrame applies one instruction's effect on the frame state, reporting
// violations for SP misuse and out-of-frame accesses.
func (fv *funcVerifier) stepFrame(bi, ii int, in isa.Inst, st frameState) frameState {
	// SP-relative memory access bounds: once a frame is established
	// (delta < 0), plain loads/stores through SP must stay inside it.
	// At delta 0 an access reaches the caller's frame, which is exactly
	// the contract of outlined functions (they borrow the original frame).
	checkBounds := func(off int64, size int64) {
		if st.delta >= 0 {
			return
		}
		if off < 0 || off+size > -st.delta {
			fv.violatef(bi, ii, "SP-relative access [sp+%d, %d bytes] escapes the %d-byte frame",
				off, size, -st.delta)
		}
	}
	// store records a write of register r to the entry-SP-relative offset:
	// storing LR while it still holds the entry value marks the slot; any
	// other store invalidates whatever the slot held.
	store := func(r isa.Reg, off int64) {
		if r == isa.LR && st.lrEntry {
			st = st.withSlot(off)
		} else {
			st = st.withoutSlot(off)
		}
	}
	// loadLR models a reload of LR from the entry-SP-relative offset: entry
	// validity comes back only from a slot known to hold the entry value.
	loadLR := func(off int64) { st.lrEntry = st.slotHasEntry(off) }

	switch in.Op {
	case isa.STPpre:
		if in.Rn == isa.SP {
			st.delta += in.Imm // Imm is negative
			store(in.Rd, st.delta)
			store(in.Rd2, st.delta+8)
		}
	case isa.STRpre:
		if in.Rn == isa.SP {
			st.delta += in.Imm
			store(in.Rd, st.delta)
		}
	case isa.LDPpost:
		if in.Rn == isa.SP {
			if in.Rd == isa.LR {
				loadLR(st.delta)
			}
			if in.Rd2 == isa.LR {
				loadLR(st.delta + 8)
			}
			st.delta += in.Imm
			if st.delta > 0 {
				fv.violatef(bi, ii, "stack pop raises SP %+d bytes above the function entry value", st.delta)
			}
		} else if in.Rd == isa.LR || in.Rd2 == isa.LR {
			st.lrEntry = false
		}
	case isa.LDRpost:
		if in.Rn == isa.SP {
			if in.Rd == isa.LR {
				loadLR(st.delta)
			}
			st.delta += in.Imm
			if st.delta > 0 {
				fv.violatef(bi, ii, "stack pop raises SP %+d bytes above the function entry value", st.delta)
			}
		} else if in.Rd == isa.LR {
			st.lrEntry = false
		}
	case isa.STPui:
		if in.Rn == isa.SP {
			checkBounds(in.Imm, 16)
			store(in.Rd, st.delta+in.Imm)
			store(in.Rd2, st.delta+in.Imm+8)
		}
	case isa.STRui:
		if in.Rn == isa.SP {
			checkBounds(in.Imm, 8)
			store(in.Rd, st.delta+in.Imm)
		}
	case isa.LDPui:
		if in.Rn == isa.SP {
			checkBounds(in.Imm, 16)
			if in.Rd == isa.LR {
				loadLR(st.delta + in.Imm)
			}
			if in.Rd2 == isa.LR {
				loadLR(st.delta + in.Imm + 8)
			}
		} else if in.Rd == isa.LR || in.Rd2 == isa.LR {
			st.lrEntry = false
		}
	case isa.LDRui:
		if in.Rn == isa.SP {
			checkBounds(in.Imm, 8)
			if in.Rd == isa.LR {
				loadLR(st.delta + in.Imm)
			}
		} else if in.Rd == isa.LR {
			st.lrEntry = false
		}
	case isa.ADDri, isa.SUBri:
		if in.Rd == isa.SP {
			if in.Rn != isa.SP {
				fv.violatef(bi, ii, "SP assigned from non-SP register %s", in.Rn)
			} else if in.Op == isa.ADDri {
				st.delta += in.Imm
			} else {
				st.delta -= in.Imm
			}
			if st.delta > 0 {
				fv.violatef(bi, ii, "SP adjusted %+d bytes above the function entry value", st.delta)
			}
		}
	case isa.BL, isa.BLR:
		st.lrEntry = false
	default:
		// Any other write to SP or LR is outside the verifier's model.
		defs := in.DefMask()
		if defs&(1<<isa.SP) != 0 {
			fv.violatef(bi, ii, "unmodeled write to SP by %s", in)
		}
		if defs&(1<<isa.LR) != 0 {
			st.lrEntry = false
		}
	}
	return st
}
