// Package outline implements whole-program machine-code outlining — the
// paper's primary contribution. It mirrors LLVM's MachineOutliner pass
// structure (instruction mapper → repeat finder → candidate cost model →
// greedy selection → function creation) and adds the paper's extension:
// repeated machine outlining, in which the whole pass re-runs over its own
// output so that lengthier candidates whose substrings were already outlined
// are reconsidered rather than discarded.
package outline

import (
	"fmt"
	"math"

	"outliner/internal/isa"
	"outliner/internal/mir"
)

// loc addresses one instruction inside a program. There is one per symbol of
// the flattened program, so it is kept to three int32 (like the repeat
// finder's positions); remap checks once per function that the indices fit.
type loc struct {
	fn    int32 // index into prog.Funcs
	block int32 // index into fn.Blocks
	inst  int32 // index into block.Insts
}

// checkLocRange reports whether function fi, with nBlocks blocks of at most
// maxInsts instructions, can be addressed by a loc.
func checkLocRange(name string, fi, nBlocks, maxInsts int) error {
	if fi > math.MaxInt32 || nBlocks > math.MaxInt32 || maxInsts > math.MaxInt32 {
		return fmt.Errorf("outline: @%s (function %d: %d blocks, longest %d instructions) exceeds the outliner's 2^31 addressing range",
			name, fi, nBlocks, maxInsts)
	}
	return nil
}

// checkSymbolCount reports whether a program that flattens to n symbols can
// be addressed: positions in the flattened string are int32 in the repeat
// finder, in candidate and in posSum.
func checkSymbolCount(n int) error {
	if n > math.MaxInt32 {
		return fmt.Errorf("outline: program (%d symbols flattened) exceeds the outliner's 2^31 addressing range", n)
	}
	return nil
}

// mapping is the flattened view of a program that the repeat finder consumes:
// one integer symbol per instruction, where identical outlinable instructions
// share a symbol and illegal instructions/block boundaries get unique
// negative sentinels so they can never participate in a repeat.
type mapping struct {
	str  []int
	locs []loc // aligned with str; sentinel entries hold fn == -1

	// sums[p] counts, over str[:p], the instruction properties buildSet asks
	// of a candidate, so any substring answers in two reads. buildSums fills
	// it; remap leaves it stale.
	sums []posSum
	// symProps is buildSums's per-symbol scratch, aligned with insts.
	symProps []posSum
	// lr[p] reports whether the link register is live after the instruction
	// at p: the one liveness fact the cost model reads. At a block's sentinel
	// it holds the block's live-in. buildLR fills it; remap leaves it stale.
	lr     []bool
	lrLive LRLiveness

	// insts holds the canonical instruction for each non-negative symbol.
	insts []isa.Inst
	// idByInst interns instructions to symbols. It persists across remap
	// calls together with insts: an instruction keeps its symbol from round
	// to round, so repeated outlining rounds skip re-interning the (mostly
	// unchanged) program. Symbol values don't matter to the repeat finder —
	// only equality does — and interning order stays deterministic.
	idByInst map[isa.Inst]int
}

// legalForOutlining reports whether the mapper may give in a shared symbol.
// The rules reproduce the AArch64 target hooks in LLVM:
//
//   - branches and traps never move (they end blocks anyway),
//   - RET is allowed (the tail-call strategy outlines returning sequences),
//   - instructions that modify SP (frame setup/destruction, the very
//     STP/LDP sequences of the paper's Listings 7-8) must stay put,
//   - instructions that explicitly read or write LR must stay put because
//     every outlining strategy repurposes LR.
func legalForOutlining(in isa.Inst) bool {
	switch in.Op {
	case isa.B, isa.Bcc, isa.CBZ, isa.CBNZ, isa.BRK, isa.BAD, isa.NOP:
		return false
	}
	if in.ModifiesSP() {
		return false
	}
	if in.UsesLR() {
		return false
	}
	return true
}

// remap flattens prog in place, reusing str/locs storage and the persistent
// intern table from the previous round. Outlined functions from earlier
// rounds are included: that inclusion is what lets round N outline the
// bodies of round N-1's functions (and call sites referring to them),
// producing the cascade the paper's Figure 11 illustrates. The storage is
// sized from the program's instruction count (one symbol per instruction plus
// one sentinel per block) the first time, and rounds only shrink the program,
// so neither slice ever regrows. It fails only on a program too large to
// address.
func (m *mapping) remap(prog *mir.Program) error {
	symbols := 0
	for fi, f := range prog.Funcs {
		longest := 0
		for _, b := range f.Blocks {
			symbols += len(b.Insts) + 1
			longest = max(longest, len(b.Insts))
		}
		if err := checkLocRange(f.Name, fi, len(f.Blocks), longest); err != nil {
			return err
		}
	}
	if err := checkSymbolCount(symbols); err != nil {
		return err
	}
	if cap(m.str) < symbols {
		m.str = make([]int, 0, symbols)
	}
	if cap(m.locs) < symbols {
		m.locs = make([]loc, 0, symbols)
	}
	m.str = m.str[:0]
	m.locs = m.locs[:0]
	if m.idByInst == nil {
		m.idByInst = make(map[isa.Inst]int)
	}
	sentinel := -1
	for fi, f := range prog.Funcs {
		for bi, b := range f.Blocks {
			for ii, in := range b.Insts {
				l := loc{fn: int32(fi), block: int32(bi), inst: int32(ii)}
				if legalForOutlining(in) {
					id, ok := m.idByInst[in]
					if !ok {
						id = len(m.insts)
						m.idByInst[in] = id
						m.insts = append(m.insts, in)
					}
					m.str = append(m.str, id)
					m.locs = append(m.locs, l)
				} else {
					m.str = append(m.str, sentinel)
					m.locs = append(m.locs, l)
					sentinel--
				}
			}
			// Block boundary sentinel: repeats never span blocks.
			m.str = append(m.str, sentinel)
			m.locs = append(m.locs, loc{fn: -1})
			sentinel--
		}
	}
	return nil
}

// posSum is one entry of mapping.sums: the code bytes before a position, and
// how many of the instructions before it depend on SP pointing at the frame
// of the function they sit in, and how many are calls. The counts are bounded
// by the string length, which remap limits to int32; bytes may wrap
// on a program past 2 GiB of code, and the difference of two entries — all
// that is ever read — is still exact for any sequence shorter than that.
type posSum struct {
	bytes, sp, call int32
}

// buildSums rebuilds sums for the current str. Each interned instruction is
// classified once — in particular a B/BL is looked up in spSensitive (see
// spSensitiveFuncs) once per symbol, not once per occurrence — and the
// classes are then summed along the string. The set of SP-sensitive callees
// changes from round to round, so the table is rebuilt every round. Sentinel
// positions count nothing: no candidate contains one.
func (m *mapping) buildSums(spSensitive map[string]bool) {
	props := m.symProps[:0]
	for _, in := range m.insts {
		p := posSum{bytes: int32(in.Size())}
		if in.ReadsSP() || ((in.Op == isa.BL || in.Op == isa.B) && spSensitive[in.Sym]) {
			p.sp = 1
		}
		if in.IsCall() {
			p.call = 1
		}
		props = append(props, p)
	}
	m.symProps = props
	if cap(m.sums) < len(m.str)+1 {
		m.sums = make([]posSum, 0, cap(m.str)+1)
	}
	sums := m.sums[:len(m.str)+1]
	var run posSum
	for p, id := range m.str {
		sums[p] = run
		if id >= 0 {
			sp := props[id]
			run.bytes += sp.bytes
			run.sp += sp.sp
			run.call += sp.call
		}
	}
	sums[len(m.str)] = run
	m.sums = sums
}

// between returns the property counts of str[start:end).
func (m *mapping) between(start, end int) posSum {
	a, b := m.sums[start], m.sums[end]
	return posSum{bytes: b.bytes - a.bytes, sp: b.sp - a.sp, call: b.call - a.call}
}

// buildLR rewrites lr from prog as it stands, one function after another.
// Nothing is carried from an earlier round: every slot of every function is
// written again, and nothing is allocated once lr has the string's capacity
// and m.lrLive has seen the largest function.
func (m *mapping) buildLR(prog *mir.Program) {
	if cap(m.lr) < len(m.str) {
		m.lr = make([]bool, cap(m.str))
	}
	lr := m.lr[:len(m.str)]
	p := 0
	for _, f := range prog.Funcs {
		p += len(m.lrLive.After(lr[p:], f))
	}
	m.lr = lr
}

// LRLiveness computes, function by function, whether the link register is
// live after each instruction. It keeps its label index and successor lists
// from one function to the next, so once it has seen the largest function it
// allocates nothing. The zero value is ready to use; it is not safe for
// concurrent use.
type LRLiveness struct {
	slots   map[string]int32 // block label -> the block's slot, for the function in hand
	ends    []int32          // by block: its slot
	succOff []int32          // block i's successors are succs[succOff[i]:succOff[i+1]]
	succs   []int32          // successor slots; tailCall for a tail call
}

// tailCall stands in a block's successor list for leaving by a tail call,
// after which LR is live.
const tailCall = -1

// After reports, for every instruction of f, whether LR is live after it, in
// the coordinates of the outliner's flattened string: each block's
// instructions in order, then one slot for the block (holding whether LR is
// live on entry to it). The result reuses dst's storage when it has the
// capacity.
//
// It is the backward liveness dataflow restricted to LR, with the rules of
// full-register liveness: a call kills LR, a write of x30 kills it, a read
// (RET, a spill of x30) makes it live; a tail call (B to a label that is not
// the function's) leaves with LR live, while RET, BRK and running off the last
// block leave with it dead. Read backwards, a block is either a constant (its
// first instruction from the top that reads or kills LR decides) or the
// identity, so the fixed point iterates one bit per block, kept in the block's
// slot, and one backward sweep per block then writes the instruction bits.
// During the fixed point, an identity block's first instruction slot marks it
// as one. The passes alternate direction: most branches go forward and
// liveness flows backward along them, but along a chain of joins that branch
// back towards one early return (an else-if chain's) it flows forward, and
// backward-only passes would need one pass per link of the chain.
func (l *LRLiveness) After(dst []bool, f *mir.Function) []bool {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Insts) + 1
	}
	if cap(dst) < n {
		dst = make([]bool, n)
	}
	if l.slots == nil {
		l.slots = make(map[string]int32)
	}
	lr, blocks, ends := dst[:n], f.Blocks, l.ends[:0]
	p := 0
	for _, b := range blocks {
		end := p + len(b.Insts)
		ends = append(ends, int32(end))
		l.slots[b.Label] = int32(end) // a duplicated label resolves to its last block
		live, ident := false, true
		for j := range b.Insts {
			if fixed, v := lrStep(&b.Insts[j]); fixed {
				live, ident = v, false
				break
			}
		}
		if end > p {
			lr[p] = ident
		}
		lr[end] = live
		p = end + 1
	}
	l.ends = ends
	l.successors(blocks)
	for pass, changed := 0, true; changed; pass++ {
		changed = false
		for k := range blocks {
			i := k
			if pass%2 == 0 {
				i = len(blocks) - 1 - k
			}
			end := int(ends[i])
			if start := end - len(blocks[i].Insts); start == end || lr[start] {
				if out := l.out(lr, i); out != lr[end] {
					lr[end], changed = out, true
				}
			}
		}
	}
	for i, b := range blocks {
		live, start := l.out(lr, i), int(ends[i])-len(b.Insts)
		for j := len(b.Insts) - 1; j >= 0; j-- {
			lr[start+j] = live
			if fixed, v := lrStep(&b.Insts[j]); fixed {
				live = v
			}
		}
	}
	for _, b := range blocks {
		delete(l.slots, b.Label)
	}
	return lr
}

// successors lists every block's successor slots: its branch targets in the
// function, tailCall for a final B out of it, and the next block when it can
// fall through. l.slots must hold the function's labels.
func (l *LRLiveness) successors(blocks []*mir.Block) {
	off, succs := l.succOff[:0], l.succs[:0]
	for i, b := range blocks {
		off = append(off, int32(len(succs)))
		for j := range b.Insts {
			in := &b.Insts[j]
			switch in.Op {
			case isa.B, isa.Bcc, isa.CBZ, isa.CBNZ:
			default:
				continue
			}
			if s, local := l.slots[in.Sym]; local {
				succs = append(succs, s)
			} else if in.Op == isa.B && j == len(b.Insts)-1 {
				succs = append(succs, tailCall)
			}
		}
		if i+1 < len(blocks) && (len(b.Insts) == 0 || !endsUnconditional(b.Insts[len(b.Insts)-1].Op)) {
			succs = append(succs, l.ends[i+1])
		}
	}
	l.succOff, l.succs = append(off, int32(len(succs))), succs
}

// out reports whether LR is live on leaving block i: live into a successor,
// or leaving by a tail call.
func (l *LRLiveness) out(lr []bool, i int) bool {
	for _, s := range l.succs[l.succOff[i]:l.succOff[i+1]] {
		if s == tailCall || lr[s] {
			return true
		}
	}
	return false
}

// lrStep is what in does to LR, read backwards: fixed when LR's liveness
// before in does not depend on what follows, and then live tells which.
func lrStep(in *isa.Inst) (fixed, live bool) {
	const lr = uint64(1) << isa.LR
	switch {
	case in.UseMask()&lr != 0:
		return true, true
	case in.IsCall() || in.DefMask()&lr != 0:
		return true, false
	}
	return false, false
}

// endsUnconditional reports whether a block ending in op never falls through.
func endsUnconditional(op isa.Op) bool {
	return op == isa.B || op == isa.RET || op == isa.BRK
}

// instsAt returns the instruction sequence covered by [start, start+n) of
// the flattened string. All positions are guaranteed to sit inside one block
// (sentinels separate blocks), so this indexes a contiguous instruction run.
func (m *mapping) instsAt(prog *mir.Program, start, n int) []isa.Inst {
	l := m.locs[start]
	b := prog.Funcs[l.fn].Blocks[l.block]
	return b.Insts[l.inst : int(l.inst)+n]
}

// spSensitiveFuncs computes, for repeated rounds, which outlined functions
// access their *caller's* stack frame through SP. Outlined functions have no
// frame of their own: their SP-relative instructions implicitly assume SP
// still points at the original site's frame. The property propagates through
// calls and tail calls between outlined functions.
//
// A candidate that calls such a function must be treated exactly like a
// candidate containing a direct SP access: outlining it with any strategy
// that moves SP first (LR spills at the call site, or an LR-preserving frame
// inside the new function) would make the callee scribble on the wrong
// frame. Round one never needs this (no outlined functions exist yet);
// missing it in later rounds corrupts saved registers — found the hard way
// by executing the synthetic app.
func spSensitiveFuncs(prog *mir.Program) map[string]bool {
	sensitive := make(map[string]bool)
	// Direct SP access.
	for _, f := range prog.Funcs {
		if !f.Outlined {
			continue
		}
		for _, b := range f.Blocks {
			for _, in := range b.Insts {
				if in.ReadsSP() || in.ModifiesSP() {
					sensitive[f.Name] = true
				}
			}
		}
	}
	// Propagate through BL/B edges between outlined functions.
	for changed := true; changed; {
		changed = false
		for _, f := range prog.Funcs {
			if !f.Outlined || sensitive[f.Name] {
				continue
			}
			for _, b := range f.Blocks {
				for _, in := range b.Insts {
					if (in.Op == isa.BL || in.Op == isa.B) && sensitive[in.Sym] {
						sensitive[f.Name] = true
						changed = true
					}
				}
			}
		}
	}
	return sensitive
}
