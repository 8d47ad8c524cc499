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

// mapProgram flattens prog. Outlined functions from earlier rounds are
// included: that inclusion is what lets round N outline the bodies of
// round N-1's functions (and call sites referring to them), producing the
// cascade the paper's Figure 11 illustrates.
func mapProgram(prog *mir.Program) (*mapping, error) {
	m := &mapping{}
	if err := m.remap(prog); err != nil {
		return nil, err
	}
	return m, nil
}

// remap rebuilds the flattened view in place, reusing str/locs storage and
// the persistent intern table from the previous round. The storage is sized
// from the program's instruction count (one symbol per instruction plus one
// sentinel per block) the first time, and rounds only shrink the program, so
// neither slice ever regrows. It fails only on a program too large to address.
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
