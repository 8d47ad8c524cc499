package mir

import (
	"outliner/internal/isa"
	"outliner/internal/par"
)

// RegSet is a bitset over machine registers plus the NZCV flags.
type RegSet uint64

const flagsBit = 63 // NZCV flags live in the top bit

// Add returns s with r added.
func (s RegSet) Add(r isa.Reg) RegSet {
	if r == isa.NoReg || r == isa.XZR {
		return s
	}
	return s | 1<<uint(r)
}

// Remove returns s with r removed.
func (s RegSet) Remove(r isa.Reg) RegSet {
	if r == isa.NoReg || r == isa.XZR {
		return s
	}
	return s &^ (1 << uint(r))
}

// Has reports whether r is in s.
func (s RegSet) Has(r isa.Reg) bool {
	if r == isa.NoReg || r == isa.XZR {
		return false
	}
	return s&(1<<uint(r)) != 0
}

// AddFlags / RemoveFlags / HasFlags track NZCV liveness.
func (s RegSet) AddFlags() RegSet    { return s | 1<<flagsBit }
func (s RegSet) RemoveFlags() RegSet { return s &^ (1 << flagsBit) }
func (s RegSet) HasFlags() bool      { return s&(1<<flagsBit) != 0 }

// Union returns s ∪ t.
func (s RegSet) Union(t RegSet) RegSet { return s | t }

// callerSaved is the set a call clobbers: X0..X17 plus LR and flags are not
// guaranteed preserved. (Flags actually survive BL on AArch64, but treating
// them as clobbered is conservative and matches how little our codegen keeps
// flags live across calls.)
var callerSaved = func() RegSet {
	var s RegSet
	for r := isa.X0; r <= isa.X17; r++ {
		s = s.Add(r)
	}
	s = s.Add(isa.LR)
	return s
}()

// callUses is the conservative set of registers a call may read: all
// argument registers plus the indirect target.
var callUses = func() RegSet {
	var s RegSet
	for i := 0; i < isa.NumArgRegs; i++ {
		s = s.Add(isa.ArgReg(i))
	}
	return s
}()

// Liveness holds the result of a backward liveness analysis over one
// function: for every instruction, the set of registers live *after* it
// executes. The outliner consults it to decide whether the link register is
// free at a candidate (the no-LR-save strategy) — the "up-to-date liveness
// information" the paper says repeated outlining must maintain.
type Liveness struct {
	// LiveAfter[b][i] is the live-out set of instruction i of block b.
	LiveAfter [][]RegSet
}

// ComputeLiveness runs backward dataflow to a fixed point over f.
// externLive is the set assumed live at every function exit (typically the
// callee-saved registers plus the result register).
//
// Labels are resolved to block indices once, up front; the fixed point and
// the per-instruction sweep then run on integers and register masks only, and
// every table is one slice for the whole function: the analysis allocates a
// fixed number of times per function, never per block or per instruction.
func ComputeLiveness(f *Function, externLive RegSet) *Liveness {
	n := len(f.Blocks)
	blockIdx := make(map[string]int, n)
	for i, b := range f.Blocks {
		blockIdx[b.Label] = i
	}
	sets := make([]RegSet, 3*n)
	liveIn, liveOut := sets[:n], sets[n:2*n]
	// exitLive[i] is what block i contributes from leaving the function
	// (zero when control cannot leave from it).
	exitLive := sets[2*n:]

	// Successor lists in one flat slice: block i's are succs[succOff[i]:succOff[i+1]].
	succOff := make([]int32, n+1)
	succs := make([]int32, 0, 2*n)
	total := 0
	for i, b := range f.Blocks {
		total += len(b.Insts)
		succOff[i] = int32(len(succs))
		for j := range b.Insts {
			in := &b.Insts[j]
			if !in.IsTerminator() || in.Op == isa.RET || in.Op == isa.BRK {
				continue
			}
			if t, ok := blockIdx[in.Sym]; ok {
				succs = append(succs, int32(t))
			}
		}
		// Fallthrough to the next block when not ended by an unconditional
		// transfer.
		if i+1 < n && !endsUnconditional(b) {
			succs = append(succs, int32(i+1))
		}
		if exits(b, blockIdx, i == n-1) {
			exitLive[i] = externLive
			// A tail call returns through the caller's LR, so LR is
			// live at the exit point.
			if insts := b.Insts; len(insts) > 0 && insts[len(insts)-1].Op == isa.B {
				exitLive[i] = externLive.Add(isa.LR).Union(callUses)
			}
		}
	}
	succOff[n] = int32(len(succs))

	changed := true
	for changed {
		changed = false
		for i := n - 1; i >= 0; i-- {
			out := exitLive[i]
			for _, s := range succs[succOff[i]:succOff[i+1]] {
				out = out.Union(liveIn[s])
			}
			in := transferBlock(f.Blocks[i], out)
			if out != liveOut[i] || in != liveIn[i] {
				liveOut[i], liveIn[i] = out, in
				changed = true
			}
		}
	}

	// One slab for every row: LiveAfter[i] is a window into it.
	lv := &Liveness{LiveAfter: make([][]RegSet, n)}
	slab := make([]RegSet, total)
	for i, b := range f.Blocks {
		row := slab[:len(b.Insts):len(b.Insts)]
		slab = slab[len(b.Insts):]
		live := liveOut[i]
		for j := len(b.Insts) - 1; j >= 0; j-- {
			row[j] = live
			live = step(&b.Insts[j], live)
		}
		lv.LiveAfter[i] = row
	}
	return lv
}

// ComputeLivenessFuncs fills live (one entry per function of prog) using at
// most parallelism workers (0 = one per CPU, 1 = serial): entry i is computed
// when want(i) is true and live[i] is still nil; every other entry is left as
// it is, so a caller that knows a function is unchanged keeps its analysis.
// Each function's analysis is independent, so the result is identical for
// any worker count.
func ComputeLivenessFuncs(prog *Program, externLive RegSet, parallelism int, live []*Liveness, want func(i int) bool) {
	for _, err := range par.Run(nil, "", parallelism, len(prog.Funcs), false, func(_, i int) error {
		if live[i] == nil && want(i) {
			live[i] = ComputeLiveness(prog.Funcs[i], externLive)
		}
		return nil
	}) {
		if err != nil {
			panic(err) // a recovered worker panic, re-raised for the build's recovery boundary
		}
	}
}

func endsUnconditional(b *Block) bool {
	if len(b.Insts) == 0 {
		return false
	}
	switch b.Insts[len(b.Insts)-1].Op {
	case isa.B, isa.RET, isa.BRK:
		return true
	}
	return false
}

// exits reports whether control can leave the function from this block:
// return, trap, a tail-call B whose target is not a local label, or running
// off the end of the last block.
func exits(b *Block, blockIdx map[string]int, last bool) bool {
	if len(b.Insts) == 0 {
		return last
	}
	term := b.Insts[len(b.Insts)-1]
	switch term.Op {
	case isa.RET, isa.BRK:
		return true
	case isa.B:
		_, local := blockIdx[term.Sym]
		return !local
	}
	return last && !endsUnconditional(b)
}

func transferBlock(b *Block, live RegSet) RegSet {
	for j := len(b.Insts) - 1; j >= 0; j-- {
		live = step(&b.Insts[j], live)
	}
	return live
}

// step computes live-before from live-after for one instruction, from the
// instruction's def/use masks (isa.Inst.DefMask/UseMask share RegSet's bit
// layout: bit r is register r, and neither ever carries XZR or NoReg).
func step(in *isa.Inst, live RegSet) RegSet {
	if in.IsCall() {
		live &^= callerSaved
		live = live.RemoveFlags()
		live = live.Union(callUses)
	}
	live &^= RegSet(in.DefMask())
	if in.SetsFlags() {
		live = live.RemoveFlags()
	}
	live |= RegSet(in.UseMask())
	if in.ReadsFlags() {
		live = live.AddFlags()
	}
	return live
}

// LRLiveAfter reports whether the link register is live immediately after
// instruction i of block b — i.e. whether a BL inserted *after* position i
// would clobber a value that is still needed.
func (lv *Liveness) LRLiveAfter(b, i int) bool {
	return lv.LiveAfter[b][i].Has(isa.LR)
}

// DefaultExternLive is the live-out assumption at function exits: result
// register X0 plus all callee-saved registers (which the caller expects
// preserved).
var DefaultExternLive = func() RegSet {
	s := RegSet(0).Add(isa.X0)
	for r := isa.FirstCalleeSaved; r <= isa.LastCalleeSaved; r++ {
		s = s.Add(r)
	}
	s = s.Add(isa.FP)
	s = s.Add(isa.SP)
	return s
}()
