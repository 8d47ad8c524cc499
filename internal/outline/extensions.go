package outline

import (
	"sort"

	"outliner/internal/isa"
	"outliner/internal/mir"
)

// This file implements two of the paper's "future work" directions (§VIII):
//
//  1. semantic equivalence of machine-code sequences — approximated by
//     canonicalizing commutative operations so that trivially-equivalent
//     sequences become textually equal and therefore outlinable together;
//  3. layout optimization on the outlined code — outlined functions are
//     placed next to their heaviest static caller, shortening fetch
//     distance and improving instruction-cache locality.
//
// (Direction 2, interactions with instruction scheduling and register
// assignment, is exercised indirectly: the register allocator's choices are
// what create the Listing 1-vs-2 pattern split in the first place.)

// CanonicalizeCommutative rewrites commutative ALU operations into a
// canonical operand order (lower-numbered register first). Sequences that
// differ only in the order of commutative operands then map to the same
// instruction ids in the outliner's repeat finder. Returns how many
// instructions were rewritten.
func CanonicalizeCommutative(prog *mir.Program) int {
	n := 0
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Insts {
				in := &b.Insts[i]
				switch in.Op {
				case isa.ADDrs, isa.ANDrs, isa.EORrs, isa.MUL, isa.ORRrs:
					// The ORR-based register move (Rn=XZR) must keep its
					// shape: it is the most common pattern and the zero
					// register belongs in the Rn slot.
					if in.Op == isa.ORRrs && (in.Rn == isa.XZR || in.Rm == isa.XZR) {
						if in.Rn != isa.XZR { // move written backwards
							in.Rn, in.Rm = in.Rm, in.Rn
							n++
						}
						continue
					}
					if in.Rn > in.Rm {
						in.Rn, in.Rm = in.Rm, in.Rn
						n++
					}
				}
			}
		}
	}
	return n
}

// LayoutOutlined reorders the program's functions so that every outlined
// function sits immediately after its heaviest static caller (callers
// keep their original relative order). Callees of equal weight follow the
// order they were created in, keeping the result deterministic. Returns the
// number of functions moved.
func LayoutOutlined(prog *mir.Program) int {
	// Static call counts: caller -> callee -> count (outlined callees only).
	outlined := make(map[string]bool)
	for _, f := range prog.Funcs {
		if f.Outlined {
			outlined[f.Name] = true
		}
	}
	if len(outlined) == 0 {
		return 0
	}
	type edge struct {
		caller string
		count  int
	}
	best := make(map[string]edge) // callee -> heaviest caller
	for _, f := range prog.Funcs {
		counts := make(map[string]int)
		for _, b := range f.Blocks {
			for _, in := range b.Insts {
				if (in.Op == isa.BL || in.Op == isa.B) && outlined[in.Sym] {
					counts[in.Sym]++
				}
			}
		}
		for callee, c := range counts {
			e, ok := best[callee]
			if !ok || c > e.count {
				best[callee] = edge{caller: f.Name, count: c}
			}
		}
	}

	// Group outlined functions after their anchor caller. Outlined
	// functions whose heaviest caller is itself outlined chain transitively
	// onto that caller's anchor.
	anchorOf := func(name string) string {
		seen := map[string]bool{}
		for outlined[name] && !seen[name] {
			seen[name] = true
			e, ok := best[name]
			if !ok {
				return ""
			}
			name = e.caller
		}
		return name
	}
	attach := make(map[string][]*mir.Function)
	var moved int
	var keep []*mir.Function
	for _, f := range prog.Funcs {
		if !f.Outlined {
			keep = append(keep, f)
			continue
		}
		a := anchorOf(f.Name)
		if a == "" {
			keep = append(keep, f) // unreferenced; leave in place
			continue
		}
		attach[a] = append(attach[a], f)
		moved++
	}
	for _, fs := range attach {
		sort.Slice(fs, func(i, j int) bool { return fs[i].Name < fs[j].Name })
	}
	var out []*mir.Function
	for _, f := range keep {
		out = append(out, f)
		out = append(out, attach[f.Name]...)
	}
	prog.Funcs = out
	prog.ReindexFuncs()
	return moved
}
