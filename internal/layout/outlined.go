package layout

import (
	"sort"

	"outliner/internal/isa"
	"outliner/internal/mir"
)

// outlinedOrder places every outlined function immediately after its
// heaviest static caller (the paper's §VIII direction 3: layout optimization
// on the outlined code), shortening fetch distance without a profile. Other
// functions keep their relative order. An outlined function whose heaviest
// caller is itself outlined follows that caller's anchor; several outlined
// functions on one anchor follow it in name order. Static call counts tie on
// the caller that comes first in the program.
func outlinedOrder(prog *mir.Program) []*mir.Function {
	outlined := make(map[string]bool)
	for _, f := range prog.Funcs {
		if f.Outlined {
			outlined[f.Name] = true
		}
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
			if e, ok := best[callee]; !ok || c > e.count {
				best[callee] = edge{caller: f.Name, count: c}
			}
		}
	}

	// anchorOf follows heaviest callers up to the first function that is not
	// outlined; "" when the chain ends at an uncalled outlined function or
	// loops among outlined ones.
	anchorOf := func(name string) string {
		seen := map[string]bool{}
		for outlined[name] {
			if seen[name] {
				return ""
			}
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
	var keep []*mir.Function
	for _, f := range prog.Funcs {
		a := ""
		if f.Outlined {
			a = anchorOf(f.Name)
		}
		if a == "" {
			keep = append(keep, f)
			continue
		}
		attach[a] = append(attach[a], f)
	}
	for _, fs := range attach {
		sort.Slice(fs, func(i, j int) bool { return fs[i].Name < fs[j].Name })
	}
	order := make([]*mir.Function, 0, len(prog.Funcs))
	for _, f := range keep {
		order = append(order, f)
		order = append(order, attach[f.Name]...)
	}
	return order
}
