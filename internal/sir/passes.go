package sir

import (
	"fmt"
	"sort"
	"strings"
)

// ---- SIL outlining (Table I row 2) ----
//
// Swift's SILOptimizer "Outlining" pass replaces well-known inlined
// reference-counting/copy sequences with calls to shared helpers. Our analog
// outlines runs of consecutive Retain/Release instructions: a run's shape
// (the op sequence with operands numbered by first occurrence) repeating
// elsewhere in the module becomes a helper function. The paper measures this
// level at only 0.41% savings on UberRider — the pass is real but weak,
// because most repetition only materializes at the machine level.

// OutlineStats reports what OutlinePass did.
type OutlineStats struct {
	HelpersCreated int
	RunsOutlined   int
}

const minSILRunLen = 3
const maxSILRunParams = 4

// OutlinePass performs SIL-level outlining of reference-counting runs.
func OutlinePass(m *Module) OutlineStats {
	type run struct {
		fn         *Func
		block      *Block
		start, end int // [start, end)
		shape      string
		params     []Value // distinct operands in order of first use
	}
	var runs []run

	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			i := 0
			for i < len(b.Insts) {
				if b.Insts[i].Op != Retain && b.Insts[i].Op != Release {
					i++
					continue
				}
				j := i
				for j < len(b.Insts) && (b.Insts[j].Op == Retain || b.Insts[j].Op == Release) {
					j++
				}
				if j-i >= minSILRunLen {
					r := run{fn: f, block: b, start: i, end: j}
					paramIdx := make(map[Value]int)
					var shape strings.Builder
					ok := true
					for k := i; k < j; k++ {
						in := b.Insts[k]
						idx, seen := paramIdx[in.A]
						if !seen {
							idx = len(r.params)
							paramIdx[in.A] = idx
							r.params = append(r.params, in.A)
						}
						fmt.Fprintf(&shape, "%d:%d;", in.Op, idx)
					}
					if len(r.params) > maxSILRunParams {
						ok = false
					}
					if ok {
						r.shape = shape.String()
						runs = append(runs, r)
					}
				}
				i = j
			}
		}
	}

	byShape := make(map[string][]run)
	var shapes []string
	for _, r := range runs {
		if len(byShape[r.shape]) == 0 {
			shapes = append(shapes, r.shape)
		}
		byShape[r.shape] = append(byShape[r.shape], r)
	}
	sort.Strings(shapes)

	var stats OutlineStats
	helperSeq := 0
	type edit struct {
		key        string // fn/block identity for deterministic ordering
		block      *Block
		start, end int
		call       Inst
	}
	var edits []edit
	for _, shape := range shapes {
		group := byShape[shape]
		// A helper pays for itself only with enough occurrences once the
		// call-site argument moves and the helper's own frame are accounted
		// for (at machine level a release is a move+call; the helper saves
		// the difference per site but costs ~a dozen instructions once).
		if len(group) < 6 {
			continue
		}
		// Build the helper from the first occurrence.
		rep := group[0]
		helper := &Func{
			Name:      fmt.Sprintf("outlined_sil_rc_%s_%d", m.Name, helperSeq),
			Module:    m.Name,
			NumParams: len(rep.params),
		}
		helperSeq++
		helper.NumValues = helper.NumParams
		helper.RefParams = make([]bool, helper.NumParams)
		for i := range helper.RefParams {
			helper.RefParams[i] = true
		}
		body := &Block{Label: "entry"}
		paramOf := make(map[Value]Value, len(rep.params))
		for i, p := range rep.params {
			paramOf[p] = helper.Param(i)
		}
		for k := rep.start; k < rep.end; k++ {
			in := rep.block.Insts[k]
			body.Insts = append(body.Insts, Inst{Op: in.Op, A: paramOf[in.A]})
		}
		body.Insts = append(body.Insts, Inst{Op: RetVoid})
		helper.Blocks = []*Block{body}
		m.AddFunc(helper)
		stats.HelpersCreated++

		for _, r := range group {
			edits = append(edits, edit{
				key:   r.fn.Name + "/" + r.block.Label,
				block: r.block, start: r.start, end: r.end,
				call: Inst{Op: Call, Sym: helper.Name, Args: append([]Value(nil), r.params...)},
			})
			stats.RunsOutlined++
		}
	}

	// Apply edits per block, highest start first.
	sort.Slice(edits, func(i, j int) bool {
		if edits[i].key != edits[j].key {
			return edits[i].key < edits[j].key
		}
		return edits[i].start > edits[j].start
	})
	for _, e := range edits {
		tail := append([]Inst(nil), e.block.Insts[e.end:]...)
		e.block.Insts = append(e.block.Insts[:e.start], append([]Inst{e.call}, tail...)...)
	}
	return stats
}

// ---- Closure specialization (the Listing 9 mechanism) ----

// SpecializeStats reports what SpecializeClosures did.
type SpecializeStats struct {
	Specializations int
	SitesRewritten  int
}

// SpecializeClosures devirtualizes closure arguments: when a call passes a
// closure literal created in the same block, the callee is cloned and its
// indirect CallClosure ops on that parameter become direct calls to the
// closure function. Each distinct (callee, closure) pair produces one clone
// — exactly how the Swift compiler manufactures the paper's three copies of
// `evaluate` (Listing 9), whose 279-instruction bodies then repeat at the
// machine level.
func SpecializeClosures(m *Module) SpecializeStats {
	var stats SpecializeStats
	specialized := make(map[string]string) // callee|param|closureFn -> clone name
	seq := 0

	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			// Map: value -> closure function name for MakeClosure defs in
			// this block.
			madeBy := make(map[Value]string)
			for i := range b.Insts {
				in := &b.Insts[i]
				if in.Op == MakeClosure {
					madeBy[in.Dst] = in.Sym
					continue
				}
				if in.Op != Call {
					continue
				}
				callee := m.Func(in.Sym)
				if callee == nil || callee == f {
					continue
				}
				for argIdx, argVal := range in.Args {
					closureFn, ok := madeBy[argVal]
					if !ok {
						continue
					}
					key := fmt.Sprintf("%s|%d|%s", in.Sym, argIdx, closureFn)
					clone, ok := specialized[key]
					if !ok {
						clone = fmt.Sprintf("%s$spec%d", in.Sym, seq)
						seq++
						sf := cloneSIRFunc(callee, clone)
						devirtualize(sf, sf.Param(argIdx), closureFn)
						m.AddFunc(sf)
						specialized[key] = clone
						stats.Specializations++
					}
					in.Sym = clone
					stats.SitesRewritten++
					break // one specialized parameter per call site
				}
			}
		}
	}
	return stats
}

// devirtualize rewrites CallClosure through param into a direct call to
// closureFn (the closure object still flows in as the context argument).
func devirtualize(f *Func, param Value, closureFn string) {
	for _, b := range f.Blocks {
		for i := range b.Insts {
			in := &b.Insts[i]
			if in.Op == CallClosure && in.A == param {
				args := append([]Value{in.A}, in.Args...)
				*in = Inst{Op: Call, Dst: in.Dst, Sym: closureFn, Args: args}
			}
		}
	}
}

// cloneSIRFunc copies f the way the generator lays a function out: its
// instructions into one slab and their argument lists into one chunk, each
// block and each list a window capped at its own length, so an append to one
// reallocates instead of reaching its neighbour.
func cloneSIRFunc(f *Func, name string) *Func {
	nf := &Func{
		Name:      name,
		Module:    f.Module,
		NumParams: f.NumParams,
		Throws:    f.Throws,
		NumValues: f.NumValues,
		RefParams: append([]bool(nil), f.RefParams...),
	}
	nInsts, nArgs := 0, 0
	for _, b := range f.Blocks {
		nInsts += len(b.Insts)
		for i := range b.Insts {
			nArgs += len(b.Insts[i].Args)
		}
	}
	slab := make([]Inst, 0, nInsts)
	args := make([]Value, 0, nArgs)
	blocks := make([]Block, len(f.Blocks))
	nf.Blocks = make([]*Block, len(f.Blocks))
	for bi, b := range f.Blocks {
		start := len(slab)
		slab = append(slab, b.Insts...)
		for i := start; i < len(slab); i++ {
			a := slab[i].Args
			if len(a) == 0 {
				slab[i].Args = nil
				continue
			}
			at := len(args)
			args = append(args, a...)
			slab[i].Args = args[at:len(args):len(args)]
		}
		blocks[bi] = Block{Label: b.Label, Insts: slab[start:len(slab):len(slab)]}
		nf.Blocks[bi] = &blocks[bi]
	}
	return nf
}
