package llir

import (
	"fmt"
	"sort"
)

// FMSAStats reports what MergeBySequenceAlignment did.
type FMSAStats struct {
	Groups      int
	Removed     int
	ParamsAdded int
}

const (
	fmsaMinBodyInsts = 8 // merging tiny bodies costs more at call sites than it saves
	fmsaMaxExtraArgs = 3
)

// MergeBySequenceAlignment is the FMSA-lite pass (Table I row 4): functions
// whose bodies align perfectly except for integer constants are merged into
// one parameterized function, and call sites pass the constants. This is a
// deliberately restricted version of "function merging by sequence
// alignment" — full FMSA also tolerates insertions/deletions; the paper
// measured the full version at ~2% savings with an hour of compile time, so
// the cheap exact-alignment core is the part worth having.
func MergeBySequenceAlignment(m *Module) FMSAStats {
	return MergeBySequenceAlignmentKeeping(m, nil)
}

// MergeBySequenceAlignmentKeeping is MergeBySequenceAlignment with external
// linkage: functions named in keep may be referenced from outside the
// module, and FMSA deletes every group member in favour of a freshly built
// parameterized function, so kept functions are excluded from merging
// altogether (like address-taken ones).
func MergeBySequenceAlignmentKeeping(m *Module, keep map[string]bool) FMSAStats {
	var stats FMSAStats

	addressTaken := make(map[string]bool)
	callerCount := make(map[string]int)
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Insts {
				in := &b.Insts[i]
				if in.Op == GlobalAddr {
					addressTaken[in.Sym] = true
				}
				if in.Op == Call {
					callerCount[in.Sym]++
				}
			}
		}
	}

	// Functions share a shape iff they are identical modulo integer
	// constants: the merge key with Const immediates erased.
	hasher := funcHasher{eraseConsts: true}
	byShape := make(map[string][]*Func)
	var shapes []string
	for _, f := range m.Funcs {
		if f.Name == "main" || addressTaken[f.Name] || keep[f.Name] || f.NumInsts() < fmsaMinBodyInsts {
			continue
		}
		h := string(hasher.key(f))
		if len(byShape[h]) == 0 {
			shapes = append(shapes, h)
		}
		byShape[h] = append(byShape[h], f)
	}
	sort.Strings(shapes)

	type rewrite struct {
		from   string
		to     string
		consts []int64 // extra trailing arguments
	}
	rewrites := make(map[string]rewrite)

	for _, h := range shapes {
		group := byShape[h]
		if len(group) < 2 {
			continue
		}
		sort.Slice(group, func(i, j int) bool { return group[i].Name < group[j].Name })
		rep := group[0]
		repConsts := constSites(rep)

		// Which constant sites differ across the group?
		differs := make([]bool, len(repConsts))
		ok := true
		memberConsts := make([][]int64, len(group))
		memberConsts[0] = repConsts
		for gi, g := range group[1:] {
			cs := constSites(g)
			if len(cs) != len(repConsts) {
				ok = false
				break
			}
			memberConsts[gi+1] = cs
			for i := range cs {
				if cs[i] != repConsts[i] {
					differs[i] = true
				}
			}
		}
		if !ok {
			continue
		}
		nDiff := 0
		for _, d := range differs {
			if d {
				nDiff++
			}
		}
		if nDiff > fmsaMaxExtraArgs || rep.NumParams+nDiff > 8 {
			continue
		}

		merged := buildMergedFunc(rep, differs, nDiff)
		stats.Groups++
		stats.ParamsAdded += nDiff
		for gi, g := range group {
			var extra []int64
			di := 0
			for i, d := range differs {
				_ = di
				if d {
					extra = append(extra, memberConsts[gi][i])
				}
			}
			rewrites[g.Name] = rewrite{from: g.Name, to: merged.Name, consts: extra}
			m.RemoveFunc(g.Name)
			stats.Removed++
		}
		stats.Removed-- // the merged function replaces the group
		m.AddFunc(merged)
	}

	if len(rewrites) == 0 {
		return stats
	}

	// Rewrite call sites: append constant arguments.
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			var out []Inst
			for _, in := range b.Insts {
				rw, ok := rewrites[in.Sym]
				if !ok || in.Op != Call {
					out = append(out, in)
					continue
				}
				// The call gets a record of its own: in shares the record of
				// the instruction it was copied from.
				var e Ext
				if in.Ext != nil {
					e = *in.Ext
				}
				e.Args = append([]Value(nil), e.Args...)
				for _, c := range rw.consts {
					cv := f.NewValue()
					out = append(out, Inst{Op: Const, Dst: cv, Imm: c})
					e.Args = append(e.Args, cv)
				}
				in.Sym = rw.to
				if in.Ext != nil || len(e.Args) > 0 {
					in.Ext = &e
				}
				out = append(out, in)
			}
			b.Insts = out
		}
	}
	return stats
}

// constSites lists Const immediates in traversal order.
func constSites(f *Func) []int64 {
	var out []int64
	for _, b := range f.Blocks {
		for i := range b.Insts {
			if b.Insts[i].Op == Const {
				out = append(out, b.Insts[i].Imm)
			}
		}
	}
	return out
}

// buildMergedFunc clones rep with the differing constants replaced by fresh
// trailing parameters. Existing value ids above the old parameter range are
// shifted to make room.
func buildMergedFunc(rep *Func, differs []bool, nDiff int) *Func {
	shift := Value(nDiff)
	oldP := Value(rep.NumParams)
	remap := func(v Value) Value {
		if v == None || v <= oldP {
			return v
		}
		return v + shift
	}
	merged := &Func{
		Name:      fmt.Sprintf("%s$fmsa", rep.Name),
		Module:    rep.Module,
		NumParams: rep.NumParams + nDiff,
		Throws:    rep.Throws,
		NumValues: rep.NumValues + nDiff,
	}
	// subst maps removed Const defs to the new parameter values.
	subst := make(map[Value]Value)
	ci := 0
	di := 0
	for _, b := range rep.Blocks {
		for i := range b.Insts {
			if b.Insts[i].Op != Const {
				continue
			}
			if differs[ci] {
				subst[remap(b.Insts[i].Dst)] = oldP + Value(di) + 1
				di++
			}
			ci++
		}
	}
	res := func(v Value) Value {
		v = remap(v)
		if nv, ok := subst[v]; ok {
			return nv
		}
		return v
	}
	ci = 0
	for _, b := range rep.Blocks {
		nb := &Block{Label: b.Label}
		for i := range b.Insts {
			in := b.Insts[i]
			if in.Op == Const {
				if differs[ci] {
					ci++
					continue // becomes a parameter
				}
				ci++
			}
			in.Dst = remap(in.Dst)
			in.A = res(in.A)
			in.B = res(in.B)
			if e := in.Ext; e != nil {
				// A record of the clone's own, so rep keeps its operands.
				ne := &Ext{
					ErrDst:    remap(e.ErrDst),
					Else:      e.Else,
					Args:      append([]Value(nil), e.Args...),
					Incomings: append([]Incoming(nil), e.Incomings...),
				}
				for j := range ne.Args {
					ne.Args[j] = res(ne.Args[j])
				}
				for j := range ne.Incomings {
					ne.Incomings[j].Val = res(ne.Incomings[j].Val)
				}
				in.Ext = ne
			}
			nb.Insts = append(nb.Insts, in)
		}
		merged.Blocks = append(merged.Blocks, nb)
	}
	return merged
}
