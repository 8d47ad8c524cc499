package artifact

import (
	"encoding/binary"
	"sort"

	"outliner/internal/llir"
)

// Summary is the header of an LLIR artifact: what the rest of a build needs
// to know about a module it is not going to compile. The default pipeline
// derives every module's external-symbol set and the cross-module references
// per-module merging must keep from summaries alone, so an unchanged module's
// body is never decoded.
//
// Layout (after the 5-byte artifact header): a uvarint byte length, then
// that many bytes holding three counted string lists — Funcs, Globals, Refs.
// The string table and the body follow; DecodeModule skips the section by
// its length and DecodeSummary never looks past it.
type Summary struct {
	// Funcs and Globals are the names the module defines, in module order.
	Funcs   []string
	Globals []string
	// Refs are the distinct symbols the module's code calls or takes the
	// address of — its own, other modules' and the runtime's — sorted.
	Refs []string
}

// Summarize computes m's summary.
func Summarize(m *llir.Module) *Summary {
	s := &Summary{
		Funcs:   make([]string, len(m.Funcs)),
		Globals: make([]string, len(m.Globals)),
	}
	refs := make(map[string]struct{})
	for i, f := range m.Funcs {
		s.Funcs[i] = f.Name
		for _, b := range f.Blocks {
			for k := range b.Insts {
				if in := &b.Insts[k]; in.Op == llir.Call || in.Op == llir.GlobalAddr {
					refs[in.Sym] = struct{}{}
				}
			}
		}
	}
	for i, g := range m.Globals {
		s.Globals[i] = g.Name
	}
	s.Refs = make([]string, 0, len(refs))
	for r := range refs {
		s.Refs = append(s.Refs, r)
	}
	sort.Strings(s.Refs)
	return s
}

// encodeSummary writes s's section, length first, into e's buffer: the
// section is written in place and then shifted right by its length's width.
func encodeSummary(e *enc, s *Summary) {
	at := len(e.b)
	for _, list := range [][]string{s.Funcs, s.Globals, s.Refs} {
		e.u(uint64(len(list)))
		for _, name := range list {
			e.s(name)
		}
	}
	n := len(e.b) - at
	var size [binary.MaxVarintLen64]byte
	w := binary.PutUvarint(size[:], uint64(n))
	e.b = append(e.b, size[:w]...)
	copy(e.b[at+w:], e.b[at:at+n])
	copy(e.b[at:], size[:w])
}

// DecodeSummary reads only the summary header of an artifact encoded by
// EncodeModule. It is as defensive as DecodeModule — truncation, impossible
// counts, a duplicate name within a list, or bytes left over inside the
// section are errors, never panics — but it does not validate the body.
func DecodeSummary(data []byte) (*Summary, error) {
	d := newDec(data, kindLLIR)
	d = &dec{b: d.section(), err: d.err}
	s := &Summary{}
	for _, list := range []*[]string{&s.Funcs, &s.Globals, &s.Refs} {
		n := d.count()
		seen := make(dupSet, n)
		*list = make([]string, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			name := d.s()
			seen.add(d, "summary name", name)
			*list = append(*list, name)
		}
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return s, nil
}
