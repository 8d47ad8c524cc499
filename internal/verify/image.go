package verify

import (
	"outliner/internal/binimg"
	"outliner/internal/mir"
)

// Image verifies a laid-out binary against the program it was built from:
// section sizes, symbol-table completeness, and that every symbol's
// [addr, addr+size) range stays inside its section without overlapping its
// neighbours. A disagreement means the image layout and the program diverged
// — exactly the class of linker-stage breakage §VI of the paper debugs.
func Image(img *binimg.Image, prog *mir.Program) *Report {
	r := &Report{}
	if img.CodeSize != prog.CodeSize() {
		r.addf("", "", -1, -1, "image code section is %d bytes, program has %d", img.CodeSize, prog.CodeSize())
	}
	if img.DataSize != prog.DataSize() {
		r.addf("", "", -1, -1, "image data section is %d bytes, program has %d", img.DataSize, prog.DataSize())
	}
	if img.SymCount != len(img.Symbols) {
		r.addf("", "", -1, -1, "symbol count %d disagrees with symbol table length %d", img.SymCount, len(img.Symbols))
	}

	// Symbols are indexed by position; a duplicate name resolves to its last
	// entry.
	byName := make(map[string]int32, len(img.Symbols))
	codeAddr, dataAddr := 0, 0
	for i, s := range img.Symbols {
		if _, dup := byName[s.Name]; dup {
			r.addf(s.Name, "", -1, int64(s.Addr), "duplicate symbol in image")
		}
		byName[s.Name] = int32(i)
		if s.Code {
			if s.Addr != codeAddr {
				r.addf(s.Name, "", -1, int64(s.Addr), "code symbol at %#x overlaps or leaves a gap (expected %#x)", s.Addr, codeAddr)
			}
			codeAddr = s.Addr + s.Size
			if codeAddr > img.CodeSize {
				r.addf(s.Name, "", -1, int64(s.Addr), "code symbol extends past the code section (%#x > %#x)", codeAddr, img.CodeSize)
			}
		} else {
			if s.Addr != dataAddr {
				r.addf(s.Name, "", -1, int64(s.Addr), "data symbol at %#x overlaps or leaves a gap (expected %#x)", s.Addr, dataAddr)
			}
			dataAddr = s.Addr + s.Size
			if dataAddr > img.DataSize {
				r.addf(s.Name, "", -1, int64(s.Addr), "data symbol extends past the data section (%#x > %#x)", dataAddr, img.DataSize)
			}
		}
	}

	lookup := func(name string) (binimg.Symbol, bool) {
		i, ok := byName[name]
		if !ok {
			return binimg.Symbol{}, false
		}
		return img.Symbols[i], true
	}
	for _, f := range prog.Funcs {
		s, ok := lookup(f.Name)
		switch {
		case !ok:
			r.addf(f.Name, "", -1, -1, "function missing from the image symbol table")
		case !s.Code:
			r.addf(f.Name, "", -1, int64(s.Addr), "function symbol landed in the data section")
		case s.Size != f.CodeSize():
			r.addf(f.Name, "", -1, int64(s.Addr), "symbol size %d disagrees with function size %d", s.Size, f.CodeSize())
		}
		r.FuncsChecked++
	}
	for _, g := range prog.Globals {
		s, ok := lookup(g.Name)
		switch {
		case !ok:
			r.addf(g.Name, "", -1, -1, "global missing from the image symbol table")
		case s.Code:
			r.addf(g.Name, "", -1, int64(s.Addr), "global symbol landed in the code section")
		case s.Size != g.Size():
			r.addf(g.Name, "", -1, int64(s.Addr), "symbol size %d disagrees with global size %d", s.Size, g.Size())
		}
	}
	return r
}
