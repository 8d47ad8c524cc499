// Package binimg models the final binary image the system linker produces:
// a Mach-O-like container with a header, load commands, a __TEXT section of
// machine code, a __DATA section of globals, and a symbol table. It gives
// the repo one consistent definition of "binary size" versus "code size",
// mirroring the paper's distinction (Figure 12 plots both).
package binimg

import (
	"sort"
	"strconv"

	"outliner/internal/mir"
)

// Size model constants (bytes). Chosen so overhead proportions resemble a
// real Mach-O: the paper's UberRider is 145.7MB with a 114.5MB code section
// (~79% code); our synthetic apps land in the same ballpark.
const (
	HeaderSize      = 4096 // mach header + load commands, page aligned
	PageSize        = 4096
	SymbolEntrySize = 16 // nlist-like entry
)

// Image is a laid-out binary.
type Image struct {
	CodeSize  int // __TEXT: machine instructions
	DataSize  int // __DATA: globals
	SymCount  int
	SymStrLen int

	// Sections' file offsets (page aligned).
	CodeOffset int
	DataOffset int
	TotalSize  int

	// Symbols in address order.
	Symbols []Symbol
}

// Symbol is one symbol-table entry.
type Symbol struct {
	Name string
	Addr int
	Size int
	Code bool
}

// Build lays out a machine program into an image.
func Build(p *mir.Program) *Image {
	img := &Image{Symbols: make([]Symbol, 0, len(p.Funcs)+len(p.Globals))}
	addr := 0
	for _, f := range p.Funcs {
		size := f.CodeSize()
		img.Symbols = append(img.Symbols, Symbol{Name: f.Name, Addr: addr, Size: size, Code: true})
		addr += size
	}
	img.CodeSize = addr
	daddr := 0
	for _, g := range p.Globals {
		img.Symbols = append(img.Symbols, Symbol{Name: g.Name, Addr: daddr, Size: g.Size()})
		daddr += g.Size()
	}
	img.DataSize = daddr
	img.SymCount = len(img.Symbols)
	for _, s := range img.Symbols {
		img.SymStrLen += len(s.Name) + 1
	}
	img.CodeOffset = HeaderSize
	img.DataOffset = img.CodeOffset + align(img.CodeSize, PageSize)
	symtab := img.SymCount*SymbolEntrySize + align(img.SymStrLen, 8)
	img.TotalSize = img.DataOffset + align(img.DataSize, PageSize) + align(symtab, PageSize)
	return img
}

func align(n, a int) int { return (n + a - 1) / a * a }

// AppendSummary appends a one-line size report.
func (img *Image) AppendSummary(dst []byte) []byte {
	dst = append(dst, "binary: "...)
	dst = appendSize(dst, img.TotalSize)
	dst = append(dst, " (code "...)
	dst = appendSize(dst, img.CodeSize)
	dst = append(dst, ", data "...)
	dst = appendSize(dst, img.DataSize)
	dst = append(dst, ", "...)
	dst = strconv.AppendInt(dst, int64(img.SymCount), 10)
	return append(dst, " symbols)"...)
}

// Summary renders the size report of AppendSummary.
func (img *Image) Summary() string { return string(img.AppendSummary(nil)) }

// FormatSize renders n in human units.
func FormatSize(n int) string { return string(appendSize(nil, n)) }

func appendSize(dst []byte, n int) []byte {
	switch {
	case n >= 1<<20:
		dst = strconv.AppendFloat(dst, float64(n)/(1<<20), 'f', 2, 64)
		return append(dst, "MB"...)
	case n >= 1<<10:
		dst = strconv.AppendFloat(dst, float64(n)/(1<<10), 'f', 2, 64)
		return append(dst, "KB"...)
	}
	dst = strconv.AppendInt(dst, int64(n), 10)
	return append(dst, 'B')
}

// LargestCodeSymbols returns the n biggest code symbols (size triage tool).
func (img *Image) LargestCodeSymbols(n int) []Symbol {
	code := make([]Symbol, 0, len(img.Symbols))
	for _, s := range img.Symbols {
		if s.Code {
			code = append(code, s)
		}
	}
	sort.Slice(code, func(i, j int) bool {
		if code[i].Size != code[j].Size {
			return code[i].Size > code[j].Size
		}
		return code[i].Name < code[j].Name
	})
	if n > len(code) {
		n = len(code)
	}
	return code[:n]
}
