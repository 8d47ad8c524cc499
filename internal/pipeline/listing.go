package pipeline

import (
	"io"
	"strconv"
	"strings"

	"outliner/internal/binimg"
	"outliner/internal/mir"
)

// WriteImageListing renders the built image as a deterministic text listing:
// the size summary, the address-ordered symbol table, and the full machine
// program. Two builds produced the same binary iff their listings are
// byte-identical, which makes the listing the comparison artifact for the
// cold-vs-warm determinism guarantee (slc -o, the CI cache e2e, and the
// pipeline tests all diff it).
//
// All three sections go through one mir.TextWriter chunk, so the listing is
// streamed rather than assembled, and the first error any write returns is
// the error reported.
func (r *Result) WriteImageListing(w io.Writer) error {
	t := mir.NewTextWriter(w)
	t.Buf = r.Image.AppendSummary(t.Buf)
	t.Buf = append(t.Buf, "\n\nsymbols:\n"...)
	for i := range r.Image.Symbols {
		t.Buf = appendSymbolRow(t.Buf, &r.Image.Symbols[i])
		t.Spill()
	}
	t.Buf = append(t.Buf, "\nprogram:\n"...)
	t.Program(r.Prog)
	_, err := t.Flush()
	return err
}

// ImageListing returns the listing as a string. The text is rendered once,
// into a buffer sized up front from the image's symbol and instruction counts,
// and that buffer becomes the string.
func (r *Result) ImageListing() string {
	var b strings.Builder
	b.Grow(r.listingSizeHint())
	r.WriteImageListing(&b) // a strings.Builder's Write cannot fail
	return b.String()
}

// listingSizeHint estimates the listing's length from the image alone. A
// symbol costs its row (28 bytes of columns plus the name, which SymStrLen
// counts); the program section — definitions, labels, instruction lines and
// the names they mention — measures 25 to 30 bytes per 4 bytes of code on the
// synthetic apps and the benchmark programs, rounded up to 32 so that the
// buffer does not regrow; a data word prints as a few digits.
func (r *Result) listingSizeHint() int {
	img := r.Image
	return 128 + 28*img.SymCount + img.SymStrLen + 32*(img.CodeSize/4) + img.DataSize/2
}

// appendSymbolRow appends one symbol-table row, laid out as the format
// "  %-4s %#010x %6d %s\n" lays out kind, address, size and name (fmt pads
// the address to ten digits after the 0x).
func appendSymbolRow(dst []byte, s *binimg.Symbol) []byte {
	if s.Code {
		dst = append(dst, "  code 0x"...)
	} else {
		dst = append(dst, "  data 0x"...)
	}
	dst = appendPadded(dst, int64(s.Addr), 16, 10, '0')
	dst = append(dst, ' ')
	dst = appendPadded(dst, int64(s.Size), 10, 6, ' ')
	dst = append(dst, ' ')
	dst = append(dst, s.Name...)
	return append(dst, '\n')
}

// appendPadded appends v in the given base, left-padded to width.
func appendPadded(dst []byte, v int64, base, width int, pad byte) []byte {
	var digits [20]byte
	text := strconv.AppendInt(digits[:0], v, base)
	for n := len(text); n < width; n++ {
		dst = append(dst, pad)
	}
	return append(dst, text...)
}
