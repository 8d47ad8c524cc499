package mir

import (
	"io"
	"strconv"
	"strings"

	"outliner/internal/isa"
)

// textChunk is how much rendered text a TextWriter holds before handing it to
// its writer. Renderers spill after every line, so a page's worth is enough:
// every destination the listing streams to either buffers on its own (a
// presized strings.Builder, slcd's 32 KB bufio.Writer) or takes page-sized
// writes well (a file, a hash).
const textChunk = 4 << 10

// TextWriter streams rendered machine code to an io.Writer through one reused
// chunk: renderers append to Buf and call Spill, which writes the chunk out
// once it has filled. Nothing downstream of it holds a whole program as one
// string. The first write error sticks: later text is dropped, and Flush
// reports the error with the number of bytes that did reach the writer.
type TextWriter struct {
	Buf []byte

	w   io.Writer
	n   int64
	err error
}

// NewTextWriter returns a TextWriter in front of w.
func NewTextWriter(w io.Writer) *TextWriter {
	// The slack keeps the function that crosses the threshold from regrowing
	// the chunk; only a single function larger than that does.
	return &TextWriter{w: w, Buf: make([]byte, 0, textChunk+textChunk/4)}
}

// Spill writes the chunk out if it has filled.
func (t *TextWriter) Spill() {
	if len(t.Buf) >= textChunk {
		t.write()
	}
}

// Flush writes out what the chunk still holds and returns the bytes written
// to the underlying writer in total and the first error any write returned.
func (t *TextWriter) Flush() (int64, error) {
	t.write()
	return t.n, t.err
}

func (t *TextWriter) write() {
	if t.err == nil && len(t.Buf) > 0 {
		m, err := t.w.Write(t.Buf)
		if err == nil && m < len(t.Buf) {
			err = io.ErrShortWrite
		}
		t.n += int64(m)
		t.err = err
	}
	t.Buf = t.Buf[:0]
}

// Program renders p in the textual MIR format accepted by Parse.
func (t *TextWriter) Program(p *Program) {
	for i, f := range p.Funcs {
		if t.err != nil {
			return
		}
		if i > 0 {
			t.Buf = append(t.Buf, '\n')
		}
		t.function(f)
	}
	for _, g := range p.Globals {
		if t.err != nil {
			return
		}
		t.Buf = g.appendText(t.Buf)
		t.Spill()
	}
}

// WriteTo streams the program in the textual MIR format accepted by Parse and
// returns the number of bytes w accepted.
func (p *Program) WriteTo(w io.Writer) (int64, error) {
	t := NewTextWriter(w)
	t.Program(p)
	return t.Flush()
}

// String renders the program as WriteTo does. It holds the whole text at
// once; anything that can stream (a file, a hash, a socket) should call
// WriteTo.
func (p *Program) String() string {
	var b strings.Builder
	p.WriteTo(&b) // a strings.Builder's Write cannot fail
	return b.String()
}

// AppendText appends the function in the textual MIR format.
func (f *Function) AppendText(dst []byte) []byte {
	dst = f.appendHead(dst)
	for _, blk := range f.Blocks {
		dst = append(append(dst, blk.Label...), ":\n"...)
		for i := range blk.Insts {
			dst = appendInstLine(dst, &blk.Insts[i])
		}
	}
	return append(dst, "}\n"...)
}

// function renders f as AppendText does, spilling the chunk after every
// line: the chunk then never holds more than one line beyond textChunk, and
// no function, however large, regrows it.
func (t *TextWriter) function(f *Function) {
	t.Buf = f.appendHead(t.Buf)
	for _, blk := range f.Blocks {
		t.Buf = append(append(t.Buf, blk.Label...), ":\n"...)
		for i := range blk.Insts {
			t.Buf = appendInstLine(t.Buf, &blk.Insts[i])
			t.Spill()
		}
	}
	t.Buf = append(t.Buf, "}\n"...)
}

// appendHead appends the line that opens f's text.
func (f *Function) appendHead(dst []byte) []byte {
	dst = append(dst, "func @"...)
	dst = append(dst, f.Name...)
	if f.Module != "" {
		dst = append(dst, " module "...)
		dst = strconv.AppendQuote(dst, f.Module)
	}
	if f.Outlined {
		dst = append(dst, " outlined"...)
	}
	return append(dst, " {\n"...)
}

// appendInstLine appends one indented instruction line.
func appendInstLine(dst []byte, in *isa.Inst) []byte {
	return append(in.AppendText(append(dst, "  "...)), '\n')
}

// String renders a single function.
func (f *Function) String() string { return string(f.AppendText(nil)) }

func (g *Global) appendText(dst []byte) []byte {
	dst = append(dst, "\nglobal @"...)
	dst = append(dst, g.Name...)
	dst = append(dst, " module "...)
	dst = strconv.AppendQuote(dst, g.Module)
	dst = append(dst, " = ["...)
	for i, w := range g.Words {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = strconv.AppendInt(dst, w, 10)
	}
	return append(dst, "]\n"...)
}
