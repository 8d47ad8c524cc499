// Package artifact is the binary codec for the per-module build artifacts
// the incremental build cache stores: exported-interface stubs (what a
// module's importers can observe), lowered LLIR modules behind a summary
// header (the output of the per-module frontend→SIL→LLIR stage, both
// pipelines) and machine programs with their outlining statistics (the
// output of the default pipeline's per-module codegen+outline stage).
//
// The format is a compact varint encoding with a fixed header carrying a
// magic, the schema version, and an artifact kind. Decoding is defensive:
// any truncation, bad header, impossible count, or duplicate symbol yields
// an error, never a panic — the cache layer treats every decode error as a
// miss and rebuilds. Encoding is canonical (map contents are emitted in
// sorted order), so identical in-memory artifacts produce identical bytes
// and the encoded form can double as a content hash input.
package artifact

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"outliner/internal/isa"
	"outliner/internal/llir"
	"outliner/internal/mir"
	"outliner/internal/outline"
)

// SchemaVersion identifies the encoding. It participates in every cache key,
// so bumping it when the format (or the meaning of a cached stage) changes
// invalidates all previously stored artifacts instead of misreading them.
// Version 2: the llir stage's dependency hash became interface-scoped
// (imports' exported-interface digests instead of their full source hashes).
// Version 3: LLIR artifacts carry a summary header ahead of the body, the
// interface digest became the hash of the encoded stub, and the machine
// stage's input became the stored LLIR bytes plus the ObjC-flavour bit.
const SchemaVersion = 3

// Artifact kinds (the byte after the header magic).
const (
	kindLLIR    = 'L'
	kindMachine = 'M'
	kindStub    = 'I'
)

var magic = [3]byte{'S', 'L', 'A'}

// ---- encoder ----

type enc struct{ b []byte }

// encPool recycles encoder buffers. Encoding runs from several stages' cache
// hooks and from key hashing, none of which holds a worker lane, and the
// result outlives any lane because the cache keeps it: an encoder writes into
// a pooled buffer, grown to the largest artifact it has held, and returns an
// exactly sized copy (done).
var encPool = sync.Pool{New: func() any { return new(enc) }}

// newEnc returns a pooled encoder holding the header of a kind artifact.
func newEnc(kind byte) *enc {
	e := encPool.Get().(*enc)
	e.b = append(e.b[:0], magic[0], magic[1], magic[2], byte(SchemaVersion), kind)
	return e
}

// done returns the encoded bytes as a copy with cap == len, so the caller
// (the cache keeps artifacts for the life of the process) holds neither
// spare capacity nor the buffer, which goes back to the pool. e must not be
// used afterwards.
func (e *enc) done() []byte {
	out := make([]byte, len(e.b))
	copy(out, e.b)
	encPool.Put(e)
	return out
}

func (e *enc) u(v uint64)  { e.b = binary.AppendUvarint(e.b, v) }
func (e *enc) i(v int64)   { e.b = binary.AppendVarint(e.b, v) }
func (e *enc) byte(v byte) { e.b = append(e.b, v) }
func (e *enc) bool(v bool) {
	if v {
		e.byte(1)
	} else {
		e.byte(0)
	}
}
func (e *enc) s(s string) {
	e.u(uint64(len(s)))
	e.b = append(e.b, s...)
}

// ---- decoder ----

type dec struct {
	b   []byte
	err error
}

func newDec(data []byte, kind byte) *dec {
	d := &dec{b: data}
	if len(data) < 5 || data[0] != magic[0] || data[1] != magic[1] || data[2] != magic[2] {
		d.fail("bad magic")
		return d
	}
	if data[3] != byte(SchemaVersion) {
		d.fail("schema version %d, want %d", data[3], SchemaVersion)
		return d
	}
	if data[4] != kind {
		d.fail("artifact kind %q, want %q", data[4], kind)
		return d
	}
	d.b = data[5:]
	return d
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("artifact: "+format, args...)
		d.b = nil
	}
}

func (d *dec) u() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("truncated uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) i() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("truncated varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) == 0 {
		d.fail("truncated byte")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *dec) bool() bool { return d.byte() != 0 }

func (d *dec) s() string {
	n := d.u()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)) {
		d.fail("string length %d exceeds %d remaining bytes", n, len(d.b))
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// count reads an element count and guards against allocation bombs: a valid
// stream must carry at least one byte per remaining element.
func (d *dec) count() int {
	n := d.u()
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.b)) {
		d.fail("count %d exceeds %d remaining bytes", n, len(d.b))
		return 0
	}
	return int(n)
}

// section reads a length-prefixed section and returns its bytes, advancing
// past it.
func (d *dec) section() []byte {
	n := d.count()
	sec := d.b[:n]
	d.b = d.b[n:]
	return sec
}

func (d *dec) done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("artifact: %d trailing bytes", len(d.b))
	}
	return nil
}

// ---- LLIR modules ----

// EncodeModule serializes one lowered LLIR module: its summary header (see
// Summary), then the body.
func EncodeModule(m *llir.Module) []byte {
	e := newEnc(kindLLIR)
	encodeSummary(e, Summarize(m))
	e.s(m.Name)
	e.u(uint64(len(m.Funcs)))
	for _, f := range m.Funcs {
		e.s(f.Name)
		e.s(f.Module)
		e.u(uint64(f.NumParams))
		e.bool(f.Throws)
		e.u(uint64(f.NumValues))
		e.u(uint64(len(f.Blocks)))
		for _, b := range f.Blocks {
			e.s(b.Label)
			e.u(uint64(len(b.Insts)))
			for i := range b.Insts {
				encodeLLIRInst(e, &b.Insts[i])
			}
		}
	}
	e.u(uint64(len(m.Globals)))
	for _, g := range m.Globals {
		e.s(g.Name)
		e.s(g.Module)
		e.u(uint64(len(g.Words)))
		for _, w := range g.Words {
			e.i(w)
		}
	}
	keys := make([]string, 0, len(m.Metadata))
	for k := range m.Metadata {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.u(uint64(len(keys)))
	for _, k := range keys {
		e.s(k)
		e.s(m.Metadata[k])
	}
	return e.done()
}

func encodeLLIRInst(e *enc, in *llir.Inst) {
	e.byte(byte(in.Op))
	e.i(int64(in.Dst))
	e.i(int64(in.A))
	e.i(int64(in.B))
	e.i(int64(in.ErrDst))
	e.i(in.Imm)
	e.s(in.Sym)
	e.s(in.Sym2)
	e.byte(byte(in.BinOp))
	e.byte(byte(in.Cond))
	e.bool(in.Throws)
	e.u(uint64(len(in.Args)))
	for _, a := range in.Args {
		e.i(int64(a))
	}
	e.u(uint64(len(in.Incomings)))
	for _, inc := range in.Incomings {
		e.s(inc.Pred)
		e.i(int64(inc.Val))
	}
}

// DecodeModule reconstructs a module encoded by EncodeModule, skipping the
// summary header. Any corruption is reported as an error (the cache treats it
// as a miss).
func DecodeModule(data []byte) (*llir.Module, error) {
	d := newDec(data, kindLLIR)
	d.section()
	m := llir.NewModule(d.s())
	nf := d.count()
	for i := 0; i < nf && d.err == nil; i++ {
		f := &llir.Func{
			Name:      d.s(),
			Module:    d.s(),
			NumParams: int(d.u()),
			Throws:    d.bool(),
			NumValues: int(d.u()),
		}
		nb := d.count()
		for j := 0; j < nb && d.err == nil; j++ {
			b := &llir.Block{Label: d.s()}
			ni := d.count()
			if d.err == nil && ni > 0 {
				b.Insts = make([]llir.Inst, ni)
				for k := range b.Insts {
					decodeLLIRInst(d, &b.Insts[k])
				}
			}
			f.Blocks = append(f.Blocks, b)
		}
		if d.err == nil {
			if m.Func(f.Name) != nil {
				d.fail("duplicate function %q", f.Name)
				break
			}
			m.AddFunc(f)
		}
	}
	ng := d.count()
	for i := 0; i < ng && d.err == nil; i++ {
		g := &llir.Global{Name: d.s(), Module: d.s()}
		nw := d.count()
		if d.err == nil && nw > 0 {
			g.Words = make([]int64, nw)
			for k := range g.Words {
				g.Words[k] = d.i()
			}
		}
		m.Globals = append(m.Globals, g)
	}
	nm := d.count()
	for i := 0; i < nm && d.err == nil; i++ {
		k := d.s()
		m.Metadata[k] = d.s()
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return m, nil
}

func decodeLLIRInst(d *dec, in *llir.Inst) {
	in.Op = llir.Op(d.byte())
	in.Dst = llir.Value(d.i())
	in.A = llir.Value(d.i())
	in.B = llir.Value(d.i())
	in.ErrDst = llir.Value(d.i())
	in.Imm = d.i()
	in.Sym = d.s()
	in.Sym2 = d.s()
	in.BinOp = llir.BinKind(d.byte())
	in.Cond = llir.CondKind(d.byte())
	in.Throws = d.bool()
	na := d.count()
	if d.err == nil && na > 0 {
		in.Args = make([]llir.Value, na)
		for i := range in.Args {
			in.Args[i] = llir.Value(d.i())
		}
	}
	ni := d.count()
	if d.err == nil && ni > 0 {
		in.Incomings = make([]llir.Incoming, ni)
		for i := range in.Incomings {
			in.Incomings[i].Pred = d.s()
			in.Incomings[i].Val = llir.Value(d.i())
		}
	}
}

// ---- machine programs ----

// EncodeMachine serializes a machine program plus the outlining statistics
// that produced it (st may be nil when outlining did not run). The program
// section's layout is part of SchemaVersion.
func EncodeMachine(p *mir.Program, st *outline.Stats) []byte {
	e := newEnc(kindMachine)
	e.program(p)
	e.bool(st != nil)
	if st != nil {
		e.u(uint64(len(st.Rounds)))
		for _, r := range st.Rounds {
			e.i(int64(r.Round))
			e.i(int64(r.SequencesOutlined))
			e.i(int64(r.FunctionsCreated))
			e.i(int64(r.OutlinedBytes))
			e.i(int64(r.BytesSaved))
		}
	}
	return e.done()
}

func (e *enc) program(p *mir.Program) {
	e.u(uint64(len(p.Funcs)))
	for _, f := range p.Funcs {
		e.s(f.Name)
		e.s(f.Module)
		e.bool(f.Outlined)
		e.u(uint64(len(f.Blocks)))
		for _, blk := range f.Blocks {
			e.s(blk.Label)
			e.u(uint64(len(blk.Insts)))
			for i := range blk.Insts {
				in := &blk.Insts[i]
				e.b = append(e.b, byte(in.Op), byte(in.Rd), byte(in.Rd2), byte(in.Rn), byte(in.Rm))
				e.i(in.Imm)
				e.s(in.Sym)
				e.byte(byte(in.Cond))
			}
		}
	}
	e.u(uint64(len(p.Globals)))
	for _, g := range p.Globals {
		e.s(g.Name)
		e.s(g.Module)
		e.u(uint64(len(g.Words)))
		for _, w := range g.Words {
			e.i(w)
		}
	}
}

// DecodeMachine reconstructs a program (and stats, when present) encoded by
// EncodeMachine.
func DecodeMachine(data []byte) (*mir.Program, *outline.Stats, error) {
	d := newDec(data, kindMachine)
	p := d.program()
	var st *outline.Stats
	if d.bool() {
		st = &outline.Stats{}
		nr := d.count()
		for i := 0; i < nr && d.err == nil; i++ {
			st.Rounds = append(st.Rounds, outline.RoundStats{
				Round:             int(d.i()),
				SequencesOutlined: int(d.i()),
				FunctionsCreated:  int(d.i()),
				OutlinedBytes:     int(d.i()),
				BytesSaved:        int(d.i()),
			})
		}
	}
	if err := d.done(); err != nil {
		return nil, nil, err
	}
	return p, st, nil
}

func (d *dec) program() *mir.Program {
	p := mir.NewProgram()
	nf := d.count()
	for i := 0; i < nf && d.err == nil; i++ {
		f := &mir.Function{Name: d.s(), Module: d.s(), Outlined: d.bool()}
		nb := d.count()
		for j := 0; j < nb && d.err == nil; j++ {
			b := &mir.Block{Label: d.s()}
			ni := d.count()
			if d.err == nil && ni > 0 {
				b.Insts = make([]isa.Inst, ni)
				for k := range b.Insts {
					in := &b.Insts[k]
					in.Op = isa.Op(d.byte())
					in.Rd = isa.Reg(d.byte())
					in.Rd2 = isa.Reg(d.byte())
					in.Rn = isa.Reg(d.byte())
					in.Rm = isa.Reg(d.byte())
					in.Imm = d.i()
					in.Sym = d.s()
					in.Cond = isa.Cond(d.byte())
				}
			}
			f.Blocks = append(f.Blocks, b)
		}
		if d.err == nil {
			if p.Func(f.Name) != nil {
				d.fail("duplicate function %q", f.Name)
				break
			}
			p.AddFunc(f)
		}
	}
	ng := d.count()
	for i := 0; i < ng && d.err == nil; i++ {
		g := &mir.Global{Name: d.s(), Module: d.s()}
		nw := d.count()
		if d.err == nil && nw > 0 {
			g.Words = make([]int64, nw)
			for k := range g.Words {
				g.Words[k] = d.i()
			}
		}
		p.AddGlobal(g)
	}
	return p
}
