// Package artifact is the binary codec for the per-module build artifacts
// the incremental build cache stores: exported-interface stubs (what a
// module's importers can observe), lowered LLIR modules behind a summary
// header (the output of the per-module frontend→SIL→LLIR stage, both
// pipelines) and machine programs with their outlining statistics (the
// output of the default pipeline's per-module codegen+outline stage).
//
// The format is a compact varint encoding with a fixed header carrying a
// magic, the schema version, and an artifact kind. LLIR and machine artifacts
// write each distinct string once, in a table ahead of the body, and the body
// refers to it by index. Decoding is defensive: any truncation, bad header,
// impossible count, out-of-range index, or duplicate symbol yields an error,
// never a panic — the cache layer treats every decode error as a miss and
// rebuilds. Encoding is canonical (map contents are emitted in sorted order,
// table entries in first-use order), so identical in-memory artifacts produce
// identical bytes and the encoded form can double as a content hash input.
package artifact

import (
	"encoding/binary"
	"fmt"
	"math/bits"
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
// Version 4: LLIR bodies and machine programs write each string once, in a
// table after the header (after the summary, for LLIR), and refer to it by
// index; stubs (their header keeps version byte 3, see stubVersion) and the
// LLIR summary are unchanged.
// Version 5: code generation emits commutative operations in canonical
// operand order, so every machine artifact's code can differ, and the
// machine stage's key no longer renders the option that used to ask for it.
// Version 6: the function merger's similar policy (Config.FMSA) folds
// identical functions too and merges only where a cost test says it saves
// instructions, so a machine artifact built with it can differ under an
// unchanged key.
const SchemaVersion = 6

// Artifact kinds (the byte after the header magic).
const (
	kindLLIR    = 'L'
	kindMachine = 'M'
	kindStub    = 'I'
)

var magic = [3]byte{'S', 'L', 'A'}

// stubVersion is the version byte of a stub's header. A stub's bytes are what
// InterfaceDigest hashes, and its layout has not changed since version 3, so
// its header keeps that byte and interface digests survive later bumps.
const stubVersion = 3

// version is the header's version byte for a kind artifact.
func version(kind byte) byte {
	if kind == kindStub {
		return stubVersion
	}
	return SchemaVersion
}

// ---- encoder ----

type enc struct {
	b []byte
	// tableAt is the offset in b where the string table goes, ahead of the
	// body; -1 for an artifact without one (a stub).
	tableAt int
	// strs is the table — the empty string, then the rest in first-use
	// order — and idx its inverse, without the empty string. Both live with
	// the pooled encoder and are emptied by done.
	strs []string
	idx  map[string]uint64
}

// encPool recycles encoders. Encoding runs from several stages' cache hooks
// and from key hashing, none of which holds a worker lane, and the result
// outlives any lane because the cache keeps it: an encoder writes into a
// pooled buffer, grown to the largest artifact it has held, and returns an
// exactly sized copy (done).
var encPool = sync.Pool{New: func() any { return &enc{idx: make(map[string]uint64)} }}

// newEnc returns a pooled encoder holding the header of a kind artifact.
func newEnc(kind byte) *enc {
	e := encPool.Get().(*enc)
	e.b = append(e.b[:0], magic[0], magic[1], magic[2], version(kind), kind)
	e.tableAt = -1
	return e
}

// startTable marks the end of the header: the string table is written here,
// and everything after it may refer to the table (ref). Its first entry is
// the empty string, which most instructions' Sym is, so ref writes it
// without a lookup.
func (e *enc) startTable() {
	e.tableAt = len(e.b)
	e.strs = append(e.strs[:0], "")
}

// done returns the encoded bytes as a copy with cap == len, so the caller
// (the cache keeps artifacts for the life of the process) holds neither
// spare capacity nor the buffer, which goes back to the pool. The string
// table, when there is one, is written into the copy between the header and
// the body: a count, each string's length, then the strings back to back.
// e must not be used afterwards.
func (e *enc) done() []byte {
	if e.tableAt < 0 {
		out := make([]byte, len(e.b))
		copy(out, e.b)
		encPool.Put(e)
		return out
	}
	size := uvarintLen(uint64(len(e.strs)))
	for _, s := range e.strs {
		size += uvarintLen(uint64(len(s))) + len(s)
	}
	out := make([]byte, 0, len(e.b)+size)
	out = append(out, e.b[:e.tableAt]...)
	out = binary.AppendUvarint(out, uint64(len(e.strs)))
	for _, s := range e.strs {
		out = binary.AppendUvarint(out, uint64(len(s)))
	}
	for _, s := range e.strs {
		out = append(out, s...)
	}
	out = append(out, e.b[e.tableAt:]...)
	clear(e.strs)
	e.strs = e.strs[:0]
	clear(e.idx)
	encPool.Put(e)
	return out
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

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

// s writes s inline, length first (stubs and the LLIR summary).
func (e *enc) s(s string) {
	e.u(uint64(len(s)))
	e.b = append(e.b, s...)
}

// ref writes s as its string-table index, adding it to the table on first use.
func (e *enc) ref(s string) {
	if s == "" {
		e.b = append(e.b, 0)
		return
	}
	i, ok := e.idx[s]
	if !ok {
		i = uint64(len(e.strs))
		e.idx[s] = i
		e.strs = append(e.strs, s)
	}
	e.u(i)
}

// ---- decoder ----

type dec struct {
	b   []byte
	err error
	// strs is the artifact's string table (table).
	strs []string
}

func newDec(data []byte, kind byte) *dec {
	d := &dec{b: data}
	if len(data) < 5 || data[0] != magic[0] || data[1] != magic[1] || data[2] != magic[2] {
		d.fail("bad magic")
		return d
	}
	if data[3] != version(kind) {
		d.fail("schema version %d, want %d", data[3], version(kind))
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

// s reads a string written inline by enc.s.
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

// table reads the string table enc.done wrote. Every entry is a slice of
// one backing string, so the table costs two allocations however many
// strings the artifact holds, and the body's strings none.
func (d *dec) table() {
	n := d.count()
	lens := d.b
	var total uint64
	for i := 0; i < n && d.err == nil; i++ {
		l := d.u()
		if l > uint64(len(d.b)) || total+l > uint64(len(d.b)) {
			d.fail("string table needs more than the %d remaining bytes", len(d.b))
		}
		total += l
	}
	if d.err != nil {
		return
	}
	blob := string(d.b[:total])
	d.b = d.b[total:]
	d.strs = make([]string, n)
	for i := range d.strs {
		l, w := binary.Uvarint(lens)
		lens = lens[w:]
		d.strs[i], blob = blob[:l], blob[l:]
	}
}

// ref reads a string-table index written by enc.ref.
func (d *dec) ref() string {
	i := d.u()
	if d.err != nil {
		return ""
	}
	if i >= uint64(len(d.strs)) {
		d.fail("string index %d past the %d-entry table", i, len(d.strs))
		return ""
	}
	return d.strs[i]
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
// Summary), the string table, then the body.
func EncodeModule(m *llir.Module) []byte {
	e := newEnc(kindLLIR)
	encodeSummary(e, Summarize(m))
	e.startTable()
	e.ref(m.Name)
	e.u(uint64(len(m.Funcs)))
	for _, f := range m.Funcs {
		e.ref(f.Name)
		e.ref(f.Module)
		e.u(uint64(f.NumParams))
		e.bool(f.Throws)
		e.u(uint64(f.NumValues))
		e.u(uint64(len(f.Blocks)))
		for _, b := range f.Blocks {
			e.ref(b.Label)
			e.u(uint64(len(b.Insts)))
			for i := range b.Insts {
				encodeLLIRInst(e, &b.Insts[i])
			}
		}
	}
	e.u(uint64(len(m.Globals)))
	for _, g := range m.Globals {
		e.ref(g.Name)
		e.ref(g.Module)
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
		e.ref(k)
		e.ref(m.Metadata[k])
	}
	return e.done()
}

func encodeLLIRInst(e *enc, in *llir.Inst) {
	e.byte(byte(in.Op))
	e.i(int64(in.Dst))
	e.i(int64(in.A))
	e.i(int64(in.B))
	e.i(int64(in.ErrDst()))
	e.i(in.Imm)
	e.ref(in.Sym)
	e.ref(in.Else())
	e.byte(byte(in.BinOp))
	e.byte(byte(in.Cond))
	e.bool(in.Throws)
	args := in.Args()
	e.u(uint64(len(args)))
	for _, a := range args {
		e.i(int64(a))
	}
	incs := in.Incomings()
	e.u(uint64(len(incs)))
	for _, inc := range incs {
		e.ref(inc.Pred)
		e.i(int64(inc.Val))
	}
}

// DecodeModule reconstructs a module encoded by EncodeModule, skipping the
// summary header. Any corruption is reported as an error (the cache treats it
// as a miss).
func DecodeModule(data []byte) (*llir.Module, error) {
	d := newDec(data, kindLLIR)
	d.section()
	d.table()
	m := llir.NewModule(d.ref())
	nf := d.count()
	for i := 0; i < nf && d.err == nil; i++ {
		f := &llir.Func{
			Name:      d.ref(),
			Module:    d.ref(),
			NumParams: int(d.u()),
			Throws:    d.bool(),
			NumValues: int(d.u()),
		}
		nb := d.count()
		for j := 0; j < nb && d.err == nil; j++ {
			b := &llir.Block{Label: d.ref()}
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
		g := &llir.Global{Name: d.ref(), Module: d.ref()}
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
		k := d.ref()
		m.Metadata[k] = d.ref()
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return m, nil
}

func decodeLLIRInst(d *dec, in *llir.Inst) {
	var ext llir.Ext
	in.Op = llir.Op(d.byte())
	in.Dst = d.val()
	in.A = d.val()
	in.B = d.val()
	ext.ErrDst = d.val()
	in.Imm = d.i()
	in.Sym = d.ref()
	ext.Else = d.ref()
	in.BinOp = llir.BinKind(d.byte())
	in.Cond = llir.CondKind(d.byte())
	in.Throws = d.bool()
	na := d.count()
	if d.err == nil && na > 0 {
		ext.Args = make([]llir.Value, na)
		for i := range ext.Args {
			ext.Args[i] = d.val()
		}
	}
	ni := d.count()
	if d.err == nil && ni > 0 {
		ext.Incomings = make([]llir.Incoming, ni)
		for i := range ext.Incomings {
			ext.Incomings[i].Pred = d.ref()
			ext.Incomings[i].Val = d.val()
		}
	}
	if ext.ErrDst != llir.None || ext.Else != "" || na > 0 || ni > 0 {
		e := ext // only a record in use escapes
		in.Ext = &e
	}
}

// val reads an LLIR value, failing on one that llir.Value cannot hold
// rather than wrapping it onto a valid value.
func (d *dec) val() llir.Value {
	v := d.i()
	if v != int64(llir.Value(v)) {
		d.fail("LLIR value %d out of range", v)
		return llir.None
	}
	return llir.Value(v)
}

// ---- machine programs ----

// EncodeMachine serializes a machine program plus the outlining statistics
// that produced it (st may be nil when outlining did not run): the string
// table, the program, then the statistics. The layout is part of
// SchemaVersion.
func EncodeMachine(p *mir.Program, st *outline.Stats) []byte {
	e := newEnc(kindMachine)
	e.startTable()
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
		e.ref(f.Name)
		e.ref(f.Module)
		e.bool(f.Outlined)
		e.u(uint64(len(f.Blocks)))
		for _, blk := range f.Blocks {
			e.ref(blk.Label)
			e.u(uint64(len(blk.Insts)))
			for i := range blk.Insts {
				in := &blk.Insts[i]
				e.b = append(e.b, byte(in.Op), byte(in.Rd), byte(in.Rd2), byte(in.Rn), byte(in.Rm))
				e.i(in.Imm)
				e.ref(in.Sym)
				e.byte(byte(in.Cond))
			}
		}
	}
	e.u(uint64(len(p.Globals)))
	for _, g := range p.Globals {
		e.ref(g.Name)
		e.ref(g.Module)
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
	d.table()
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

// program decodes a machine program into exact containers: one Function
// slab and one exact Funcs list per program, one Block slab and one exact
// Blocks list per function, one exact Insts slice per block. Blocks keep
// cap(Insts) == len(Insts) so an append to one block (the outliner's
// rewrites) reallocates instead of writing into a neighbour. The name index
// is left to the first lookup: per-module programs go straight to ld, which
// indexes the linked program once. Duplicate names are found by sorting a
// copy of the names instead.
func (d *dec) program() *mir.Program {
	nf := d.count()
	fs := make([]mir.Function, nf)
	funcs := make([]*mir.Function, nf)
	names := make([]string, nf)
	for i := 0; i < nf && d.err == nil; i++ {
		f := &fs[i]
		f.Name, f.Module, f.Outlined = d.ref(), d.ref(), d.bool()
		nb := d.count()
		bs := make([]mir.Block, nb)
		f.Blocks = make([]*mir.Block, nb)
		for j := 0; j < nb && d.err == nil; j++ {
			b := &bs[j]
			b.Label = d.ref()
			if ni := d.count(); ni > 0 {
				b.Insts = make([]isa.Inst, ni)
				d.insts(b.Insts)
			}
			f.Blocks[j] = b
		}
		funcs[i], names[i] = f, f.Name
	}
	if d.err == nil {
		sort.Strings(names)
		for i := 1; i < len(names); i++ {
			if names[i] == names[i-1] {
				d.fail("duplicate function %q", names[i])
				break
			}
		}
	}
	ng := d.count()
	gs := make([]mir.Global, ng)
	globals := make([]*mir.Global, ng)
	for i := 0; i < ng && d.err == nil; i++ {
		g := &gs[i]
		g.Name, g.Module = d.ref(), d.ref()
		nw := d.count()
		if d.err == nil && nw > 0 {
			g.Words = make([]int64, nw)
			for k := range g.Words {
				g.Words[k] = d.i()
			}
		}
		globals[i] = g
	}
	return &mir.Program{Funcs: funcs, Globals: globals}
}

// insts fills out with the instruction records at the front of d.b, each
// op, rd, rd2, rn, rm (one byte apiece), a varint immediate, a uvarint
// string-table index for Sym and the condition byte. It reads from a local
// slice: one length check for the fixed bytes, the varint readers' own
// truncation signals, one check for the condition byte.
func (d *dec) insts(out []isa.Inst) {
	if d.err != nil {
		return
	}
	b, strs := d.b, d.strs
	for k := range out {
		if len(b) < 5 {
			d.fail("truncated instruction")
			return
		}
		in := &out[k]
		in.Op, in.Rd, in.Rd2, in.Rn, in.Rm = isa.Op(b[0]), isa.Reg(b[1]), isa.Reg(b[2]), isa.Reg(b[3]), isa.Reg(b[4])
		imm, n := binary.Varint(b[5:])
		if n <= 0 {
			d.fail("truncated or overlong instruction immediate")
			return
		}
		b = b[5+n:]
		sym, n := binary.Uvarint(b)
		if n <= 0 || sym >= uint64(len(strs)) {
			d.fail("instruction symbol index is truncated or past the %d-entry table", len(strs))
			return
		}
		b = b[n:]
		if len(b) == 0 {
			d.fail("truncated instruction condition")
			return
		}
		in.Imm, in.Sym, in.Cond = imm, strs[sym], isa.Cond(b[0])
		b = b[1:]
	}
	d.b = b
}
