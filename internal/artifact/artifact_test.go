package artifact

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"outliner/internal/isa"
	"outliner/internal/llir"
	"outliner/internal/mir"
	"outliner/internal/outline"
	"outliner/internal/raceflag"
)

// sampleModule exercises every encoded field: multi-block functions, negative
// immediates, phi incomings, call args, globals, and metadata.
func sampleModule() *llir.Module {
	m := llir.NewModule("app")
	m.Metadata["Objective-C Garbage Collection"] = "swiftc abi-v7.0"
	m.Metadata["source"] = "test"
	f := &llir.Func{Name: "f", Module: "app", NumParams: 2, Throws: true, NumValues: 9}
	f.Blocks = []*llir.Block{
		{Label: "entry", Insts: []llir.Inst{
			{Op: llir.Bin, Dst: 2, A: 0, B: 1, BinOp: llir.Add},
			{Op: llir.Cmp, Dst: 3, A: 2, B: 0, Cond: llir.Lt},
			{Op: llir.CondBr, A: 3, Sym: "then", Ext: &llir.Ext{Else: "join"}},
		}},
		{Label: "then", Insts: []llir.Inst{
			{Op: llir.Const, Dst: 4, Imm: -42},
			{Op: llir.Call, Dst: 5, Sym: "g", Throws: true, Ext: &llir.Ext{Args: []llir.Value{4, 2}, ErrDst: 6}},
			{Op: llir.Br, Sym: "join"},
		}},
		{Label: "join", Insts: []llir.Inst{
			{Op: llir.Phi, Dst: 7, Ext: &llir.Ext{Incomings: []llir.Incoming{{Pred: "entry", Val: 2}, {Pred: "then", Val: 5}}}},
			{Op: llir.Ret, A: 7},
		}},
	}
	m.AddFunc(f)
	g := &llir.Func{Name: "g", Module: "app", NumParams: 2, NumValues: 3}
	g.Blocks = []*llir.Block{{Label: "entry", Insts: []llir.Inst{{Op: llir.Ret, A: 0}}}}
	m.AddFunc(g)
	m.Globals = append(m.Globals, &llir.Global{Name: "tab", Module: "app", Words: []int64{1, -2, 1 << 40}})
	return m
}

func sampleProgram() (*mir.Program, *outline.Stats) {
	p := mir.NewProgram()
	f := &mir.Function{Name: "main", Module: "app"}
	f.Blocks = []*mir.Block{
		{Label: "entry", Insts: []isa.Inst{
			{Op: isa.MOVZ, Rd: isa.X0, Imm: 7},
			{Op: isa.STRpre, Rd: isa.LR, Rn: isa.SP, Imm: -16},
			{Op: isa.BL, Sym: "helper"},
			{Op: isa.LDRpost, Rd: isa.LR, Rn: isa.SP, Imm: 16},
			{Op: isa.RET},
		}},
	}
	p.AddFunc(f)
	h := &mir.Function{Name: "helper", Module: "app", Outlined: true}
	h.Blocks = []*mir.Block{{Label: "entry", Insts: []isa.Inst{
		{Op: isa.ADDrs, Rd: isa.X0, Rn: isa.X0, Rm: isa.X1},
		{Op: isa.RET},
	}}}
	p.AddFunc(h)
	p.AddGlobal(&mir.Global{Name: "tab", Module: "app", Words: []int64{3, 4}})
	st := &outline.Stats{Rounds: []outline.RoundStats{
		{Round: 1, SequencesOutlined: 12, FunctionsCreated: 3, OutlinedBytes: 96, BytesSaved: 200},
		{Round: 2, SequencesOutlined: 1, FunctionsCreated: 1, OutlinedBytes: 8, BytesSaved: 4},
	}}
	return p, st
}

// Encoding is canonical, so a decode that re-encodes to the original bytes
// proves the round trip lossless field by field.
func TestModuleRoundTrip(t *testing.T) {
	m := sampleModule()
	enc := EncodeModule(m)
	got, err := DecodeModule(enc)
	if err != nil {
		t.Fatalf("DecodeModule: %v", err)
	}
	if !bytes.Equal(EncodeModule(got), enc) {
		t.Fatal("module round trip is not canonical: re-encoded bytes differ")
	}
	if got.Name != m.Name || len(got.Funcs) != len(m.Funcs) || len(got.Globals) != len(m.Globals) {
		t.Fatalf("decoded shape mismatch: %s/%d/%d", got.Name, len(got.Funcs), len(got.Globals))
	}
	// The decoded module must answer name lookups (AddFunc indexed them).
	if got.Func("g") == nil {
		t.Fatal("decoded module does not index functions by name")
	}
}

func TestMachineRoundTrip(t *testing.T) {
	p, st := sampleProgram()
	enc := EncodeMachine(p, st)
	gp, gst, err := DecodeMachine(enc)
	if err != nil {
		t.Fatalf("DecodeMachine: %v", err)
	}
	if !bytes.Equal(EncodeMachine(gp, gst), enc) {
		t.Fatal("machine round trip is not canonical: re-encoded bytes differ")
	}
	// The program section does not depend on the stats: without them the
	// artifact ends, after a no-stats flag byte, where this one's stats begin.
	bare := EncodeMachine(p, nil)
	if !bytes.HasPrefix(enc, bare[:len(bare)-1]) {
		t.Fatal("the machine artifact's program section depends on its stats")
	}
	if gp.String() != p.String() {
		t.Fatal("decoded program renders differently")
	}
	if gp.Func("helper") == nil || !gp.Func("helper").Outlined {
		t.Fatal("decoded program lost function index or Outlined flag")
	}
	if len(gst.Rounds) != 2 || gst.Rounds[0] != st.Rounds[0] || gst.Rounds[1] != st.Rounds[1] {
		t.Fatalf("decoded stats mismatch: %+v", gst)
	}
}

func TestMachineNilStats(t *testing.T) {
	p, _ := sampleProgram()
	gp, gst, err := DecodeMachine(EncodeMachine(p, nil))
	if err != nil {
		t.Fatalf("DecodeMachine: %v", err)
	}
	if gst != nil {
		t.Fatalf("want nil stats, got %+v", gst)
	}
	if gp.String() != p.String() {
		t.Fatal("decoded program renders differently")
	}
}

// A decoded program owns exact containers: every Funcs, Blocks and Insts
// slice has cap == len, so an append (the outliner's rewrites) reallocates
// instead of writing into the next function's or block's storage.
func TestDecodeMachineExactContainers(t *testing.T) {
	p := mir.NewProgram()
	for _, name := range []string{"a", "b", "c"} {
		f := &mir.Function{Name: name, Module: "app"}
		for _, label := range []string{"entry", "loop", "exit"} {
			f.Blocks = append(f.Blocks, &mir.Block{Label: label, Insts: []isa.Inst{
				{Op: isa.MOVZ, Rd: isa.X0, Imm: int64(len(label))},
				{Op: isa.BL, Sym: name},
			}})
		}
		p.AddFunc(f)
	}
	p.AddGlobal(&mir.Global{Name: "tab", Module: "app", Words: []int64{1}})
	gp, _, err := DecodeMachine(EncodeMachine(p, nil))
	if err != nil {
		t.Fatal(err)
	}
	if cap(gp.Funcs) != len(gp.Funcs) || cap(gp.Globals) != len(gp.Globals) {
		t.Errorf("Funcs cap %d len %d, Globals cap %d len %d", cap(gp.Funcs), len(gp.Funcs), cap(gp.Globals), len(gp.Globals))
	}
	for _, f := range gp.Funcs {
		if cap(f.Blocks) != len(f.Blocks) {
			t.Errorf("@%s: Blocks cap %d, len %d", f.Name, cap(f.Blocks), len(f.Blocks))
		}
		for _, b := range f.Blocks {
			if cap(b.Insts) != len(b.Insts) {
				t.Errorf("@%s %s: Insts cap %d, len %d", f.Name, b.Label, cap(b.Insts), len(b.Insts))
			}
		}
	}

	want := gp.String()
	mid := gp.Funcs[1]
	mid.Blocks[1].Insts = append(mid.Blocks[1].Insts, isa.Inst{Op: isa.RET})
	mid.Blocks = append(mid.Blocks, &mir.Block{Label: "extra", Insts: []isa.Inst{{Op: isa.RET}}})
	mid.Blocks[1].Insts = mid.Blocks[1].Insts[:2]
	mid.Blocks = mid.Blocks[:3]
	if got := gp.String(); got != want {
		t.Fatalf("appending to one block and one function moved a neighbour:\n%s\nwant\n%s", got, want)
	}
	if gp.Func("b") != mid {
		t.Fatal("decoded program does not index functions by name")
	}
}

// Every truncation of a valid artifact must decode to an error — never a
// panic, never a silently partial artifact.
func TestDecodeTruncationsError(t *testing.T) {
	for _, m := range []*llir.Module{sampleModule(), extremeModule()} {
		enc := EncodeModule(m)
		for i := 0; i < len(enc); i++ {
			if _, err := DecodeModule(enc[:i]); err == nil {
				t.Fatalf("DecodeModule accepted a %d-byte truncation of %d bytes", i, len(enc))
			}
		}
	}
	p, st := sampleProgram()
	for _, p := range []*mir.Program{p, extremeProgram()} {
		menc := EncodeMachine(p, st)
		for i := 0; i < len(menc); i++ {
			if _, _, err := DecodeMachine(menc[:i]); err == nil {
				t.Fatalf("DecodeMachine accepted a %d-byte truncation of %d bytes", i, len(menc))
			}
		}
	}
}

// extremeProgram's immediates take the longest varints (ten bytes).
func extremeProgram() *mir.Program {
	p := mir.NewProgram()
	f := &mir.Function{Name: "extremes", Module: "app"}
	f.Blocks = []*mir.Block{{Label: "entry", Insts: []isa.Inst{
		{Op: isa.MOVZ, Rd: isa.X0, Imm: math.MinInt64},
		{Op: isa.MOVZ, Rd: isa.X1, Imm: math.MaxInt64},
		{Op: isa.BL, Sym: "callee", Imm: math.MinInt64},
		{Op: isa.RET, Imm: math.MaxInt64, Cond: isa.CondNone},
	}}}
	p.AddFunc(f)
	p.AddGlobal(&mir.Global{Name: "g", Module: "app", Words: []int64{math.MinInt64, math.MaxInt64}})
	return p
}

func extremeModule() *llir.Module {
	m := llir.NewModule("app")
	f := &llir.Func{Name: "extremes", Module: "app", NumValues: 3}
	f.Blocks = []*llir.Block{{Label: "entry", Insts: []llir.Inst{
		{Op: llir.Const, Dst: 1, Imm: math.MinInt64},
		{Op: llir.Const, Dst: 2, Imm: math.MaxInt64},
		{Op: llir.Ret, A: 2},
	}}}
	m.AddFunc(f)
	return m
}

// manySyms returns n distinct symbol names.
func manySyms(n int) []string {
	syms := make([]string, n)
	for i := range syms {
		syms[i] = fmt.Sprintf("s%d", i)
	}
	return syms
}

// callProgram is one function calling each of syms in turn.
func callProgram(syms []string) *mir.Program {
	p := mir.NewProgram()
	f := &mir.Function{Name: "caller", Module: "app"}
	b := &mir.Block{Label: "entry"}
	for _, s := range syms {
		b.Insts = append(b.Insts, isa.Inst{Op: isa.BL, Sym: s})
	}
	b.Insts = append(b.Insts, isa.Inst{Op: isa.RET})
	f.Blocks = []*mir.Block{b}
	p.AddFunc(f)
	return p
}

// tableLen reads the string table of a kind artifact.
func tableLen(t *testing.T, data []byte, kind byte) int {
	t.Helper()
	d := newDec(data, kind)
	if kind == kindLLIR {
		d.section()
	}
	d.table()
	if d.err != nil {
		t.Fatal(d.err)
	}
	return len(d.strs)
}

// TestRoundTripBoundaries: ten-byte varint immediates and string tables long
// enough for two- and three-byte indices round-trip byte for byte.
func TestRoundTripBoundaries(t *testing.T) {
	menc := EncodeMachine(extremeProgram(), nil)
	p, _, err := DecodeMachine(menc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(EncodeMachine(p, nil), menc) || p.String() != extremeProgram().String() {
		t.Fatal("extreme immediates do not round-trip")
	}
	enc := EncodeModule(extremeModule())
	m, err := DecodeModule(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(EncodeModule(m), enc) || m.Func("extremes").Blocks[0].Insts[0].Imm != math.MinInt64 {
		t.Fatal("extreme LLIR immediates do not round-trip")
	}

	syms := manySyms(1<<14 + 100)
	menc = EncodeMachine(callProgram(syms), nil)
	if n := tableLen(t, menc, kindMachine); n <= 1<<14 {
		t.Fatalf("machine table has %d entries; want some with three-byte indices", n)
	}
	p, _, err = DecodeMachine(menc)
	if err != nil {
		t.Fatal(err)
	}
	insts := p.Func("caller").Blocks[0].Insts
	for _, k := range []int{0, 127, 128, 1<<14 - 1, 1 << 14, len(syms) - 1} {
		if insts[k].Sym != syms[k] {
			t.Fatalf("instruction %d calls %q, want %q", k, insts[k].Sym, syms[k])
		}
	}
	if !bytes.Equal(EncodeMachine(p, nil), menc) {
		t.Fatal("a machine artifact with a large table does not round-trip")
	}

	m = llir.NewModule("app")
	f := &llir.Func{Name: "caller", Module: "app", NumValues: 1}
	b := &llir.Block{Label: "entry"}
	for _, s := range syms {
		b.Insts = append(b.Insts, llir.Inst{Op: llir.Call, Sym: s})
	}
	b.Insts = append(b.Insts, llir.Inst{Op: llir.Ret})
	f.Blocks = []*llir.Block{b}
	m.AddFunc(f)
	enc = EncodeModule(m)
	if n := tableLen(t, enc, kindLLIR); n <= 1<<14 {
		t.Fatalf("LLIR table has %d entries; want some with three-byte indices", n)
	}
	got, err := DecodeModule(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Func("caller").Blocks[0].Insts[len(syms)-1].Sym != syms[len(syms)-1] || !bytes.Equal(EncodeModule(got), enc) {
		t.Fatal("an LLIR artifact with a large table does not round-trip")
	}
}

// TestInstsRecordAtBufferEnd: the instruction reader accepts a record whose
// condition byte is the buffer's last, and rejects every shorter buffer and
// an overlong immediate.
func TestInstsRecordAtBufferEnd(t *testing.T) {
	want := isa.Inst{Op: isa.BL, Rd: isa.X1, Rd2: isa.X2, Rn: isa.X3, Rm: isa.X4, Imm: math.MinInt64, Sym: "x", Cond: isa.CondNone}
	rec := binary.AppendVarint([]byte{byte(want.Op), 1, 2, 3, 4}, want.Imm)
	rec = append(rec, 1, byte(want.Cond))
	strs := []string{"", "x"}
	d := &dec{b: rec, strs: strs}
	got := make([]isa.Inst, 1)
	d.insts(got)
	if err := d.done(); err != nil || got[0] != want {
		t.Fatalf("record at the buffer's end: %+v, %v", got[0], err)
	}
	for cut := 0; cut < len(rec); cut++ {
		d := &dec{b: rec[:cut], strs: strs}
		if d.insts(make([]isa.Inst, 1)); d.err == nil {
			t.Fatalf("the reader accepted %d of a %d-byte record", cut, len(rec))
		}
	}
	overlong := append([]byte{byte(isa.MOVZ), 0, 0, 0, 0}, bytes.Repeat([]byte{0x80}, 10)...)
	overlong = append(overlong, 0x01, 0, 0)
	d = &dec{b: overlong, strs: strs}
	if d.insts(make([]isa.Inst, 1)); d.err == nil {
		t.Fatal("the reader accepted an eleven-byte immediate")
	}
}

// tableCorruptions are kind artifacts with a corrupt string table: a body
// index equal to the table's length, a table count and a string length past
// the data, and a table count no input can back.
func tableCorruptions(kind byte) [][]byte {
	head := []byte{magic[0], magic[1], magic[2], SchemaVersion, kind}
	// The index past the table: the machine program's first function name
	// and the LLIR module name.
	past := []byte{1, 1, 'a', 1, 1}
	if kind == kindLLIR {
		head = append(head, 3, 0, 0, 0) // an empty summary
		past = []byte{1, 1, 'a', 1}
	}
	with := func(tail []byte) []byte { return append(bytes.Clone(head), tail...) }
	return [][]byte{
		with(past),
		with([]byte{3, 1}),
		with([]byte{1, 100, 'a', 'b'}),
		with(binary.AppendUvarint(nil, 1<<40)),
	}
}

func TestDecodeRejectsCorruptTables(t *testing.T) {
	for i, data := range tableCorruptions(kindMachine) {
		if _, _, err := DecodeMachine(data); err == nil {
			t.Errorf("DecodeMachine accepted table corruption %d", i)
		}
	}
	for i, data := range tableCorruptions(kindLLIR) {
		if _, err := DecodeModule(data); err == nil {
			t.Errorf("DecodeModule accepted table corruption %d", i)
		}
	}
}

// TestDecodeStringsCostNoAllocations: a decoded artifact's strings share the
// table's backing string, so a hundred times as many symbols cost no more
// allocations.
func TestDecodeStringsCostNoAllocations(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	allocs := func(n int) float64 {
		enc := EncodeMachine(callProgram(manySyms(n)), nil)
		return testing.AllocsPerRun(10, func() { DecodeMachine(enc) })
	}
	if few, many := allocs(10), allocs(1000); few != many {
		t.Fatalf("decoding 10 symbols: %v allocs, 1000 symbols: %v", few, many)
	}
}

// Flipping any single byte must never panic (the cache checksums entries, so
// decode sees flipped bytes only for in-memory corruption or crafted input —
// either way the failure mode must stay an error or a decoded artifact).
func TestDecodeBitFlipsNeverPanic(t *testing.T) {
	enc := EncodeModule(sampleModule())
	for i := range enc {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0xff
		DecodeModule(mut)
	}
	menc := EncodeMachine(sampleProgram())
	for i := range menc {
		mut := append([]byte(nil), menc...)
		mut[i] ^= 0xff
		DecodeMachine(mut)
	}
}

func TestDecodeRejectsWrongKindAndSchema(t *testing.T) {
	enc := EncodeModule(sampleModule())
	if _, _, err := DecodeMachine(enc); err == nil {
		t.Fatal("DecodeMachine accepted an LLIR artifact")
	}
	mut := append([]byte(nil), enc...)
	mut[3]++ // schema version byte
	if _, err := DecodeModule(mut); err == nil {
		t.Fatal("DecodeModule accepted a future schema version")
	}
}

// A stream carrying two same-name functions must fail decoding: AddFunc
// panics on duplicates, so the decoder has to pre-check.
func TestDecodeRejectsDuplicateFunctions(t *testing.T) {
	m := sampleModule()
	f := m.Func("g")
	m.Funcs = append(m.Funcs, f) // bypasses AddFunc's duplicate panic
	if _, err := DecodeModule(EncodeModule(m)); err == nil {
		t.Fatal("DecodeModule accepted duplicate function names")
	}

	p, _ := sampleProgram()
	p.Funcs = append(p.Funcs, p.Func("helper"))
	if _, _, err := DecodeMachine(EncodeMachine(p, nil)); err == nil || !strings.Contains(err.Error(), `duplicate function "helper"`) {
		t.Fatalf("DecodeMachine of duplicate function names: %v", err)
	}
}

// A machine artifact is the whole input: bytes after its statistics section
// are corruption, not a prefix to skip.
func TestDecodeRejectsTrailingBytes(t *testing.T) {
	menc := EncodeMachine(sampleProgram())
	if _, _, err := DecodeMachine(append(menc, 0)); err == nil || !strings.Contains(err.Error(), "trailing bytes") {
		t.Fatalf("DecodeMachine with a trailing byte: %v", err)
	}
}

// valueFields names the value operands of markedModule's instructions, the
// k-th holding markedValue(k).
var valueFields = []string{"Dst", "A", "B", "ErrDst", "Args[0]", "Incomings[0].Val"}

// markedValue is a value whose varint is five bytes long, as long as those of
// values just outside int32, and occurs nowhere else in markedModule's
// encoding.
func markedValue(k int) llir.Value { return llir.Value(0x40000000 + k) }

// markedModule holds every value operand the LLIR codec writes, each set to
// its own markedValue.
func markedModule() *llir.Module {
	m := llir.NewModule("app")
	f := &llir.Func{Name: "f", Module: "app", NumValues: 1}
	f.Blocks = []*llir.Block{{Label: "entry", Insts: []llir.Inst{
		{Op: llir.Bin, Dst: markedValue(0), A: markedValue(1), B: markedValue(2)},
		{Op: llir.Call, Sym: "g", Throws: true, Ext: &llir.Ext{ErrDst: markedValue(3), Args: []llir.Value{markedValue(4)}}},
		{Op: llir.Phi, Ext: &llir.Ext{Incomings: []llir.Incoming{{Pred: "entry", Val: markedValue(5)}}}},
		{Op: llir.Ret},
	}}}
	m.AddFunc(f)
	return m
}

// outOfRange returns markedModule's encoding with value field k replaced by
// v, a number of the same varint length.
func outOfRange(t testing.TB, k int, v int64) []byte {
	enc := EncodeModule(markedModule())
	marker := binary.AppendVarint(nil, int64(markedValue(k)))
	repl := binary.AppendVarint(nil, v)
	if len(repl) != len(marker) || bytes.Count(enc, marker) != 1 {
		t.Fatalf("%s: marker %x occurs %d times, replacement %x", valueFields[k], marker, bytes.Count(enc, marker), repl)
	}
	return bytes.Replace(enc, marker, repl, 1)
}

// TestDecodeRejectsOutOfRangeValues: a value operand holding a number
// llir.Value cannot hold fails the decode, rather than wrapping onto a valid
// value (2^32+1 onto 1).
func TestDecodeRejectsOutOfRangeValues(t *testing.T) {
	m, err := DecodeModule(EncodeModule(markedModule()))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.String(), markedModule().String(); got != want {
		t.Fatalf("decoded\n%s\nwant\n%s", got, want)
	}
	for k, field := range valueFields {
		for _, v := range []int64{math.MaxInt32 + 1 + int64(k), math.MinInt32 - 1 - int64(k), 1<<32 + 1 + int64(k)} {
			if _, err := DecodeModule(outOfRange(t, k, v)); err == nil || !strings.Contains(err.Error(), "out of range") {
				t.Errorf("%s = %d: DecodeModule error %v, want out of range", field, v, err)
			}
		}
	}
}

func FuzzDecodeMachine(f *testing.F) {
	p, st := sampleProgram()
	f.Add(EncodeMachine(p, st))
	f.Add(EncodeMachine(p, nil))
	f.Add(EncodeMachine(extremeProgram(), nil))
	f.Add(append([]byte{magic[0], magic[1], magic[2], SchemaVersion, kindMachine, 0}, binary.AppendUvarint(nil, 1<<40)...)) // a function count no input can back
	for _, data := range tableCorruptions(kindMachine) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, st, err := DecodeMachine(data)
		if err != nil {
			return
		}
		// Whatever decodes must re-encode to something that decodes.
		if _, _, err := DecodeMachine(EncodeMachine(p, st)); err != nil {
			t.Fatalf("re-encoded machine artifact does not decode: %v", err)
		}
	})
}

func FuzzDecodeModule(f *testing.F) {
	f.Add(EncodeModule(sampleModule()))
	f.Add(EncodeModule(extremeModule()))
	f.Add(EncodeModule(markedModule()))
	f.Add(outOfRange(f, 0, 1<<32+1))
	for _, data := range tableCorruptions(kindLLIR) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeModule(data)
		if err != nil {
			return
		}
		// Whatever decodes must re-encode to something that decodes.
		if _, err := DecodeModule(EncodeModule(m)); err != nil {
			t.Fatalf("re-encoded LLIR artifact does not decode: %v", err)
		}
	})
}

// wideModule is a module of n functions whose summary section is long enough
// for its length to take several uvarint bytes.
func wideModule(n int) *llir.Module {
	m := llir.NewModule("wide")
	for i := 0; i < n; i++ {
		f := &llir.Func{Name: fmt.Sprintf("function_with_a_long_name_%d", i), Module: "wide", NumValues: 1}
		f.Blocks = []*llir.Block{{Label: "entry", Insts: []llir.Inst{
			{Op: llir.Call, Dst: 1, Sym: fmt.Sprintf("callee_%d", i%7)},
			{Op: llir.Ret, A: 1},
		}}}
		m.AddFunc(f)
	}
	return m
}

// TestEncodeExactSize: every encoder returns a copy with cap == len, which no
// later encode (reusing the pooled buffer) changes, and encoders running on
// several goroutines at once give the serial bytes. The summary section,
// written in place and then shifted behind its length, is checked against
// the layout built by a separate encoder.
func TestEncodeExactSize(t *testing.T) {
	p, st := sampleProgram()
	stub := sampleStub(t)
	wide := wideModule(1000)
	encoders := []struct {
		name   string
		encode func() []byte
	}{
		{"stub", func() []byte { return EncodeStub(stub) }},
		{"module", func() []byte { return EncodeModule(sampleModule()) }},
		{"wide module", func() []byte { return EncodeModule(wide) }},
		{"machine", func() []byte { return EncodeMachine(p, st) }},
		{"machine without stats", func() []byte { return EncodeMachine(p, nil) }},
	}
	first := make([][]byte, len(encoders))
	want := make([][]byte, len(encoders))
	for i, e := range encoders {
		first[i] = e.encode()
		want[i] = bytes.Clone(first[i])
		if len(first[i]) != cap(first[i]) {
			t.Errorf("%s: len %d, cap %d", e.name, len(first[i]), cap(first[i]))
		}
	}
	for _, e := range encoders {
		e.encode()
	}
	for i, e := range encoders {
		if !bytes.Equal(first[i], want[i]) {
			t.Errorf("%s: a later encode changed an earlier result", e.name)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 10; k++ {
				for i, e := range encoders {
					if got := e.encode(); !bytes.Equal(got, want[i]) {
						t.Errorf("%s: a concurrent encode differs from the serial one", e.name)
					}
				}
			}
		}()
	}
	wg.Wait()

	sum := Summarize(wide)
	var sec enc
	for _, list := range [][]string{sum.Funcs, sum.Globals, sum.Refs} {
		sec.u(uint64(len(list)))
		for _, name := range list {
			sec.s(name)
		}
	}
	if len(sec.b) < 1<<14 {
		t.Fatalf("the wide module's summary is %d bytes; want one whose length takes three uvarint bytes", len(sec.b))
	}
	head := append([]byte{magic[0], magic[1], magic[2], byte(SchemaVersion), kindLLIR}, binary.AppendUvarint(nil, uint64(len(sec.b)))...)
	if enc := EncodeModule(wide); !bytes.HasPrefix(enc, append(head, sec.b...)) {
		t.Error("the wide module's artifact does not start with its header, the summary's length and the summary")
	}
}
