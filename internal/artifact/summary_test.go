package artifact

import (
	"reflect"
	"testing"

	"outliner/internal/llir"
)

// The summary header must say exactly what a walk of the body says.
func TestSummaryMatchesBody(t *testing.T) {
	m := sampleModule()
	m.Funcs[1].Blocks[0].Insts = append([]llir.Inst{
		{Op: llir.GlobalAddr, Dst: 1, Sym: "tab"},
		{Op: llir.Call, Dst: 2, Sym: "g"},
		{Op: llir.Call, Dst: 2, Sym: llir.RTRetain},
	}, m.Funcs[1].Blocks[0].Insts...)
	want := &Summary{
		Funcs:   []string{"f", "g"},
		Globals: []string{"tab"},
		Refs:    []string{"g", llir.RTRetain, "tab"},
	}
	if got := Summarize(m); !reflect.DeepEqual(got, want) {
		t.Fatalf("Summarize = %+v, want %+v", got, want)
	}
	got, err := DecodeSummary(EncodeModule(m))
	if err != nil {
		t.Fatalf("DecodeSummary: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeSummary = %+v, want %+v", got, want)
	}
}

// Truncating anywhere inside the header must fail; once the header is whole,
// DecodeSummary succeeds whatever became of the body — that is DecodeModule's
// to reject.
func TestSummaryDecodeTruncations(t *testing.T) {
	m := sampleModule()
	enc := EncodeModule(m)
	headerEnd := len(enc) - len(bodyOf(t, enc))
	for i := 0; i < headerEnd; i++ {
		if _, err := DecodeSummary(enc[:i]); err == nil {
			t.Fatalf("DecodeSummary accepted a %d-byte truncation (header is %d bytes)", i, headerEnd)
		}
	}
	for i := headerEnd; i < len(enc); i++ {
		if _, err := DecodeSummary(enc[:i]); err != nil {
			t.Fatalf("DecodeSummary rejected a whole header followed by a truncated body: %v", err)
		}
		if _, err := DecodeModule(enc[:i]); err == nil {
			t.Fatalf("DecodeModule accepted a %d-byte truncation", i)
		}
	}
}

// bodyOf returns the bytes after the summary section.
func bodyOf(t *testing.T, enc []byte) []byte {
	t.Helper()
	d := newDec(enc, kindLLIR)
	d.section()
	if d.err != nil {
		t.Fatal(d.err)
	}
	return d.b
}

// hostileSummary hand-assembles an LLIR artifact: a valid header, a summary
// section holding sec's bytes, then a valid body.
func hostileSummary(t *testing.T, declaredLen int, sec func(e *enc)) []byte {
	t.Helper()
	inner := &enc{}
	sec(inner)
	if declaredLen < 0 {
		declaredLen = len(inner.b)
	}
	e := newEnc(kindLLIR)
	e.u(uint64(declaredLen))
	e.b = append(e.b, inner.b...)
	e.b = append(e.b, bodyOf(t, EncodeModule(sampleModule()))...)
	return e.b
}

func TestSummaryDecodeRejectsHostileBytes(t *testing.T) {
	lists := func(funcs, globals, refs []string) func(e *enc) {
		return func(e *enc) {
			for _, l := range [][]string{funcs, globals, refs} {
				e.u(uint64(len(l)))
				for _, s := range l {
					e.s(s)
				}
			}
		}
	}
	valid := hostileSummary(t, -1, lists([]string{"f", "g"}, []string{"tab"}, []string{"g"}))
	if _, err := DecodeSummary(valid); err != nil {
		t.Fatalf("the hand-assembled baseline must decode: %v", err)
	}
	if _, err := DecodeModule(valid); err != nil {
		t.Fatalf("the hand-assembled baseline's body must decode: %v", err)
	}
	for name, data := range map[string][]byte{
		"section length bomb": hostileSummary(t, 1<<40, lists(nil, nil, nil)),
		"count bomb":          hostileSummary(t, -1, func(e *enc) { e.u(1 << 40) }),
		"string length bomb":  hostileSummary(t, -1, func(e *enc) { e.u(1); e.u(1 << 40) }),
		"duplicate function":  hostileSummary(t, -1, lists([]string{"f", "f"}, nil, nil)),
		"duplicate global":    hostileSummary(t, -1, lists(nil, []string{"t", "t"}, nil)),
		"duplicate ref":       hostileSummary(t, -1, lists(nil, nil, []string{"r", "r"})),
		"missing list":        hostileSummary(t, -1, func(e *enc) { e.u(0); e.u(0) }),
		"trailing bytes in section": hostileSummary(t, -1, func(e *enc) {
			lists(nil, nil, nil)(e)
			e.byte(0)
		}),
		"wrong kind": EncodeMachine(sampleProgram()),
	} {
		if _, err := DecodeSummary(data); err == nil {
			t.Errorf("DecodeSummary accepted %s", name)
		}
	}
}

func TestSummaryDecodeBitFlipsNeverPanic(t *testing.T) {
	enc := EncodeModule(sampleModule())
	for i := range enc {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0xff
		DecodeSummary(mut)
	}
}

func FuzzDecodeSummary(f *testing.F) {
	f.Add(EncodeModule(sampleModule()))
	f.Add([]byte{'S', 'L', 'A', SchemaVersion, kindLLIR, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) {
		DecodeSummary(data)
		DecodeModule(data)
	})
}
