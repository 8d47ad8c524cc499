package mir_test

// mir holds the machine program and its text form. Its structural checker is
// verify.Program and its binary codec lives in artifact; both import mir, so
// the tests that run mir programs through them sit in this external package.

import (
	"bytes"
	"strings"
	"testing"

	"outliner/internal/artifact"
	"outliner/internal/isa"
	"outliner/internal/llir"
	"outliner/internal/mir"
	"outliner/internal/verify"
)

// framedSrc is a clean two-function program with a frame in each, a
// conditional branch, a call between them, a runtime call and a global: each
// case of TestVerifyCatchesBreakage breaks one thing in it.
const framedSrc = `
func @release_x20 module "RiderCore" {
entry:
  STPXpre $x29, $x30, $sp, #-16
  ORRXrs $x0, $xzr, $x20
  BL @swift_release
  LDPXpost $x29, $x30, $sp, #16
  RET
}

func @caller module "RiderCore" {
entry:
  STPXpre $x29, $x30, $sp, #-16
  MOVZXi $x0, #5
  CMPXri $x0, #0
  Bcc.eq @done
body:
  BL @release_x20
done:
  LDPXpost $x29, $x30, $sp, #16
  RET
}

global @gTable module "RiderCore" = [1, 2, 3]
`

func parse(t *testing.T, src string) *mir.Program {
	t.Helper()
	p, err := mir.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return p
}

func TestVerifyAcceptsSample(t *testing.T) {
	if err := verify.Program(parse(t, framedSrc), llir.RuntimeSyms).Err(); err != nil {
		t.Fatalf("verify.Program: %v", err)
	}
}

func TestVerifyCatchesBreakage(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(caller *mir.Function)
		want   string
	}{
		{"unknown call", func(f *mir.Function) {
			f.Blocks[1].Insts[0] = isa.Inst{Op: isa.BL, Sym: "nonexistent"}
		}, `call to undefined symbol "nonexistent"`},
		{"unknown branch", func(f *mir.Function) {
			f.Blocks[0].Insts[3] = isa.Inst{Op: isa.Bcc, Cond: isa.EQ, Sym: "nowhere"}
		}, `unknown label "nowhere"`},
		{"non-terminator after terminator", func(f *mir.Function) {
			f.Blocks[0].Insts[0] = isa.Inst{Op: isa.RET}
		}, "after terminator"},
		{"missing final terminator", func(f *mir.Function) {
			f.Blocks[2].Insts = nil
		}, "falls through off the end"},
		{"duplicate label", func(f *mir.Function) {
			f.Blocks[1].Label = "entry"
		}, "duplicate block label"},
		{"unknown adr", func(f *mir.Function) {
			f.Blocks[0].Insts[1] = isa.Inst{Op: isa.ADR, Rd: isa.X0, Sym: "noglobal"}
		}, `address of unknown symbol "noglobal"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := parse(t, framedSrc)
			c.mutate(p.Func("caller"))
			r := verify.Program(p, llir.RuntimeSyms)
			found := false
			for _, v := range r.Violations {
				if strings.Contains(v.Msg, c.want) {
					found = true
				}
				if v.Func == "" {
					t.Errorf("violation without function context: %s", v)
				}
			}
			if !found || r.Err() == nil {
				t.Fatalf("violations %v do not mention %q", r.Violations, c.want)
			}
		})
	}
}

// codecTestProgram spreads functions and a global over two modules, with a
// global word that needs a long varint.
func codecTestProgram() *mir.Program {
	p := mir.NewProgram()
	p.AddFunc(&mir.Function{Name: "main", Module: "App", Blocks: []*mir.Block{{Label: "entry", Insts: []isa.Inst{
		{Op: isa.MOVZ, Rd: isa.X0, Imm: 7},
		{Op: isa.BL, Sym: "helper"},
		{Op: isa.RET},
	}}}})
	p.AddFunc(&mir.Function{Name: "helper", Module: "Lib", Outlined: true, Blocks: []*mir.Block{{Label: "entry", Insts: []isa.Inst{
		{Op: isa.ADDrs, Rd: isa.X0, Rn: isa.X0, Rm: isa.X1},
		{Op: isa.RET},
	}}}})
	p.AddGlobal(&mir.Global{Name: "table", Module: "App", Words: []int64{1, -2, 1 << 40}})
	return p
}

func TestProgramCodecRoundTrip(t *testing.T) {
	p := codecTestProgram()
	enc := artifact.EncodeMachine(p, nil)
	got, st, err := artifact.DecodeMachine(enc)
	if err != nil {
		t.Fatal(err)
	}
	if st != nil {
		t.Fatalf("want nil stats, got %+v", st)
	}
	if got.String() != p.String() {
		t.Fatalf("round trip mismatch:\n%s\nvs\n%s", got.String(), p.String())
	}
	if got.Func("helper") == nil || !got.Func("helper").Outlined {
		t.Fatal("decoded program lost function index or Outlined flag")
	}
	// Canonical: re-encoding the decoded program reproduces the bytes.
	if !bytes.Equal(artifact.EncodeMachine(got, nil), enc) {
		t.Fatal("re-encoding is not canonical")
	}
}

// TestDecodeProgramHostileBytes: every truncation errors; no byte flip panics.
func TestDecodeProgramHostileBytes(t *testing.T) {
	enc := artifact.EncodeMachine(codecTestProgram(), nil)
	for cut := 0; cut < len(enc); cut++ {
		if _, _, err := artifact.DecodeMachine(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d bytes decoded", cut, len(enc))
		}
	}
	for i := range enc {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0xff
		artifact.DecodeMachine(mut)
	}
}

func TestDecodeProgramDuplicateFunction(t *testing.T) {
	p := codecTestProgram()
	p.Funcs = append(p.Funcs, p.Func("helper")) // bypasses AddFunc's duplicate panic
	if _, _, err := artifact.DecodeMachine(artifact.EncodeMachine(p, nil)); err == nil || !strings.Contains(err.Error(), `duplicate function "helper"`) {
		t.Fatalf("duplicate function decoded: %v", err)
	}
}
