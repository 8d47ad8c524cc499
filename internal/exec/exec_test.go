package exec

import (
	"strings"
	"testing"

	"outliner/internal/mir"
)

func machine(t *testing.T, src string) *Machine {
	t.Helper()
	p, err := mir.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	m, err := New(p, Options{MaxSteps: 1_000_000})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func runMain(t *testing.T, src string) (string, *Machine) {
	t.Helper()
	m := machine(t, src)
	out, err := m.Run("main")
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return out, m
}

func TestArithmeticAndPrint(t *testing.T) {
	out, _ := runMain(t, `
func @main {
entry:
  STPXpre $x29, $x30, $sp, #-16
  MOVZXi $x0, #6
  MOVZXi $x1, #7
  MULXrr $x0, $x0, $x1
  BL @print_int
  LDPXpost $x29, $x30, $sp, #16
  RET
}
`)
	if out != "42\n" {
		t.Errorf("out = %q", out)
	}
}

func TestCallAndReturn(t *testing.T) {
	out, m := runMain(t, `
func @double {
entry:
  ADDXrs $x0, $x0, $x0
  RET
}
func @main {
entry:
  STPXpre $x29, $x30, $sp, #-16
  MOVZXi $x0, #21
  BL @double
  BL @print_int
  LDPXpost $x29, $x30, $sp, #16
  RET
}
`)
	if out != "42\n" {
		t.Errorf("out = %q", out)
	}
	if m.Stats().Calls != 2 {
		t.Errorf("calls = %d, want 2", m.Stats().Calls)
	}
}

func TestBranchesAndFlags(t *testing.T) {
	out, _ := runMain(t, `
func @main {
entry:
  STPXpre $x29, $x30, $sp, #-16
  MOVZXi $x19, #0
  MOVZXi $x20, #0
loop:
  ADDXri $x20, $x20, #2
  ADDXri $x19, $x19, #1
  CMPXri $x19, #5
  Bcc.lt @loop
done:
  ORRXrs $x0, $xzr, $x20
  BL @print_int
  LDPXpost $x29, $x30, $sp, #16
  RET
}
`)
	if out != "10\n" {
		t.Errorf("out = %q", out)
	}
}

func TestGlobalsAndADR(t *testing.T) {
	out, _ := runMain(t, `
func @main {
entry:
  STPXpre $x29, $x30, $sp, #-16
  ADRP $x1, @table
  LDRXui $x0, $x1, #16
  BL @print_int
  LDPXpost $x29, $x30, $sp, #16
  RET
}
global @table = [11, 22, 33]
`)
	if out != "33\n" {
		t.Errorf("out = %q", out)
	}
}

func TestHeapRuntime(t *testing.T) {
	// Allocate an array of 3, store/load an element, append, print lengths.
	out, m := runMain(t, `
func @main {
entry:
  STPXpre $x29, $x30, $sp, #-16
  MOVZXi $x0, #3
  BL @swift_allocArray
  ORRXrs $x19, $xzr, $x0
  MOVZXi $x9, #77
  STRXui $x9, $x19, #16
  LDRXui $x0, $x19, #16
  BL @print_int
  ORRXrs $x0, $xzr, $x19
  MOVZXi $x1, #5
  BL @swift_arrayAppend
  LDRXui $x0, $x0, #8
  BL @print_int
  ORRXrs $x0, $xzr, $x19
  BL @swift_retain
  ORRXrs $x0, $xzr, $x19
  BL @swift_release
  LDPXpost $x29, $x30, $sp, #16
  RET
}
`)
	if out != "77\n4\n" {
		t.Errorf("out = %q", out)
	}
	if m.Stats().HeapAllocs != 2 {
		t.Errorf("allocs = %d, want 2", m.Stats().HeapAllocs)
	}
}

func TestIndirectCall(t *testing.T) {
	out, _ := runMain(t, `
func @plus1 {
entry:
  ADDXri $x0, $x0, #1
  RET
}
func @main {
entry:
  STPXpre $x29, $x30, $sp, #-16
  ADRP $x16, @plus1
  MOVZXi $x0, #41
  BLR $x16
  BL @print_int
  LDPXpost $x29, $x30, $sp, #16
  RET
}
`)
	if out != "42\n" {
		t.Errorf("out = %q", out)
	}
}

func TestTailCallB(t *testing.T) {
	out, _ := runMain(t, `
func @finish {
entry:
  STPXpre $x29, $x30, $sp, #-16
  BL @print_int
  LDPXpost $x29, $x30, $sp, #16
  RET
}
func @outlined0 outlined {
entry:
  MOVZXi $x0, #9
  B @finish
}
func @main {
entry:
  STPXpre $x29, $x30, $sp, #-16
  BL @outlined0
  LDPXpost $x29, $x30, $sp, #16
  RET
}
`)
	if out != "9\n" {
		t.Errorf("out = %q", out)
	}
}

func TestOutlinedAccounting(t *testing.T) {
	_, m := runMain(t, `
func @outlined0 outlined {
entry:
  MOVZXi $x1, #1
  MOVZXi $x2, #2
  RET
}
func @main {
entry:
  STPXpre $x29, $x30, $sp, #-16
  BL @outlined0
  LDPXpost $x29, $x30, $sp, #16
  RET
}
`)
	if got := m.Stats().OutlinedInsts; got != 3 {
		t.Errorf("outlined insts = %d, want 3", got)
	}
}

func TestPrintStrAndBool(t *testing.T) {
	out, _ := runMain(t, `
func @main {
entry:
  STPXpre $x29, $x30, $sp, #-16
  ADRP $x0, @greeting
  BL @print_str
  MOVZXi $x0, #1
  BL @print_bool
  MOVZXi $x0, #0
  BL @print_bool
  LDPXpost $x29, $x30, $sp, #16
  RET
}
global @greeting = [2, 104, 105]
`)
	if out != "hi\ntrue\nfalse\n" {
		t.Errorf("out = %q", out)
	}
}

func TestDivByZeroTraps(t *testing.T) {
	m := machine(t, `
func @main {
entry:
  MOVZXi $x0, #1
  MOVZXi $x1, #0
  SDIVXr $x0, $x0, $x1
  RET
}
`)
	if _, err := m.Run("main"); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("err = %v", err)
	}
}

func TestBadMemoryTraps(t *testing.T) {
	m := machine(t, `
func @main {
entry:
  MOVZXi $x1, #64
  LDRXui $x0, $x1, #0
  RET
}
`)
	if _, err := m.Run("main"); err == nil || !strings.Contains(err.Error(), "bad memory access") {
		t.Errorf("err = %v", err)
	}
}

func TestUnalignedTraps(t *testing.T) {
	m := machine(t, `
func @main {
entry:
  MOVZXi $x1, #65537
  LDRXui $x0, $x1, #0
  RET
}
`)
	if _, err := m.Run("main"); err == nil || !strings.Contains(err.Error(), "unaligned") {
		t.Errorf("err = %v", err)
	}
}

func TestStepLimit(t *testing.T) {
	p, err := mir.Parse(`
func @main {
entry:
  B @entry
}
`)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(p, Options{MaxSteps: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run("main"); err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Errorf("err = %v", err)
	}
}

func TestBRKTraps(t *testing.T) {
	m := machine(t, `
func @main {
entry:
  BRK #1
}
`)
	if _, err := m.Run("main"); err == nil || !strings.Contains(err.Error(), "trap") {
		t.Errorf("err = %v", err)
	}
}

func TestMissingEntry(t *testing.T) {
	m := machine(t, `
func @f {
entry:
  RET
}
`)
	if _, err := m.Run("main"); err == nil {
		t.Error("expected error for missing main")
	}
}

func TestTraceEvents(t *testing.T) {
	p, err := mir.Parse(`
func @main {
entry:
  STPXpre $x29, $x30, $sp, #-16
  MOVZXi $x1, #8
  ADRP $x2, @g
  LDRXui $x0, $x2, #0
  BL @print_int
  LDPXpost $x29, $x30, $sp, #16
  RET
}
global @g = [5]
`)
	if err != nil {
		t.Fatal(err)
	}
	var loads, branches int
	m, err := New(p, Options{Trace: func(ev Event) {
		if ev.IsLoad {
			loads++
			if ev.MemAddr == 0 {
				t.Error("load event without address")
			}
		}
		if ev.Branch {
			branches++
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run("main"); err != nil {
		t.Fatal(err)
	}
	if loads != 2 { // the global LDR plus the frame-pop LDP
		t.Errorf("loads = %d, want 2", loads)
	}
	if branches < 2 { // BL + RET
		t.Errorf("branches = %d, want >= 2", branches)
	}
}

func TestSpillSlots(t *testing.T) {
	// STRXpre/LDRXpost push/pop through SP (the outliner's LR save shape).
	out, _ := runMain(t, `
func @main {
entry:
  STPXpre $x29, $x30, $sp, #-16
  MOVZXi $x0, #5
  STRXpre $x0, $sp, #-16
  MOVZXi $x0, #0
  LDRXpost $x9, $sp, #16
  ORRXrs $x0, $xzr, $x9
  BL @print_int
  LDPXpost $x29, $x30, $sp, #16
  RET
}
`)
	if out != "5\n" {
		t.Errorf("out = %q", out)
	}
}

// Interpreter errors inside outlined functions carry the outlined name —
// the misleading-traceback experience of §VI-4.
func TestOutlinedNameInTraceback(t *testing.T) {
	m := machine(t, `
func @OUTLINED_FUNCTION_7 outlined {
entry:
  LDRXui $x0, $x1, #0
  RET
}
func @main {
entry:
  STPXpre $x29, $x30, $sp, #-16
  MOVZXi $x1, #64
  BL @OUTLINED_FUNCTION_7
  LDPXpost $x29, $x30, $sp, #16
  RET
}
`)
	_, err := m.Run("main")
	if err == nil || !strings.Contains(err.Error(), "OUTLINED_FUNCTION_7") {
		t.Errorf("err = %v, want the outlined frame named", err)
	}
}
