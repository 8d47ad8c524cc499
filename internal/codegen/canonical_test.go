package codegen

import (
	"fmt"
	"strings"
	"testing"

	"outliner/internal/isa"
	"outliner/internal/mir"
	"outliner/internal/outline"
)

// canonicalize rewrites every instruction of src's program the way emission
// rewrites each instruction it emits.
func canonicalize(t *testing.T, src string, canon bool) *mir.Program {
	t.Helper()
	p, err := mir.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if canon {
		for _, f := range p.Funcs {
			for _, b := range f.Blocks {
				for i := range b.Insts {
					canonicalizeCommutative(&b.Insts[i])
				}
			}
		}
	}
	return p
}

func TestCanonicalizeCommutative(t *testing.T) {
	src := `
func @f {
entry:
  ADDXrs $x0, $x3, $x1
  ADDXrs $x2, $x1, $x3
  SUBXrs $x4, $x3, $x1
  ORRXrs $x5, $x2, $xzr
  ORRXrs $x6, $xzr, $x2
  RET
}
`
	insts := canonicalize(t, src, true).Func("f").Blocks[0].Insts
	// Both ADDs now read ($x1, $x3).
	if insts[0].Rn != isa.X1 || insts[0].Rm != isa.X3 {
		t.Errorf("add 1 not canonical: %v", insts[0])
	}
	if insts[1].Rn != isa.X1 || insts[1].Rm != isa.X3 {
		t.Errorf("add 2 not canonical: %v", insts[1])
	}
	// SUB is not commutative and must be untouched.
	if insts[2].Rn != isa.X3 || insts[2].Rm != isa.X1 {
		t.Errorf("sub was rewritten: %v", insts[2])
	}
	// The backwards move is normalized to the canonical ORR move form.
	if insts[3] != isa.MoveRR(isa.X5, isa.X2) {
		t.Errorf("backwards move not normalized: %v", insts[3])
	}
	if insts[4] != isa.MoveRR(isa.X6, isa.X2) {
		t.Errorf("canonical move was disturbed: %v", insts[4])
	}
}

// Canonicalization exposes matches the plain outliner misses.
func TestCanonicalizationUnlocksOutlining(t *testing.T) {
	var src strings.Builder
	// Same computation with flipped commutative operands per function.
	for i := 0; i < 6; i++ {
		a, b := "$x1", "$x2"
		if i%2 == 1 {
			a, b = b, a
		}
		src.WriteString(fmt.Sprintf(`
func @f%d {
entry:
  STPXpre $x29, $x30, $sp, #-16
  ADDXrs $x3, %[2]s, %[3]s
  EORXrs $x4, %[3]s, %[2]s
  ANDXrs $x5, %[2]s, %[3]s
  MULXrr $x6, %[3]s, %[2]s
  MOVZXi $x7, #%[1]d
  LDPXpost $x29, $x30, $sp, #16
  RET
}
`, 100+i, a, b))
	}
	size := func(canon bool) int {
		p := canonicalize(t, src.String(), canon)
		if _, err := outline.Outline(p, outline.Options{Rounds: 3, Verify: true}); err != nil {
			t.Fatalf("Outline: %v", err)
		}
		return p.CodeSize()
	}
	if plain, canon := size(false), size(true); canon >= plain {
		t.Errorf("canonicalization did not unlock savings: %d vs %d", canon, plain)
	}
}
