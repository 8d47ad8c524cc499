package mir_test

// The one liveness fact anything reads of a mir program is whether the link
// register is live after an instruction; the outliner computes it
// (outline.LRLiveness), and outline imports mir, so its tests sit in this
// external package.

import (
	"testing"

	"outliner/internal/mir"
	"outliner/internal/outline"
)

// lrLive parses src and returns whether LR is live after instruction i of
// block b of the function called name.
func lrLive(t *testing.T, src, name string) func(b, i int) bool {
	t.Helper()
	p, err := mir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	f := p.Func(name)
	var lv outline.LRLiveness
	bits := lv.After(nil, f)
	return func(b, i int) bool {
		for _, blk := range f.Blocks[:b] {
			i += len(blk.Insts) + 1 // a block's instructions, then its own slot
		}
		return bits[i]
	}
}

// Liveness: in a frame-bearing function, LR is dead between the prologue
// save and the epilogue restore — exactly the window where the no-LR-save
// outlining strategy is legal.
func TestLivenessLRWindow(t *testing.T) {
	live := lrLive(t, `
func @framed {
entry:
  STPXpre $x29, $x30, $sp, #-16
  ORRXrs $x19, $xzr, $x0
  BL @swift_retain
  ORRXrs $x0, $xzr, $x19
  LDPXpost $x29, $x30, $sp, #16
  RET
}
`, "framed")
	// After the prologue store (index 0) LR's old value is saved; LR is not
	// needed again until the LDPXpost redefines it.
	for i := 0; i <= 3; i++ {
		if live(0, i) {
			t.Errorf("LR live after inst %d; want dead inside frame window", i)
		}
	}
	if !live(0, 4) {
		t.Error("LR dead after epilogue restore; RET needs it")
	}
}

// In a leaf function with no frame, LR stays live throughout: outlining there
// must save LR.
func TestLivenessLeafLRAlwaysLive(t *testing.T) {
	live := lrLive(t, `
func @leaf {
entry:
  MOVZXi $x1, #7
  ADDXrs $x0, $x0, $x1
  RET
}
`, "leaf")
	if !live(0, 0) || !live(0, 1) {
		t.Error("LR must be live in a leaf function body")
	}
}

// A thunk exit (tail call) keeps LR live at its end.
func TestLivenessTailCall(t *testing.T) {
	live := lrLive(t, `
func @thunk outlined {
entry:
  ORRXrs $x0, $xzr, $x20
  B @swift_release
}
`, "thunk")
	if !live(0, 0) {
		t.Error("LR must be live before a tail call")
	}
}

// LR is read only after the loop, on its way out, and the loop's blocks are
// the identity: LR is live in the loop body and its latch only because of the
// back edge, which takes the fixed point a second pass to carry through both.
func TestLivenessLoop(t *testing.T) {
	live := lrLive(t, `
func @loop {
entry:
  MOVZXi $x19, #10
head:
  SUBXri $x19, $x19, #1
  CBZX $x19, @done
body:
  ADDXri $x1, $x1, #1
latch:
  B @head
done:
  ORRXrs $x0, $xzr, $x30
  BL @swift_release
  BRK #1
}
`, "loop")
	if !live(0, 0) {
		t.Error("LR must be live at entry block exit")
	}
	if !live(1, 0) || !live(2, 0) || !live(3, 0) {
		t.Error("LR must be live around the back edge")
	}
	if live(4, 0) || live(4, 1) {
		t.Error("LR must be dead from the call on the way out")
	}
}
