package outliner_test

import (
	"os"
	"strings"
	"testing"

	"outliner"
)

const quickSrc = `
class Greeter {
  var count: Int
  init() { self.count = 0 }
  func greet(name: String) -> Int {
    self.count = self.count + 1
    return name.count + self.count
  }
}
func main() {
  let g = Greeter()
  print(g.greet(name: "world"))
  print(g.greet(name: "again"))
}
`

func TestPublicBuildAndRun(t *testing.T) {
	res, err := outliner.Build([]outliner.Module{
		{Name: "App", Files: map[string]string{"app.sl": quickSrc}},
	}, outliner.Production())
	if err != nil {
		t.Fatal(err)
	}
	out, err := res.Run("main")
	if err != nil {
		t.Fatal(err)
	}
	if out != "6\n7\n" {
		t.Errorf("out = %q", out)
	}
	if res.CodeSize <= 0 || res.BinarySize <= res.CodeSize {
		t.Errorf("sizes wrong: code %d binary %d", res.CodeSize, res.BinarySize)
	}
}

func TestPublicPipelineComparison(t *testing.T) {
	mods := []outliner.Module{{Name: "App", Files: map[string]string{"app.sl": quickSrc}}}
	def, err := outliner.Build(mods, outliner.DefaultPipeline())
	if err != nil {
		t.Fatal(err)
	}
	prod, err := outliner.Build(mods, outliner.Production())
	if err != nil {
		t.Fatal(err)
	}
	if prod.CodeSize > def.CodeSize {
		t.Errorf("production build larger: %d vs %d", prod.CodeSize, def.CodeSize)
	}
	a, _ := def.Run("main")
	b, _ := prod.Run("main")
	if a != b {
		t.Error("pipelines disagree on program behaviour")
	}
}

func TestPublicPatterns(t *testing.T) {
	res, err := outliner.Build([]outliner.Module{
		{Name: "App", Files: map[string]string{"app.sl": quickSrc}},
	}, outliner.Options{WholeProgram: true, SplitGCMetadata: true})
	if err != nil {
		t.Fatal(err)
	}
	pats := res.Patterns()
	if len(pats) == 0 {
		t.Fatal("no patterns in a refcounted program")
	}
	if pats[0].Count < 2 || pats[0].Listing == "" {
		t.Errorf("bad top pattern: %+v", pats[0])
	}
}

func TestPublicOutlineText(t *testing.T) {
	mirText := `
func @a {
entry:
  STPXpre $x29, $x30, $sp, #-16
  ORRXrs $x0, $xzr, $x19
  BL @swift_release
  ORRXrs $x0, $xzr, $x20
  BL @swift_release
  LDPXpost $x29, $x30, $sp, #16
  RET
}
func @b {
entry:
  STPXpre $x29, $x30, $sp, #-16
  ORRXrs $x0, $xzr, $x19
  BL @swift_release
  ORRXrs $x0, $xzr, $x20
  BL @swift_release
  LDPXpost $x29, $x30, $sp, #16
  RET
}
func @c {
entry:
  STPXpre $x29, $x30, $sp, #-16
  ORRXrs $x0, $xzr, $x19
  BL @swift_release
  ORRXrs $x0, $xzr, $x20
  BL @swift_release
  LDPXpost $x29, $x30, $sp, #16
  RET
}
`
	out, rounds, err := outliner.OutlineText(mirText, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) == 0 || rounds[0].SequencesOutlined == 0 {
		t.Fatalf("nothing outlined: %+v", rounds)
	}
	if !strings.Contains(out, "OUTLINED_FUNCTION_") {
		t.Error("output lacks outlined functions")
	}
}

// TestPublicOutlineTextRejectsBadInput: a program that is broken before any
// outlining runs is reported as bad input, not as a round that broke it.
func TestPublicOutlineTextRejectsBadInput(t *testing.T) {
	mirText := `
func @main {
entry:
  STPXpre $x29, $x30, $sp, #-16
  RET
}
`
	_, _, err := outliner.OutlineText(mirText, 3)
	if err == nil {
		t.Fatal("a RET with the stack pointer 16 bytes below its entry value was accepted")
	}
	if msg := err.Error(); !strings.Contains(msg, "input") || !strings.Contains(msg, "unbalanced stack pointer") || strings.Contains(msg, "round 1") {
		t.Errorf("error %q should blame the input's unbalanced stack pointer, not an outlining round", msg)
	}
}

func TestPublicMachineCodeDump(t *testing.T) {
	res, err := outliner.Build([]outliner.Module{
		{Name: "App", Files: map[string]string{"app.sl": `func main() { print(1) }`}},
	}, outliner.Options{WholeProgram: true, SplitGCMetadata: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.MachineCode(), "func @main") {
		t.Error("machine code dump lacks main")
	}
}

// The default pipeline outlines module by module; its Rounds are the modules'
// rounds summed, one created function per OUTLINED_FUNCTION_ in the code.
func TestPublicDefaultPipelineRounds(t *testing.T) {
	text, err := os.ReadFile("testdata/benchmarks/json.sl")
	if err != nil {
		t.Fatal(err)
	}
	res, err := outliner.Build([]outliner.Module{
		{Name: "json", Files: map[string]string{"json.sl": string(text)}},
	}, outliner.DefaultPipeline())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) == 0 {
		t.Fatal("a per-module build that outlines reports no rounds")
	}
	created := 0
	for _, r := range res.Rounds {
		created += r.FunctionsCreated
	}
	if n := strings.Count(res.MachineCode(), "func @OUTLINED_FUNCTION_"); created != n || n == 0 {
		t.Errorf("Rounds report %d functions created; the machine code has %d", created, n)
	}
}
