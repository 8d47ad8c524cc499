package difftest

import (
	"reflect"
	"strings"
	"testing"

	"outliner/internal/appgen"
	"outliner/internal/exec"
	"outliner/internal/layout"
	"outliner/internal/mir"
)

func TestLatticeOrdered(t *testing.T) {
	pts := Lattice()
	if len(pts) < 5 {
		t.Fatalf("lattice has %d points, want a real spread", len(pts))
	}
	seen := map[string]bool{}
	for i, p := range pts {
		if p.Rank != i {
			t.Errorf("point %s rank = %d, want %d", p.Name, p.Rank, i)
		}
		if seen[p.Name] {
			t.Errorf("duplicate point name %q", p.Name)
		}
		seen[p.Name] = true
		if !p.Config.Verify {
			t.Errorf("point %s does not force Verify", p.Name)
		}
	}
	if pts[0].Config.OutlineRounds != 0 || pts[0].Config.WholeProgram {
		t.Errorf("reference point %s is not the plain baseline", pts[0].Name)
	}
	if _, ok := PointNamed("osize"); !ok {
		t.Error("PointNamed(osize) missing")
	}
	if len(SmokeLattice()) != 3 {
		t.Errorf("smoke lattice has %d points, want 3", len(SmokeLattice()))
	}
}

func TestPointFromBits(t *testing.T) {
	p := PointFromBits(0b111)
	if !p.Config.WholeProgram || p.Config.OutlineRounds != 3 || !p.Config.Verify {
		t.Errorf("bits 0b111 decoded to %+v", p.Config)
	}
	if !p.Config.SplitGCMetadata {
		t.Error("whole-program fuzz point must force SplitGCMetadata")
	}
	if PointFromBits(0).Config.SplitGCMetadata {
		t.Error("per-module fuzz point should not force SplitGCMetadata")
	}
	if got := PointFromBits(1 << 12).Config.Layout; got != "" {
		t.Errorf("bits 1<<12 layout = %q, want inactive (reserved bit)", got)
	}
	if got := PointFromBits(2 << 12).Config.Layout; got != layout.C3 {
		t.Errorf("bits 2<<12 layout = %q, want c3", got)
	}
	if got := PointFromBits(3 << 12).Config.Layout; got != "" {
		t.Errorf("bits 3<<12 layout = %q, want inactive", got)
	}
	if got := PointFromBits(1 << 10).Config.Layout; got != layout.Outlined {
		t.Errorf("bits 1<<10 layout = %q, want outlined", got)
	}
	if got := PointFromBits(1<<10 | 1<<12).Config.Layout; got != layout.Outlined {
		t.Errorf("bits 1<<10|1<<12 layout = %q, want outlined", got)
	}
	if got := PointFromBits(1<<10 | 2<<12).Config.Layout; got != layout.C3 {
		t.Errorf("bits 1<<10|2<<12 layout = %q, want c3", got)
	}
	// Bit 9 once switched canonical operand order on, which code generation
	// now always emits: it is reserved, so a point with it set is the point
	// without it.
	for _, b := range []uint64{0, 0b111, 1<<5 | 1<<6 | 1, 0x1ff, 1<<10 | 1<<11 | 0x1ff, 2<<12 | 0x7ff} {
		with, without := PointFromBits(b|1<<9), PointFromBits(b&^(1<<9))
		if !reflect.DeepEqual(with.Config, without.Config) || with.Rank != without.Rank {
			t.Errorf("bits %#x: bit 9 changes the point: %+v vs %+v", b, with.Config, without.Config)
		}
	}
	if p, _ := PointNamed("wp-extensions"); p.Config.Layout != layout.Outlined {
		t.Errorf("wp-extensions layout = %q, want outlined", p.Config.Layout)
	}
}

func TestCompareClassification(t *testing.T) {
	ok := func(pt, out string, steps int64) Outcome {
		return Outcome{Point: pt, Output: out, Steps: steps}
	}
	trap := func(pt string, kind exec.ErrorKind, step int64) Outcome {
		return Outcome{Point: pt, RunErr: &exec.Error{Kind: kind, Step: step, Msg: "x"}}
	}
	cases := []struct {
		name     string
		ref, got Outcome
		want     Class
	}{
		{"agree", ok("a", "1\n", 10), ok("b", "1\n", 12), ClassAgree},
		{"output", ok("a", "1\n", 10), ok("b", "2\n", 12), ClassOutputMismatch},
		{"build", ok("a", "1\n", 10), Outcome{Point: "b", BuildErr: errFake{}}, ClassBuildError},
		{"trap-one-side", ok("a", "", 10), trap("b", exec.KindTrap, 5), ClassTrapMismatch},
		{"trap-kinds", trap("a", exec.KindTrap, 5), trap("b", exec.KindBadMemory, 5), ClassTrapMismatch},
		{"trap-same-kind", trap("a", exec.KindTrap, 5), trap("b", exec.KindTrap, 9), ClassAgree},
		{"ref-exhausted", trap("a", exec.KindMaxSteps, 100), ok("b", "1\n", 10), ClassAgree},
		{"got-runaway", ok("a", "1\n", 10), trap("b", exec.KindMaxSteps, 1000), ClassBudget},
		{"got-exhausted-tight", ok("a", "1\n", 400), trap("b", exec.KindMaxSteps, 1000), ClassAgree},
	}
	for _, c := range cases {
		if cls, _ := Compare(c.ref, c.got); cls != c.want {
			t.Errorf("%s: Compare = %v, want %v", c.name, cls, c.want)
		}
	}
}

type errFake struct{}

func (errFake) Error() string { return "fake build error" }

// TestOracleSmoke is the always-on differential smoke: a tiny app across
// the three smoke lattice points must agree. Fast enough for -short.
func TestOracleSmoke(t *testing.T) {
	profile := appgen.UberRider
	profile.Seed = 7
	profile.Spans = 1
	mods := appgen.Generate(profile, 0.03)
	o := &Oracle{MaxSteps: 20_000_000}
	div, err := o.Check(mods, SmokeLattice())
	if err != nil {
		t.Fatalf("reference build: %v", err)
	}
	if div != nil {
		t.Fatalf("smoke divergence: %v", div)
	}
}

// TestOracleColdOnlyAxis checks the profile-gated lattice point: the oracle
// collects a profile on its reference run, injects it into the cold-only
// point, and the gated build must still agree semantically. The point ships
// with a nil profile so the injection path is the one exercised.
func TestOracleColdOnlyAxis(t *testing.T) {
	pt, ok := PointNamed("osize-cold-only")
	if !ok {
		t.Fatal("lattice point osize-cold-only missing")
	}
	if pt.Config.OutlineColdThreshold != 1 {
		t.Fatalf("osize-cold-only not armed: %+v", pt.Config)
	}
	if pt.Config.Profile != nil {
		t.Fatal("lattice point must not carry a canned profile")
	}
	gen := appgen.UberRider
	gen.Seed = 11
	gen.Spans = 1
	mods := appgen.Generate(gen, 0.03)
	o := &Oracle{MaxSteps: 20_000_000}
	div, err := o.Check(mods, []Point{Lattice()[0], pt})
	if err != nil {
		t.Fatalf("reference build: %v", err)
	}
	if div != nil {
		t.Fatalf("cold-only divergence: %v", div)
	}
}

// TestOracleLayoutAxis checks the function-layout lattice point: the oracle
// injects its reference-run profile into it, and the reordered build must
// agree semantically with the untouched baseline — layout moves addresses,
// never behavior.
func TestOracleLayoutAxis(t *testing.T) {
	gen := appgen.UberRider
	gen.Seed = 19
	gen.Spans = 1
	mods := appgen.Generate(gen, 0.03)
	o := &Oracle{MaxSteps: 20_000_000}
	pt, ok := PointNamed("osize-layout-c3")
	if !ok {
		t.Fatal("lattice point osize-layout-c3 missing")
	}
	if pt.Config.Layout != layout.C3 {
		t.Fatalf("osize-layout-c3 not armed: %+v", pt.Config)
	}
	if pt.Config.Profile != nil {
		t.Fatal("osize-layout-c3 must not carry a canned profile")
	}
	div, err := o.Check(mods, []Point{Lattice()[0], pt})
	if err != nil {
		t.Fatalf("reference build: %v", err)
	}
	if div != nil {
		t.Fatalf("divergence: %v", div)
	}
}

// findObservableCorruption scans the outlined MOVZ constants of the build
// at pts[1] for one whose corruption diverges from the reference — not
// every materialized constant reaches the program's output, so tests pick
// an observable one instead of hard-coding a site.
func findObservableCorruption(t *testing.T, o *Oracle, mods []appgen.Module, pts []Point) (func(*mir.Program), *Divergence) {
	t.Helper()
	prog, err := o.Build(mods, pts[1])
	if err != nil {
		t.Fatalf("build at %s: %v", pts[1].Name, err)
	}
	imms := OutlinedMOVZImms(prog)
	if len(imms) == 0 {
		t.Fatalf("no outlined MOVZ sites at %s", pts[1].Name)
	}
	if len(imms) > 20 {
		imms = imms[:20]
	}
	for _, imm := range imms {
		imm := imm
		hook := func(p *mir.Program) { CorruptOutlinedImm(p, imm) }
		o.Corrupt = hook
		div, err := o.Check(mods, pts)
		o.Corrupt = nil
		if err != nil {
			t.Fatalf("reference build: %v", err)
		}
		if div != nil {
			t.Logf("corrupting outlined MOVZ #%d is observable: %v", imm, div.Class)
			return hook, div
		}
	}
	t.Fatal("no observable corruption among the scanned MOVZ sites")
	return nil, nil
}

// TestOracleDetectsInjectedMiscompile: corrupting one outlined sequence
// must surface as a divergence between the baseline (no outlining, so the
// corruption hook finds nothing to touch) and the osize point.
func TestOracleDetectsInjectedMiscompile(t *testing.T) {
	profile := appgen.UberRider
	profile.Seed = 7
	profile.Spans = 1
	mods := appgen.Generate(profile, 0.03)
	o := &Oracle{MaxSteps: 20_000_000}
	pts := []Point{SmokeLattice()[0], pointNamed(Lattice(), "osize")}
	_, div := findObservableCorruption(t, o, mods, pts)
	if div.Class != ClassOutputMismatch && div.Class != ClassTrapMismatch && div.Class != ClassBudget {
		t.Fatalf("divergence class = %v, want an execution-level class", div.Class)
	}
	if !strings.Contains(div.String(), "osize") {
		t.Errorf("divergence %q does not name the diverging point", div)
	}
}

func TestCorruptOutlinedTargetsOutlinedOnly(t *testing.T) {
	p, err := mir.Parse(`
func @plain {
entry:
  MOVZXi $x0, #4
  RET
}
func @OUTLINED_FUNCTION_0 outlined {
entry:
  MOVZXi $x1, #8
  RET
}
`)
	if err != nil {
		t.Fatal(err)
	}
	name := CorruptOutlined(p)
	if name != "OUTLINED_FUNCTION_0" {
		t.Fatalf("corrupted %q, want the outlined function", name)
	}
	if p.Funcs[0].Blocks[0].Insts[0].Imm != 4 {
		t.Error("non-outlined function was touched")
	}
	if p.Funcs[1].Blocks[0].Insts[0].Imm != 9 {
		t.Errorf("outlined MOVZ imm = %d, want 9", p.Funcs[1].Blocks[0].Insts[0].Imm)
	}
}

func TestSplitDeclsAndStmtGroups(t *testing.T) {
	src := `
func alpha(a: Int) -> Int {
  var x = a + 1
  if x % 2 == 0 {
    x = x * 3
  }
  return x
}

class Box {
  var v: Int
  func get() -> Int {
    return v
  }
}
`
	chunks := splitDecls(src)
	var decls []string
	for _, c := range chunks {
		if c.decl {
			decls = append(decls, declName(c))
		}
	}
	if len(decls) != 2 || decls[0] != "func alpha" || decls[1] != "class Box" {
		t.Fatalf("decls = %v", decls)
	}
	// alpha's body: three groups — the var, the if-block, the return.
	groups := stmtGroups(chunks[1].body())
	if len(groups) != 3 {
		t.Fatalf("stmt groups = %d, want 3: %q", len(groups), groups)
	}
	if len(groups[1]) != 3 {
		t.Errorf("if-block group has %d lines, want 3", len(groups[1]))
	}
	// Dropping the if-block keeps the file parseable shape-wise.
	text := joinChunksWithoutGroup(chunks, 1, groups, 1)
	if strings.Contains(text, "x * 3") || !strings.Contains(text, "return x") {
		t.Errorf("group drop produced:\n%s", text)
	}
}

// TestReduceCheapPredicate exercises the reducer's mechanics with a
// predicate that doesn't need builds: interesting = "keeps the marker
// statement". Everything else must be stripped.
func TestReduceCheapPredicate(t *testing.T) {
	mods := []appgen.Module{
		{Name: "A", Files: map[string]string{"a.sl": `
func keeper() -> Int {
  var x = 1
  x = x + 41
  return x
}

func noise0() -> Int {
  return 7
}
`}},
		{Name: "B", Files: map[string]string{"b.sl": `
func noise1() -> Int {
  var y = 2
  if y > 1 {
    y = y * 2
  }
  return y
}
`}},
	}
	interesting := func(m []appgen.Module) bool {
		for _, mod := range m {
			for _, text := range mod.Files {
				if strings.Contains(text, "x + 41") {
					return true
				}
			}
		}
		return false
	}
	red := Reduce(mods, interesting, ReduceOptions{})
	if !interesting(red) {
		t.Fatal("reduction lost the marker")
	}
	if len(red) != 1 || red[0].Name != "A" {
		t.Fatalf("modules = %+v, want only A", red)
	}
	text := red[0].Files["a.sl"]
	if strings.Contains(text, "noise0") {
		t.Errorf("noise decl survived:\n%s", text)
	}
	if strings.Contains(text, "var x = 1") {
		// The marker line is "x = x + 41"; the var line is droppable only if
		// the predicate doesn't need it — it doesn't.
		t.Errorf("droppable statement survived:\n%s", text)
	}
	if got, orig := Size(red), Size(mods); got >= orig/2 {
		t.Errorf("Size = %d of %d, want < half", got, orig)
	}
	// The original input must be untouched.
	if !strings.Contains(mods[0].Files["a.sl"], "noise0") {
		t.Error("Reduce mutated its input")
	}
}

// TestReducerShrinksInjectedMiscompile is the acceptance-criteria test: a
// corrupted outlined sequence reduced against the real oracle must yield a
// repro at most 25% of the original app's source size.
func TestReducerShrinksInjectedMiscompile(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle-backed reduction is slow")
	}
	profile := appgen.UberRider
	profile.Seed = 1037
	profile.Spans = 2
	mods := appgen.Generate(profile, 0.08)
	o := &Oracle{MaxSteps: 50_000_000}
	pts := []Point{SmokeLattice()[0], pointNamed(Lattice(), "osize")}
	hook, _ := findObservableCorruption(t, o, mods, pts)
	o.Corrupt = hook
	interesting := func(m []appgen.Module) bool {
		d, err := o.Check(m, pts)
		return err == nil && d != nil
	}
	red := Reduce(mods, interesting, ReduceOptions{MaxAttempts: 3000, Log: t.Logf})
	if !interesting(red) {
		t.Fatal("reduced program no longer diverges")
	}
	orig, got := Size(mods), Size(red)
	t.Logf("reduced %d -> %d bytes (%.1f%%)", orig, got, 100*float64(got)/float64(orig))
	if got*4 > orig {
		t.Errorf("repro is %d bytes of %d, want <= 25%%", got, orig)
	}
}
