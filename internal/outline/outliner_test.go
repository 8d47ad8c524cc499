package outline

import (
	"fmt"
	"strings"
	"testing"

	"outliner/internal/isa"
	"outliner/internal/mir"
	"outliner/internal/verify"
)

var externRT = map[string]bool{
	"swift_release": true, "swift_retain": true, "swift_allocObject": true,
	"objc_release": true, "objc_msgSend": true, "f": true, "g": true,
}

func mustParse(t *testing.T, src string) *mir.Program {
	t.Helper()
	p, err := mir.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if err := verify.Program(p, externRT).Err(); err != nil {
		t.Fatalf("test input invalid: %v", err)
	}
	return p
}

func outlineProg(t *testing.T, p *mir.Program, rounds int) *Stats {
	t.Helper()
	st, err := Outline(p, Options{Rounds: rounds, Verify: true, ExternSyms: externRT})
	if err != nil {
		t.Fatalf("Outline: %v", err)
	}
	return st
}

// framedFunc builds a function with a frame (so LR is dead in the body) whose
// body is the given instruction lines.
func framedFunc(name string, body ...string) string {
	return fmt.Sprintf("func @%s {\nentry:\n  STPXpre $x29, $x30, $sp, #-16\n%s  LDPXpost $x29, $x30, $sp, #16\n  RET\n}\n",
		name, indent(body))
}

func indent(lines []string) string {
	var b strings.Builder
	for _, l := range lines {
		b.WriteString("  ")
		b.WriteString(l)
		b.WriteString("\n")
	}
	return b.String()
}

// The paper's Listing 1/2 situation: the same two-instruction
// move+call pattern repeats across functions; the thunk strategy outlines it.
func TestOutlineThunkPattern(t *testing.T) {
	var src strings.Builder
	for i := 0; i < 4; i++ {
		src.WriteString(framedFunc(fmt.Sprintf("f%d", i),
			"ORRXrs $x0, $xzr, $x20",
			"BL @swift_release",
			fmt.Sprintf("MOVZXi $x1, #%d", i), // unique per function
		))
	}
	p := mustParse(t, src.String())
	before := p.CodeSize()
	st := outlineProg(t, p, 1)

	if st.TotalFunctions() < 1 {
		t.Fatal("no outlined functions created")
	}
	if st.TotalSequences() < 4 {
		t.Errorf("sequences outlined = %d, want >= 4", st.TotalSequences())
	}
	if p.CodeSize() >= before {
		t.Errorf("code size %d did not shrink from %d", p.CodeSize(), before)
	}
	// The outlined function must be a thunk: prefix + tail call.
	var outlined *mir.Function
	for _, f := range p.Funcs {
		if f.Outlined {
			outlined = f
		}
	}
	if outlined == nil {
		t.Fatal("no outlined function in program")
	}
	body := outlined.Blocks[0].Insts
	if body[len(body)-1].Op != isa.B || body[len(body)-1].Sym != "swift_release" {
		t.Errorf("thunk must end with tail call to swift_release; body:\n%s", outlined)
	}
}

// A repeating sequence ending in RET outlines as a tail call (B), adding no
// frame bytes.
func TestOutlineTailCallPattern(t *testing.T) {
	var src strings.Builder
	for i := 0; i < 4; i++ {
		src.WriteString(fmt.Sprintf(`
func @f%d {
entry:
  MOVZXi $x9, #%d
  ADDXrs $x0, $x9, $x9
  ORRXrs $x1, $xzr, $x0
  SUBXrs $x0, $x1, $x9
  RET
}
`, i, i))
	}
	p := mustParse(t, src.String())
	st := outlineProg(t, p, 1)
	if st.TotalFunctions() == 0 {
		t.Fatal("expected a tail-call outline")
	}
	for _, f := range p.Funcs {
		if !f.Outlined {
			continue
		}
		insts := f.Blocks[0].Insts
		if insts[len(insts)-1].Op != isa.RET {
			t.Errorf("tail-call outlined function must end in RET:\n%s", f)
		}
	}
	// Call sites must use B, not BL.
	for _, f := range p.Funcs {
		if f.Outlined {
			continue
		}
		for _, b := range f.Blocks {
			for _, in := range b.Insts {
				if in.Op == isa.BL && strings.HasPrefix(in.Sym, "OUTLINED_") {
					t.Errorf("tail-call site must use B: %v in %s", in, f.Name)
				}
			}
		}
	}
}

// When LR is live (leaf function, no frame), outlining must wrap the call
// site in an LR spill/reload, and the cost model must account for it: a
// 2-instruction pattern repeated twice is not profitable then.
func TestLRSaveCostPreventsUnprofitableOutlining(t *testing.T) {
	var src strings.Builder
	for i := 0; i < 2; i++ {
		src.WriteString(fmt.Sprintf(`
func @leaf%d {
entry:
  MOVZXi $x1, #77
  ADDXrs $x2, $x1, $x1
  MOVZXi $x3, #%d
  RET
}
`, i, i))
	}
	p := mustParse(t, src.String())
	st := outlineProg(t, p, 1)
	// Candidate: 2 insts × 2 occurrences = 16 bytes removed; cost = 2×12
	// (LR save sites) + 12 (body + RET) — never profitable.
	if st.TotalSequences() != 0 {
		t.Errorf("outlined %d sequences; LR-save cost should forbid it", st.TotalSequences())
	}
}

func TestLRSaveUsedWhenProfitable(t *testing.T) {
	// Longer pattern, more repeats: profitable even with LR save.
	var src strings.Builder
	for i := 0; i < 6; i++ {
		src.WriteString(fmt.Sprintf(`
func @leaf%d {
entry:
  MOVZXi $x1, #77
  ADDXrs $x2, $x1, $x1
  EORXrs $x3, $x2, $x1
  ANDXrs $x4, $x3, $x2
  ORRXrs $x5, $x3, $x4
  SUBXrs $x6, $x5, $x1
  MOVZXi $x7, #%d
  RET
}
`, i, i))
	}
	p := mustParse(t, src.String())
	st := outlineProg(t, p, 1)
	if st.TotalSequences() < 6 {
		t.Fatalf("sequences = %d, want 6", st.TotalSequences())
	}
	// Call sites must be bracketed by the LR spill/reload.
	found := false
	for _, f := range p.Funcs {
		if f.Outlined {
			continue
		}
		for _, b := range f.Blocks {
			for i, in := range b.Insts {
				if in.Op == isa.BL && strings.HasPrefix(in.Sym, "OUTLINED_") {
					if i == 0 || b.Insts[i-1].Op != isa.STRpre || b.Insts[i+1].Op != isa.LDRpost {
						t.Errorf("call site not wrapped in LR save: %s", f)
					}
					found = true
				}
			}
		}
	}
	if !found {
		t.Error("no outlined call sites found")
	}
}

// SP-modifying frame sequences (the paper's Listings 7-8) repeat massively
// but must never be outlined.
func TestFrameSequencesNotOutlined(t *testing.T) {
	var src strings.Builder
	for i := 0; i < 10; i++ {
		src.WriteString(fmt.Sprintf(`
func @f%d {
entry:
  STPXpre $x26, $x25, $sp, #-64
  STPXi $x24, $x23, $sp, #16
  STPXi $x22, $x21, $sp, #32
  STPXi $x20, $x19, $sp, #48
  MOVZXi $x0, #%d
  LDPXi $x20, $x19, $sp, #48
  LDPXi $x22, $x21, $sp, #32
  LDPXi $x24, $x23, $sp, #16
  LDPXpost $x26, $x25, $sp, #64
  RET
}
`, i, i))
	}
	p := mustParse(t, src.String())
	st := outlineProg(t, p, 3)
	// The STP/LDP-ui bodies read SP. The repeating interior
	// [STPXi ×3] would need a plain strategy but LR is live (no LR saved in
	// these frames!) → call-site save → SP shift → illegal. The
	// suffix ending in RET is a tail call and IS legal (SP unchanged).
	for _, f := range p.Funcs {
		if !f.Outlined {
			continue
		}
		for _, in := range f.Blocks[0].Insts {
			if in.ModifiesSP() {
				t.Errorf("outlined function contains SP-modifying %v", in)
			}
		}
	}
	_ = st
}

// Repeated outlining (the paper's §V-B): a 3-instruction pattern whose
// 2-instruction suffix repeats much more often. Greedy picks the suffix
// first; the second round harvests the rest.
func TestRepeatedOutliningBeatsSingleRound(t *testing.T) {
	mk := func() *mir.Program {
		var src strings.Builder
		// 4 functions with the long pattern (prefix+suffix), 12 with only
		// the suffix. Bodies are framed so LR is dead (cheap call sites).
		long := []string{
			"MOVZXi $x1, #1",
			"ORRXrs $x2, $xzr, $x1",
			"ADDXrs $x3, $x2, $x1",
			"EORXrs $x4, $x3, $x2",
			"ANDXrs $x5, $x4, $x3",
		}
		suffix := long[2:]
		for i := 0; i < 4; i++ {
			src.WriteString(framedFunc(fmt.Sprintf("long%d", i),
				append(append([]string{}, long...), fmt.Sprintf("MOVZXi $x6, #%d", i))...))
		}
		for i := 0; i < 12; i++ {
			src.WriteString(framedFunc(fmt.Sprintf("short%d", i),
				append(append([]string{}, suffix...), fmt.Sprintf("MOVZXi $x7, #%d", 100+i))...))
		}
		return mustParse(t, src.String())
	}

	p1 := mk()
	outlineProg(t, p1, 1)
	size1 := p1.CodeSize()

	p2 := mk()
	st2 := outlineProg(t, p2, 5)
	size2 := p2.CodeSize()

	if size2 >= size1 {
		t.Errorf("repeated outlining (%d bytes) not better than single round (%d bytes)", size2, size1)
	}
	if len(st2.Rounds) < 2 || st2.Rounds[1].SequencesOutlined == 0 {
		t.Errorf("round 2 outlined nothing: %+v", st2.Rounds)
	}
}

// The Figure 11 anecdote: BCD repeats more often, ABCD saves more overall.
// Greedy takes BCD; repeated outlining recovers the remainder as a shorter
// leftover pattern, strictly improving on one round.
func TestFig11GreedyAnecdote(t *testing.T) {
	a := "MOVZXi $x1, #11"
	b := "ADDXrs $x2, $x1, $x1"
	c := "EORXrs $x3, $x2, $x1"
	d := "ANDXrs $x4, $x3, $x2"
	mk := func() *mir.Program {
		var src strings.Builder
		n := 0
		emit := func(lines ...string) {
			src.WriteString(framedFunc(fmt.Sprintf("g%d", n),
				append(append([]string{}, lines...), fmt.Sprintf("MOVZXi $x9, #%d", 200+n))...))
			n++
		}
		for i := 0; i < 5; i++ {
			emit(a, b, c, d)
		}
		for i := 0; i < 3; i++ {
			emit(b, c, d)
		}
		return mustParse(t, src.String())
	}

	single := mk()
	outlineProg(t, single, 1)
	repeated := mk()
	st := outlineProg(t, repeated, 5)

	if repeated.CodeSize() >= single.CodeSize() {
		t.Errorf("repeated = %d bytes, single = %d bytes; repetition must win",
			repeated.CodeSize(), single.CodeSize())
	}
	if len(st.Rounds) < 2 {
		t.Fatalf("expected at least 2 effective rounds, got %+v", st.Rounds)
	}
}

// Outlining must converge: once a round finds nothing, Outline stops early.
func TestConvergence(t *testing.T) {
	var src strings.Builder
	for i := 0; i < 4; i++ {
		src.WriteString(framedFunc(fmt.Sprintf("f%d", i),
			"ORRXrs $x0, $xzr, $x20",
			"BL @swift_release",
			fmt.Sprintf("MOVZXi $x1, #%d", i),
		))
	}
	p := mustParse(t, src.String())
	st := outlineProg(t, p, 100)
	if len(st.Rounds) >= 100 {
		t.Errorf("outliner did not converge: ran %d rounds", len(st.Rounds))
	}
	last := st.Rounds[len(st.Rounds)-1]
	if last.SequencesOutlined != 0 {
		t.Errorf("final round still outlined %d sequences", last.SequencesOutlined)
	}
}

// Zero rounds must leave the program untouched.
func TestZeroRounds(t *testing.T) {
	src := framedFunc("f", "ORRXrs $x0, $xzr, $x20", "BL @swift_release")
	p := mustParse(t, src)
	before := p.String()
	st, err := Outline(p, Options{Rounds: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Rounds) != 0 || p.String() != before {
		t.Error("zero rounds must be a no-op")
	}
}

// The flat cost model (ablation) must never beat the strategy-aware model.
func TestFlatCostModelAblation(t *testing.T) {
	mk := func() *mir.Program {
		var src strings.Builder
		for i := 0; i < 6; i++ {
			src.WriteString(framedFunc(fmt.Sprintf("f%d", i),
				"ORRXrs $x0, $xzr, $x20",
				"BL @swift_release",
				fmt.Sprintf("MOVZXi $x1, #%d", i),
			))
		}
		return mustParse(t, src.String())
	}
	smart := mk()
	outlineProg(t, smart, 3)

	flat := mk()
	if _, err := Outline(flat, Options{Rounds: 3, FlatCostModel: true, Verify: true, ExternSyms: externRT}); err != nil {
		t.Fatal(err)
	}
	if flat.CodeSize() < smart.CodeSize() {
		t.Errorf("flat model (%d) beat strategy-aware model (%d)", flat.CodeSize(), smart.CodeSize())
	}
}

// Analyze must report the dominant pattern with the right count and not
// modify the program.
func TestAnalyze(t *testing.T) {
	var src strings.Builder
	for i := 0; i < 7; i++ {
		src.WriteString(framedFunc(fmt.Sprintf("f%d", i),
			"ORRXrs $x0, $xzr, $x20",
			"BL @swift_release",
			fmt.Sprintf("MOVZXi $x1, #%d", i),
		))
	}
	p := mustParse(t, src.String())
	before := p.String()
	pats := Analyze(p, Options{})
	if p.String() != before {
		t.Fatal("Analyze modified the program")
	}
	if len(pats) == 0 {
		t.Fatal("no patterns found")
	}
	top := pats[0]
	if top.Count < 7 {
		t.Errorf("top pattern count = %d, want >= 7", top.Count)
	}
	if len(top.Funcs) == 0 {
		t.Error("pattern must carry enclosing function names")
	}
	if !strings.Contains(top.Listing(), "BL @swift_release") &&
		!strings.Contains(top.Listing(), "ORRXrs") {
		t.Errorf("listing does not show the pattern:\n%s", top.Listing())
	}
	for i := 1; i < len(pats); i++ {
		if pats[i].Count > pats[i-1].Count {
			t.Fatal("patterns not sorted by count")
		}
	}
}

func TestCumulativeSavingsMonotone(t *testing.T) {
	var src strings.Builder
	for i := 0; i < 7; i++ {
		src.WriteString(framedFunc(fmt.Sprintf("f%d", i),
			"ORRXrs $x0, $xzr, $x20",
			"BL @swift_release",
			"ORRXrs $x0, $xzr, $x21",
			"BL @swift_retain",
			fmt.Sprintf("MOVZXi $x1, #%d", i),
		))
	}
	p := mustParse(t, src.String())
	pats := Analyze(p, Options{})
	cum := CumulativeSavings(pats)
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Fatal("cumulative savings must be nondecreasing")
		}
	}
	hist := LengthHistogram(pats)
	total := 0
	for _, c := range hist {
		total += c
	}
	want := 0
	for _, p := range pats {
		want += p.Count
	}
	if total != want {
		t.Errorf("histogram total %d != candidate total %d", total, want)
	}
}

// Outlined function names must be unique across rounds.
func TestOutlinedNamesUnique(t *testing.T) {
	var src strings.Builder
	for i := 0; i < 8; i++ {
		src.WriteString(framedFunc(fmt.Sprintf("f%d", i),
			"ORRXrs $x0, $xzr, $x20",
			"BL @swift_release",
			"ORRXrs $x0, $xzr, $x19",
			"BL @swift_retain",
			fmt.Sprintf("MOVZXi $x1, #%d", i),
		))
	}
	p := mustParse(t, src.String())
	outlineProg(t, p, 5)
	seen := map[string]bool{}
	for _, f := range p.Funcs {
		if seen[f.Name] {
			t.Fatalf("duplicate function name %q", f.Name)
		}
		seen[f.Name] = true
	}
}

// Determinism: outlining the same program twice produces identical output.
func TestDeterminism(t *testing.T) {
	mk := func() *mir.Program {
		var src strings.Builder
		for i := 0; i < 10; i++ {
			src.WriteString(framedFunc(fmt.Sprintf("f%d", i),
				"ORRXrs $x0, $xzr, $x20",
				"BL @swift_release",
				"ORRXrs $x0, $xzr, $x21",
				"BL @swift_release",
				fmt.Sprintf("MOVZXi $x1, #%d", i%3),
			))
		}
		return mustParse(t, src.String())
	}
	a, b := mk(), mk()
	outlineProg(t, a, 5)
	outlineProg(t, b, 5)
	if a.String() != b.String() {
		t.Error("outlining is nondeterministic")
	}
}
