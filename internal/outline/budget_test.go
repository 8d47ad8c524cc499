package outline

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"outliner/internal/mir"
	"outliner/internal/raceflag"
)

// carryProgram has two kinds of function. The hot ones share a long
// sequence, or its tail, that round one outlines in two pieces (so they are
// edited) and round two outlines the calls to the pieces; the bystanders share
// a two-instruction sequence that repeats — so every round wants their
// liveness — but only twice, which never pays for an outlined function, so no
// round edits them.
func carryProgram(t *testing.T) *mir.Program {
	t.Helper()
	long := []string{
		"MOVZXi $x1, #1",
		"ORRXrs $x2, $xzr, $x1",
		"ADDXrs $x3, $x2, $x1",
		"EORXrs $x4, $x3, $x2",
		"ANDXrs $x5, $x4, $x3",
	}
	var src strings.Builder
	for i := 0; i < 6; i++ {
		src.WriteString(framedFunc(fmt.Sprintf("hot%d", i),
			append(append([]string{}, long...), fmt.Sprintf("MOVZXi $x6, #%d", i))...))
	}
	for i := 0; i < 12; i++ {
		src.WriteString(framedFunc(fmt.Sprintf("hottail%d", i),
			append(append([]string{}, long[2:]...), fmt.Sprintf("MOVZXi $x7, #%d", 200+i))...))
	}
	for i := 0; i < 2; i++ {
		src.WriteString(framedFunc(fmt.Sprintf("bystander%d", i),
			"SUBXrs $x9, $x10, $x11", "MULXrr $x12, $x9, $x9", fmt.Sprintf("MOVZXi $x7, #%d", 100+i)))
	}
	return mustParse(t, src.String())
}

// TestAllocBudgetRoundsCarryLiveness drives the rounds by hand and checks the
// state carried between them: the mapping's storage is sized once from the
// program and never regrows, and a function the previous round did not edit
// keeps its *mir.Liveness while an edited one is analysed again — with every
// kept analysis equal to a fresh one of the function as it now stands. Each
// round, verifier included, is also held to a budget: no round allocates more
// than the first, and one that edits nothing verifies nothing, for free.
func TestAllocBudgetRoundsCarryLiveness(t *testing.T) {
	prog := carryProgram(t)
	opts := Options{Rounds: 5, Verify: true, ExternSyms: externRT}.withDefaults()
	var sc scratch
	counter := 0

	// runRound is a round as Outline runs it, verifier included; allocs
	// records what each one allocated.
	var allocs []uint64
	runRound := func(round int) RoundStats {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rs, _, err := outlineOnce(prog, opts, &counter, round, &sc)
		rep := verifyRound(prog, opts, round, sc.frontier)
		runtime.ReadMemStats(&after)
		allocs = append(allocs, after.Mallocs-before.Mallocs)
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		if rep != nil {
			checked = rep.FuncsChecked
			if !rep.OK() {
				t.Errorf("round %d: %v", round, rep.Err())
			}
		}
		if want := len(sc.frontier); round > 1 && checked != want {
			t.Errorf("round %d wrote to %d functions and verified %d", round, want, checked)
		} else if round == 1 && checked != len(prog.Funcs) {
			t.Errorf("round one verified %d of %d functions", checked, len(prog.Funcs))
		}
		return rs
	}

	symbols := prog.NumInsts()
	for _, f := range prog.Funcs {
		symbols += len(f.Blocks)
	}
	if rs := runRound(1); rs.FunctionsCreated == 0 {
		t.Fatal("round one outlined nothing; the fixture no longer exercises carry-over")
	}
	if cap(sc.m.str) != symbols || cap(sc.m.locs) != symbols {
		t.Errorf("mapping storage is %d symbols / %d locs for a %d-symbol program: not sized from the instruction count",
			cap(sc.m.str), cap(sc.m.locs), symbols)
	}

	checkFresh := func(when string) {
		t.Helper()
		for i, lv := range sc.live {
			if lv != nil && !reflect.DeepEqual(lv, mir.ComputeLiveness(prog.Funcs[i], mir.DefaultExternLive)) {
				t.Errorf("%s: @%s carries a liveness that no longer matches its code", when, prog.Funcs[i].Name)
			}
		}
	}
	checkFresh("after round one")
	carried := append([]*mir.Liveness(nil), sc.live...)
	kept, dropped := 0, 0
	for i, f := range prog.Funcs[:len(carried)] {
		switch hot := strings.HasPrefix(f.Name, "hot"); {
		case hot && carried[i] != nil:
			t.Errorf("@%s was edited by round one but still carries its liveness", f.Name)
		case hot:
			dropped++
		case carried[i] == nil:
			t.Errorf("@%s was not edited by round one but lost its liveness", f.Name)
		default:
			kept++
		}
	}
	if kept == 0 || dropped == 0 {
		t.Fatalf("fixture kept %d and dropped %d analyses; need both", kept, dropped)
	}

	strCap, locCap := cap(sc.m.str), cap(sc.m.locs)
	if rs := runRound(2); rs.FunctionsCreated == 0 {
		t.Fatal("round two outlined nothing; the fixture no longer has a second round with a frontier")
	}
	if cap(sc.m.str) != strCap || cap(sc.m.locs) != locCap {
		t.Error("round two regrew the mapping storage")
	}
	for i, lv := range carried {
		if lv != nil && sc.live[i] != lv {
			t.Errorf("@%s was re-analysed in round two although round one left it alone", prog.Funcs[i].Name)
		}
	}
	checkFresh("after round two")

	// On to the fixed point: the round that finds nothing is the one that
	// must cost nothing to verify.
	idle := 0
	for round := 3; round <= opts.Rounds && idle == 0; round++ {
		if runRound(round).SequencesOutlined == 0 {
			idle = round
		}
	}
	if idle == 0 {
		t.Fatalf("no fixed point within %d rounds; the fixture no longer has an idle round", opts.Rounds)
	}

	if raceflag.Enabled {
		return // the race detector inflates allocation counts
	}
	for i, n := range allocs[1:] {
		if n > allocs[0] {
			t.Errorf("round %d allocates %d times, round one %d", i+2, n, allocs[0])
		}
	}
	if n := testing.AllocsPerRun(5, func() { verifyRound(prog, opts, idle, sc.frontier) }); n != 0 {
		t.Errorf("verifying round %d, which edited nothing, allocates %.0f times", idle, n)
	}
	if n := testing.AllocsPerRun(5, func() { _ = sc.m.remap(prog) }); n != 0 {
		t.Errorf("remapping a program that fits the mapping's storage allocates %.0f times", n)
	}
}

// A function or block past 2^31 instructions must be refused, not wrapped
// into a negative index.
func TestLocRangeChecked(t *testing.T) {
	if err := checkLocRange("f", math.MaxInt32, math.MaxInt32, math.MaxInt32); err != nil {
		t.Errorf("largest addressable function refused: %v", err)
	}
	over := math.MaxInt32
	if over++; over < 0 {
		t.Skip("int is 32 bits: nothing larger to refuse")
	}
	for _, c := range [][3]int{{over, 1, 1}, {0, over, 1}, {0, 1, over}} {
		if err := checkLocRange("f", c[0], c[1], c[2]); err == nil {
			t.Errorf("function %d with %d blocks of up to %d instructions accepted", c[0], c[1], c[2])
		}
	}
}

// Every function may fit a loc while the flattened string does not: a program
// past 2^31 symbols in total must be refused too.
func TestSymbolCountChecked(t *testing.T) {
	if err := checkSymbolCount(math.MaxInt32); err != nil {
		t.Errorf("largest addressable program refused: %v", err)
	}
	over := math.MaxInt32
	if over++; over < 0 {
		t.Skip("int is 32 bits: nothing larger to refuse")
	}
	err := checkSymbolCount(over)
	if err == nil || !strings.Contains(err.Error(), "exceeds the outliner's 2^31 addressing range") {
		t.Errorf("a %d-symbol program: got %v, want the addressing-range error", over, err)
	}
}
