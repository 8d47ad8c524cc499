package outline

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"outliner/internal/mir"
	"outliner/internal/raceflag"
)

// carryProgram has two kinds of function. The hot ones share a long
// sequence, or its tail, that round one outlines in two pieces (so they are
// edited) and round two outlines the calls to the pieces; the bystanders share
// a two-instruction sequence that repeats in every round but only twice, which
// never pays for an outlined function, so no round edits them.
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
// state carried between them: the mapping's storage, LR bits included, is
// sized once from the program and never regrows, and the LR bits every round
// reads, written over the previous round's, equal a fresh computation over
// fresh storage of the program that round started from. Each round, verifier
// included, is also held to a budget: no round allocates more than the first,
// and one that edits nothing verifies nothing, for free.
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
		start := prog.Clone()
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
		var fresh mapping
		if err := fresh.remap(start); err != nil {
			t.Fatal(err)
		}
		fresh.buildLR(start)
		if !slices.Equal(sc.m.lr, fresh.lr) {
			t.Errorf("round %d read LR bits that differ from a fresh computation of its program", round)
		}
		return rs
	}

	symbols := prog.NumInsts()
	for _, f := range prog.Funcs {
		symbols += len(f.Blocks)
	}
	if rs := runRound(1); rs.FunctionsCreated == 0 {
		t.Fatal("round one outlined nothing; the fixture no longer exercises later rounds")
	}
	if cap(sc.m.str) != symbols || cap(sc.m.locs) != symbols || cap(sc.m.lr) != symbols {
		t.Errorf("mapping storage is %d symbols / %d locs / %d LR bits for a %d-symbol program: not sized from the instruction count",
			cap(sc.m.str), cap(sc.m.locs), cap(sc.m.lr), symbols)
	}

	strCap, locCap, lrCap := cap(sc.m.str), cap(sc.m.locs), cap(sc.m.lr)
	if rs := runRound(2); rs.FunctionsCreated == 0 {
		t.Fatal("round two outlined nothing; the fixture no longer has a second round with a frontier")
	}
	if cap(sc.m.str) != strCap || cap(sc.m.locs) != locCap || cap(sc.m.lr) != lrCap {
		t.Error("round two regrew the mapping storage")
	}

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

// TestCandSetSize pins the candidate-set record's size: one is made per
// repeat per round, so a field added out of place grows every round's
// analysis.
func TestCandSetSize(t *testing.T) {
	if got := unsafe.Sizeof(candSet{}); got != 64 {
		t.Errorf("candSet is %d bytes, want 64", got)
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
