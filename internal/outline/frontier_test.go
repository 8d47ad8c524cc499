package outline_test

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"outliner/internal/appgen"
	"outliner/internal/codegen"
	"outliner/internal/fault"
	"outliner/internal/isa"
	"outliner/internal/llir"
	"outliner/internal/mir"
	"outliner/internal/outline"
	"outliner/internal/pipeline"
	"outliner/internal/verify"
)

// appgenProgram is the 24-module UberRider corpus, IR-linked and compiled but
// not outlined: what whole-program outlining starts from.
func appgenProgram(t *testing.T) *mir.Program {
	t.Helper()
	mods := appgen.Generate(appgen.UberRider, appgen.ScaleForModules(appgen.UberRider, 24))
	sirs, err := appgen.CompileToSIR(mods, pipeline.OSize)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := appgen.LowerAndLink(sirs)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := codegen.CompileWith(merged, 1)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// benchmarkPrograms compiles each program under testdata/benchmarks without
// outlining it.
func benchmarkPrograms(t *testing.T) map[string]*mir.Program {
	t.Helper()
	paths, err := filepath.Glob("../../testdata/benchmarks/*.sl")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no benchmark programs found: %v", err)
	}
	cfg := pipeline.OSize
	cfg.OutlineRounds = 0
	progs := make(map[string]*mir.Program, len(paths))
	for _, p := range paths {
		text, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		name := strings.TrimSuffix(filepath.Base(p), ".sl")
		res, err := pipeline.Build([]pipeline.Source{{
			Name: name, Files: map[string]string{filepath.Base(p): string(text)},
		}}, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		progs[name] = res.Prog
	}
	return progs
}

// sameReport fails unless the frontier check and the whole-program check
// found the same violations in the same order.
func sameReport(t *testing.T, when string, part, full *verify.Report, wantViolations bool) {
	t.Helper()
	if !reflect.DeepEqual(part.Violations, full.Violations) {
		t.Errorf("%s: frontier check reports %v, whole-program check %v", when, part.Violations, full.Violations)
	}
	if wantViolations == full.OK() {
		t.Errorf("%s: whole-program check found %d violations", when, len(full.Violations))
	}
}

// checkRounds outlines prog for up to five rounds and, once each round's
// rewrites are in place, holds the round's frontier against what actually
// changed and the frontier check against the whole-program check — on the
// program as rewritten, with a created function damaged, and with an edited
// function damaged.
func checkRounds(t *testing.T, name string, prog *mir.Program) {
	prev := make([]string, len(prog.Funcs))
	for i, f := range prog.Funcs {
		prev[i] = f.String()
	}
	opts := outline.Options{Rounds: 5, ExternSyms: llir.RuntimeSyms, Parallelism: 1}
	err := outline.EachRound(prog, opts, func(round int, frontier []int) {
		when := fmt.Sprintf("%s round %d", name, round)
		// The frontier is, in ascending order, exactly what the round changed.
		next := 0
		for i, f := range prog.Funcs {
			changed := i >= len(prev) || f.String() != prev[i]
			listed := next < len(frontier) && frontier[next] == i
			if changed != listed {
				t.Fatalf("%s: @%s changed: %v, in the frontier: %v", when, f.Name, changed, listed)
			}
			if listed {
				next++
			}
		}
		if next != len(frontier) {
			t.Fatalf("%s: frontier entry %d (%d) is out of order or out of range", when, next, frontier[next])
		}
		edited, _ := slices.BinarySearch(frontier, len(prev)) // frontier[:edited] existed before

		part := verify.Funcs(prog, llir.RuntimeSyms, frontier)
		if part.FuncsChecked != len(frontier) {
			t.Errorf("%s: checked %d functions for a frontier of %d", when, part.FuncsChecked, len(frontier))
		}
		sameReport(t, when, part, verify.Program(prog, llir.RuntimeSyms), false)

		if edited < len(frontier) {
			// A created function that lost its terminator.
			b := prog.Funcs[frontier[edited]].Blocks[0]
			saved := b.Insts
			b.Insts = saved[:len(saved)-1]
			sameReport(t, when+", damaged new function",
				verify.Funcs(prog, llir.RuntimeSyms, frontier), verify.Program(prog, llir.RuntimeSyms), true)
			b.Insts = saved
		}
		if edited > 0 {
			// An edited function whose call into outlined code goes nowhere.
			in := firstOutlinedCall(prog, prog.Funcs[frontier[0]])
			if in == nil {
				t.Fatalf("%s: edited @%s calls no outlined function", when, prog.Funcs[frontier[0]].Name)
			}
			saved := in.Sym
			in.Sym = "no_such_function"
			sameReport(t, when+", damaged edited function",
				verify.Funcs(prog, llir.RuntimeSyms, frontier), verify.Program(prog, llir.RuntimeSyms), true)
			in.Sym = saved
		}

		prev = prev[:0]
		for _, f := range prog.Funcs {
			prev = append(prev, f.String())
		}
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

func firstOutlinedCall(prog *mir.Program, f *mir.Function) *isa.Inst {
	for _, b := range f.Blocks {
		for i := range b.Insts {
			in := &b.Insts[i]
			if callee := prog.Func(in.Sym); (in.Op == isa.BL || in.Op == isa.B) && callee != nil && callee.Outlined {
				return in
			}
		}
	}
	return nil
}

// TestFrontierMatchesFullVerify: after every round, verifying the functions
// the round wrote to finds what verifying the whole program finds.
func TestFrontierMatchesFullVerify(t *testing.T) {
	checkRounds(t, "UberRider-24", appgenProgram(t))
	for name, prog := range benchmarkPrograms(t) {
		checkRounds(t, name, prog)
	}
}

// Digests of the text of the UberRider-24 program after a round-two
// corruption under each degraded mode. They were first recorded, over the
// machine artifact's program section, at the commit before rounds stopped
// re-verifying the whole program; these text digests were recorded on a
// tree where that section still hashed to those values, so they pin the
// same programs. Re-recorded when code generation began emitting canonical
// commutative operand order: the previous code, with its canonicalization
// pass run on codegen's output, gives the same digests.
const (
	rollbackRoundDigest     = "3f4164715cf01330f688fe48c5e7e9aad2faef6db36a974723d6bc03c935d652"
	disableOutliningDigest  = "fdedf37e53f801cd23679ff3d61d573b87fe0ce24fb906eb8f1b9fbb7e0977da"
	roundTwoCorruptionPoint = "/round:2"
)

// digest hashes prog's text (mir.Program.WriteTo), which carries everything
// the program is: each function's name, module, outlined flag, labels and
// instructions, and every global. Unlike an artifact encoding it does not
// move when the cache's format does.
func digest(prog *mir.Program) string {
	h := sha256.New()
	prog.WriteTo(h)
	return hex.EncodeToString(h.Sum(nil))
}

// TestFrontierFaultInjectedRound: the corruption the fault injector plants in
// a created function of round two is caught by the frontier check, and every
// OnVerifyFailure mode does with it what it did when round two re-verified
// everything.
func TestFrontierFaultInjectedRound(t *testing.T) {
	base := appgenProgram(t)
	run := func(mode string) (*mir.Program, *outline.Stats, error) {
		prog := base.Clone()
		st, err := outline.Outline(prog, outline.Options{
			Rounds: 5, Verify: true, ExternSyms: llir.RuntimeSyms, Parallelism: 1,
			OnVerifyFailure: mode,
			Fault:           fault.Exact(fault.At{Site: fault.OutlineRound, Key: roundTwoCorruptionPoint, Kind: fault.CorruptKind}),
		})
		return prog, st, err
	}

	_, _, err := run(outline.VerifyAbort)
	var ve *verify.Error
	if !errors.As(err, &ve) || !strings.Contains(err.Error(), "round 2") {
		t.Fatalf("abort mode: got %v, want a *verify.Error naming round 2", err)
	}
	if v := ve.Report.Violations[0]; !strings.HasPrefix(v.Func, "OUTLINED_FUNCTION_") || !strings.Contains(v.Msg, "falls through") {
		t.Errorf("abort mode: first violation is %v, want the created function falling off its end", v)
	}

	oneRound := base.Clone()
	if _, err := outline.Outline(oneRound, outline.Options{Rounds: 1, Verify: true, ExternSyms: llir.RuntimeSyms, Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		mode   string
		want   *mir.Program
		rounds int
		digest string
	}{
		{outline.VerifyRollbackRound, oneRound, 1, rollbackRoundDigest},
		{outline.VerifyDisableOutlining, base, 0, disableOutliningDigest},
	} {
		got, st, err := run(c.mode)
		if err != nil {
			t.Fatalf("%s: %v", c.mode, err)
		}
		if len(st.Rounds) != c.rounds {
			t.Errorf("%s: kept %d rounds, want %d", c.mode, len(st.Rounds), c.rounds)
		}
		if digest(got) != digest(c.want) {
			t.Errorf("%s: the program is not the one a clean %d-round build produces", c.mode, c.rounds)
		}
		if d := digest(got); d != c.digest {
			t.Errorf("%s: program digest %s, recorded %s", c.mode, d, c.digest)
		}
	}
}

// TestGreedyOrderIsTotal: selection no longer uses a stable sort, so the
// order must tell any two candidate sets apart.
func TestGreedyOrderIsTotal(t *testing.T) {
	progs := benchmarkPrograms(t)
	progs["UberRider-24"] = appgenProgram(t)
	for name, prog := range progs {
		ties, sets, err := outline.GreedyTies(prog, outline.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ties != 0 {
			t.Errorf("%s: %d of %d neighbouring candidate sets compare equal", name, ties, sets)
		}
		if name == "UberRider-24" && sets < 1000 {
			t.Errorf("%s: only %d candidate sets; the corpus no longer exercises the order", name, sets)
		}
	}
}

// TestAnalyzeOrderIsTotal: Analyze's order must tell any two patterns apart,
// or the listing would follow the order the finder reports repeats in.
func TestAnalyzeOrderIsTotal(t *testing.T) {
	progs := benchmarkPrograms(t)
	progs["UberRider-24"] = appgenProgram(t)
	for name, prog := range progs {
		ties, pats := outline.AnalyzeTies(prog, outline.Options{})
		if ties != 0 {
			t.Errorf("%s: %d of %d neighbouring patterns compare equal", name, ties, pats)
		}
		if name == "UberRider-24" && pats < 1000 {
			t.Errorf("%s: only %d patterns; the corpus no longer exercises the order", name, pats)
		}
	}
}
