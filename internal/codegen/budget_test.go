package codegen_test

import (
	"testing"
	"time"

	"outliner/internal/appgen"
	"outliner/internal/codegen"
	"outliner/internal/llir"
	"outliner/internal/obs"
	"outliner/internal/pipeline"
	"outliner/internal/raceflag"
)

// fixture is the IR-linked 24-module UberRider corpus: what the
// whole-program pipeline hands to codegen.
func fixture(t *testing.T) *llir.Module {
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
	return merged
}

// TestAllocBudgetCompile bounds what codegen allocates per compiled
// function. Everything per-function lives in the lane scratch, so what is
// left is the result itself: the mir.Function, its block list, its blocks
// and their instruction slab — 4 allocations — plus a share of the program's
// name index and of the lane's scratch growing to the largest function. Each
// global costs its mir.Global and its copied words, 2 allocations, which are
// not the compile path's and are subtracted. Measured 4.7 per function; the
// budget is that plus 20 %. The race detector inflates allocation counts, so
// budgets are enforced only without it.
func TestAllocBudgetCompile(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	m := fixture(t)
	compile := func(tr *obs.Tracer) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := new(codegen.Compiler).Compile(m, 1, tr, 0, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	const budgetPerFunc = 5.6
	bare := compile(nil)
	perFunc := (bare - 2*float64(len(m.Globals))) / float64(len(m.Funcs))
	t.Logf("%.0f allocations for %d functions and %d globals: %.2f per function", bare, len(m.Funcs), len(m.Globals), perFunc)
	if perFunc > budgetPerFunc {
		t.Errorf("codegen allocates %.2f times per function; budget %.1f", perFunc, budgetPerFunc)
	}
	// A tracer that does not collect fine spans must not cost a span name
	// per function.
	coarse := compile(obs.New())
	if extra := coarse - bare; extra > float64(len(m.Funcs))/10 {
		t.Errorf("a coarse tracer costs %.0f extra allocations over %d functions: the span name is built per function",
			extra, len(m.Funcs))
	}
}

// straightLine is a one-block function of n constants among 2n
// instructions: x = x + c for n distinct constants too large to fold into an
// immediate, so every one of them is a folding candidate that fails on its
// only use.
func straightLine(n int) *llir.Module {
	f := &llir.Func{Name: "chain", NumParams: 1, NumValues: 1}
	b := &llir.Block{Label: "entry", Insts: make([]llir.Inst, 0, 2*n+1)}
	x := f.Param(0)
	for i := 0; i < n; i++ {
		c, sum := f.NewValue(), f.NewValue()
		b.Insts = append(b.Insts,
			llir.Inst{Op: llir.Const, Dst: c, Imm: int64(5000 + i)},
			llir.Inst{Op: llir.Bin, BinOp: llir.Add, Dst: sum, A: x, B: c})
		x = sum
	}
	b.Insts = append(b.Insts, llir.Inst{Op: llir.Ret, A: x})
	f.Blocks = []*llir.Block{b}
	m := llir.NewModule("scaling")
	m.AddFunc(f)
	return m
}

// TestLinearScalingCompile compiles a straight-line function with 10 000
// constants among 20 000 instructions, then one twice that size. Finding a
// constant's users by re-scanning the function made this quadratic (10^8
// instruction visits, each allocating its operand list: over ten seconds,
// and four times that for the doubled input); with a use list built once,
// both compile in milliseconds and doubling the input doubles the work.
func TestLinearScalingCompile(t *testing.T) {
	small, large := straightLine(10_000), straightLine(20_000)
	start := time.Now()
	for _, m := range []*llir.Module{small, large} {
		prog, err := codegen.CompileWith(m, 1)
		if err != nil {
			t.Fatal(err)
		}
		// Every constant is materialized and added: nothing folded away.
		if got, min := prog.NumInsts(), 2*(len(m.Funcs[0].Blocks[0].Insts)/2); got < min {
			t.Fatalf("compiled to %d instructions, want at least %d", got, min)
		}
	}
	// Generous for a slow runner under the race detector, and still an order
	// of magnitude below what a per-constant re-scan needs.
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("compiling 20k + 40k straight-line instructions took %v; the compile path is not linear", d)
	}
	if raceflag.Enabled {
		return // allocation counts are inflated under the race detector
	}
	allocs := func(m *llir.Module) float64 {
		return testing.AllocsPerRun(2, func() { codegen.CompileWith(m, 1) })
	}
	if a, b := allocs(small), allocs(large); b > 2.5*a {
		t.Errorf("doubling the function took allocations from %.0f to %.0f (more than 2.5x)", a, b)
	}
}
