package mir_test

import (
	"fmt"
	"testing"

	"outliner/internal/appgen"
	"outliner/internal/isa"
	"outliner/internal/mir"
	"outliner/internal/pipeline"
	"outliner/internal/raceflag"
)

// TestAllocBudgetLiveness bounds what liveness allocates: a fixed number of
// tables per function (the label index, the block sets, the successor list,
// the result and its one slab), nothing per block beyond the label index's
// growth, and nothing at all per instruction — the def/use masks replaced the
// operand slices the per-instruction step used to build. Measured 6.3 per
// function over the compiled 24-module corpus; the budget is that plus 20 %.
// The race detector inflates allocation counts, so it is not enforced there.
func TestAllocBudgetLiveness(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	cfg := pipeline.OSize
	cfg.OutlineRounds = 0
	res, err := appgen.BuildApp(appgen.UberRider, appgen.ScaleForModules(appgen.UberRider, 24), cfg)
	if err != nil {
		t.Fatal(err)
	}
	funcs := res.Prog.Funcs
	allocs := testing.AllocsPerRun(3, func() {
		for _, f := range funcs {
			mir.ComputeLiveness(f, mir.DefaultExternLive)
		}
	})
	perFunc := allocs / float64(len(funcs))
	t.Logf("%.0f allocations for %d functions (%d instructions): %.2f per function",
		allocs, len(funcs), res.Prog.NumInsts(), perFunc)
	const budgetPerFunc = 7.5
	if perFunc > budgetPerFunc {
		t.Errorf("ComputeLiveness allocates %.2f times per function; budget %.1f", perFunc, budgetPerFunc)
	}

	// Zero per instruction: a block of 10 000 instructions costs exactly what
	// a block of 10 does.
	straight := func(n int) *mir.Function {
		b := &mir.Block{Label: "entry"}
		for i := 0; i < n; i++ {
			b.Insts = append(b.Insts, isa.Inst{Op: isa.ADDri, Rd: isa.X0, Rn: isa.X0, Imm: int64(i)})
		}
		b.Insts = append(b.Insts, isa.Inst{Op: isa.RET})
		return &mir.Function{Name: fmt.Sprintf("straight%d", n), Blocks: []*mir.Block{b}}
	}
	count := func(f *mir.Function) float64 {
		return testing.AllocsPerRun(5, func() { mir.ComputeLiveness(f, mir.DefaultExternLive) })
	}
	if small, large := count(straight(10)), count(straight(10_000)); small != large {
		t.Errorf("liveness of a 10-instruction block allocates %.0f times, of a 10 000-instruction block %.0f times", small, large)
	}
}
