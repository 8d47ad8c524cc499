package mir_test

import (
	"fmt"
	"testing"

	"outliner/internal/appgen"
	"outliner/internal/isa"
	"outliner/internal/mir"
	"outliner/internal/outline"
	"outliner/internal/pipeline"
	"outliner/internal/raceflag"
)

// TestAllocBudgetLiveness bounds what LR liveness allocates: nothing at all
// once the bit table has the capacity and the label index has seen the
// largest function — no block tables, no successor lists, no result. The race
// detector inflates allocation counts, so it is not enforced there.
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
	var lv outline.LRLiveness
	var bits []bool
	for _, f := range funcs {
		bits = lv.After(bits, f)
	}
	allocs := testing.AllocsPerRun(3, func() {
		for _, f := range funcs {
			bits = lv.After(bits, f)
		}
	})
	t.Logf("%.0f allocations for %d functions (%d instructions)", allocs, len(funcs), res.Prog.NumInsts())
	if allocs != 0 {
		t.Errorf("LR liveness allocates %.0f times over %d functions with its table sized; budget 0", allocs, len(funcs))
	}

	// A block of 10 000 instructions costs what a block of 10 does: nothing.
	straight := func(n int) *mir.Function {
		b := &mir.Block{Label: "entry"}
		for i := 0; i < n; i++ {
			b.Insts = append(b.Insts, isa.Inst{Op: isa.ADDri, Rd: isa.X0, Rn: isa.X0, Imm: int64(i)})
		}
		b.Insts = append(b.Insts, isa.Inst{Op: isa.RET})
		return &mir.Function{Name: fmt.Sprintf("straight%d", n), Blocks: []*mir.Block{b}}
	}
	for _, n := range []int{10, 10_000} {
		f := straight(n)
		var lv outline.LRLiveness
		bits := lv.After(nil, f)
		if a := testing.AllocsPerRun(5, func() { lv.After(bits, f) }); a != 0 {
			t.Errorf("LR liveness of a %d-instruction block allocates %.0f times with its table sized", n, a)
		}
	}
}
