package sir_test

import (
	"runtime"
	"testing"

	"outliner/internal/appgen"
	"outliner/internal/frontend"
	"outliner/internal/pipeline"
	"outliner/internal/raceflag"
	"outliner/internal/sir"
)

// TestAllocBudgetGenerate bounds the bytes SIR generation allocates per
// instruction it produces, on the 24-module UberRider corpus. A function's
// instructions are appended to the generator's reused body buffer and sorted
// once into an exact slab, so an instruction costs its 112 bytes in the slab
// plus its share of argument lists, labels, blocks, functions, string
// constants and the generator's own scope tables. Measured 250 bytes per
// instruction; the budget is that plus 20 %.
func TestAllocBudgetGenerate(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	srcs := appgen.Sources(appgen.Generate(appgen.UberRider, appgen.ScaleForModules(appgen.UberRider, 24)))
	parsed := make([][]*frontend.File, len(srcs))
	for i, s := range srcs {
		var err error
		if parsed[i], err = pipeline.ParseSource(s); err != nil {
			t.Fatal(err)
		}
	}
	ix := frontend.NewImportsIndex(parsed...)
	progs := make([]*frontend.Program, len(srcs))
	for i, s := range srcs {
		var err error
		if progs[i], err = frontend.CheckModule(s.Name, ix.For(i), parsed[i]...); err != nil {
			t.Fatal(err)
		}
	}

	const runs = 3
	insts := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 0; r < runs; r++ {
		insts = 0
		for _, p := range progs {
			m, err := sir.Generate(p)
			if err != nil {
				t.Fatal(err)
			}
			insts += m.NumInsts()
		}
	}
	runtime.ReadMemStats(&after)
	perInst := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(insts)
	t.Logf("%d SIR instructions: %.0f bytes allocated per instruction", insts, perInst)
	const budgetPerInst = 300.0
	if perInst > budgetPerInst {
		t.Errorf("Generate allocates %.0f bytes per SIR instruction; budget %.0f", perInst, budgetPerInst)
	}
}
