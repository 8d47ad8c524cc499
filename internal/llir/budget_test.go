package llir_test

import (
	"runtime"
	"testing"
	"unsafe"

	"outliner/internal/appgen"
	"outliner/internal/isa"
	"outliner/internal/llir"
	"outliner/internal/pipeline"
	"outliner/internal/raceflag"
	"outliner/internal/sir"
)

// fixtureSIR is the 24-module UberRider corpus lowered to SIR.
func fixtureSIR(t *testing.T) []*sir.Module {
	t.Helper()
	if raceflag.Enabled {
		// The race detector inflates allocation counts.
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	mods := appgen.Generate(appgen.UberRider, appgen.ScaleForModules(appgen.UberRider, 24))
	sirs, err := appgen.CompileToSIR(mods, pipeline.OSize)
	if err != nil {
		t.Fatal(err)
	}
	return sirs
}

// TestInstSizes pins the instruction structs' sizes. Both IRs and the machine
// code hold their instructions by value in slabs, so a field added out of
// place (a byte-sized field between two words) grows every function of every
// module.
func TestInstSizes(t *testing.T) {
	if got := unsafe.Sizeof(sir.Inst{}); got != 112 {
		t.Errorf("sir.Inst is %d bytes, want 112", got)
	}
	if got := unsafe.Sizeof(llir.Inst{}); got != 48 {
		t.Errorf("llir.Inst is %d bytes, want 48", got)
	}
	if got := unsafe.Sizeof(llir.Ext{}); got != 72 {
		t.Errorf("llir.Ext is %d bytes, want 72", got)
	}
	if got := unsafe.Sizeof(isa.Inst{}); got != 32 {
		t.Errorf("isa.Inst is %d bytes, want 32", got)
	}
}

// TestAllocBudgetFromSIR bounds what lowering allocates per function. The
// SSA-construction tables are reused from function to function, so a
// function costs its llir.Func, its block list, its blocks and their
// instruction slab (4 allocations), a share of the chunks its argument and
// incoming lists are carved from, and a share of the module (its name index,
// the lowerer's tables growing to the module's largest function). Each global
// costs its llir.Global and its copied words, 2 allocations, which are not
// the lowering's and are subtracted. Measured 9.2 per function, 0.17 per SIR
// instruction; the budgets are those plus 20 %.
//
// It also bounds the bytes lowering allocates per SIR instruction, most of
// them the 48-byte llir.Inst slab and the Ext records of calls, phis and
// conditional branches. Measured 141 bytes (282 with a 128-byte llir.Inst
// that held those operands inline); the budget is that plus 20 %.
func TestAllocBudgetFromSIR(t *testing.T) {
	sirs := fixtureSIR(t)
	funcs, insts, globals := 0, 0, 0
	for _, sm := range sirs {
		funcs += len(sm.Funcs)
		globals += len(sm.Globals)
		for _, f := range sm.Funcs {
			insts += f.NumInsts()
		}
	}
	allocs := testing.AllocsPerRun(3, func() {
		for _, sm := range sirs {
			if _, err := llir.FromSIR(sm); err != nil {
				t.Fatal(err)
			}
		}
	})
	lowering := allocs - 2*float64(globals)
	perFunc, perInst := lowering/float64(funcs), lowering/float64(insts)
	t.Logf("%.0f allocations for %d functions, %d SIR instructions, %d globals: %.2f per function, %.3f per instruction",
		allocs, funcs, insts, globals, perFunc, perInst)
	const budgetPerFunc, budgetPerInst = 11.0, 0.21
	if perFunc > budgetPerFunc {
		t.Errorf("FromSIR allocates %.2f times per function; budget %.1f", perFunc, budgetPerFunc)
	}
	if perInst > budgetPerInst {
		t.Errorf("FromSIR allocates %.3f times per SIR instruction; budget %.2f", perInst, budgetPerInst)
	}

	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 0; r < runs; r++ {
		for _, sm := range sirs {
			if _, err := llir.FromSIR(sm); err != nil {
				t.Fatal(err)
			}
		}
	}
	runtime.ReadMemStats(&after)
	bytesPerInst := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(insts)
	t.Logf("%.0f bytes per SIR instruction", bytesPerInst)
	const budgetBytesPerInst = 170.0
	if bytesPerInst > budgetBytesPerInst {
		t.Errorf("FromSIR allocates %.0f bytes per SIR instruction; budget %.0f", bytesPerInst, budgetBytesPerInst)
	}
}

// TestAllocBudgetMergeFunctions bounds what function merging allocates per
// function of the IR-linked program: the structural key is rendered into one
// reused buffer, and only a key seen for the first time is copied into the
// grouping map. Merging consumes its input, so the cost of rebuilding the
// input is measured separately and subtracted. Measured 1.0 per function; the
// budget is that plus 20 %.
func TestAllocBudgetMergeFunctions(t *testing.T) {
	sirs := fixtureSIR(t)
	funcs := 0
	link := func() *llir.Module {
		m, err := appgen.LowerAndLink(sirs)
		if err != nil {
			t.Fatal(err)
		}
		funcs = len(m.Funcs)
		return m
	}
	build := testing.AllocsPerRun(3, func() { link() })
	both := testing.AllocsPerRun(3, func() {
		if st := llir.MergeFunctions(link()); st.Removed == 0 {
			t.Fatal("the fixture has no duplicate functions to merge")
		}
	})
	perFunc := (both - build) / float64(funcs)
	t.Logf("%.0f allocations for %d functions: %.2f per function", both-build, funcs, perFunc)
	const budgetPerFunc = 1.2
	if perFunc > budgetPerFunc {
		t.Errorf("MergeFunctions allocates %.2f times per function; budget %.1f", perFunc, budgetPerFunc)
	}
}

// TestAllocBudgetMergeSimilarFunctions bounds what the similar policy
// allocates per function of the IR-linked program. Beyond identical folding's
// grouping map it collects every function's constants into one slab and its
// callees into a map; a merged function costs its blocks and their records,
// and a rewritten block one new instruction slice and a record per rewritten
// call. Measured 3.17 per function (31 groups merged, 106 functions
// removed); the budget is that plus 20 %.
func TestAllocBudgetMergeSimilarFunctions(t *testing.T) {
	sirs := fixtureSIR(t)
	funcs := 0
	link := func() *llir.Module {
		m, err := appgen.LowerAndLink(sirs)
		if err != nil {
			t.Fatal(err)
		}
		funcs = len(m.Funcs)
		return m
	}
	build := testing.AllocsPerRun(3, func() { link() })
	var st llir.MergeStats
	both := testing.AllocsPerRun(3, func() { st = llir.MergeSimilarFunctions(link(), nil) })
	perFunc := (both - build) / float64(funcs)
	t.Logf("%.0f allocations for %d functions (%+v): %.2f per function", both-build, funcs, st, perFunc)
	const budgetPerFunc = 3.8
	if perFunc > budgetPerFunc {
		t.Errorf("MergeSimilarFunctions allocates %.2f times per function; budget %.1f", perFunc, budgetPerFunc)
	}
}
