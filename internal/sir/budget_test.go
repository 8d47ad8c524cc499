package sir_test

import (
	"runtime"
	"testing"
	"unsafe"

	"outliner/internal/appgen"
	"outliner/internal/frontend"
	"outliner/internal/llir"
	"outliner/internal/pipeline"
	"outliner/internal/raceflag"
	"outliner/internal/sir"
)

// fixturePrograms is the 24-module UberRider corpus, type-checked.
func fixturePrograms(t *testing.T) []*frontend.Program {
	t.Helper()
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
	return progs
}

// TestAllocBudgetGenerate bounds the bytes SIR generation allocates per
// instruction it produces, on the 24-module UberRider corpus. A function's
// instructions are appended to the generator's reused body buffer and sorted
// once into an exact slab, so an instruction costs its 112 bytes in the slab
// plus its share of argument lists, labels, blocks, functions, string
// constants and the generator's own scope tables. Measured 250 bytes per
// instruction; the budget is that plus 20 %.
func TestAllocBudgetGenerate(t *testing.T) {
	progs := fixturePrograms(t)
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

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestAllocBudgetLaneLowering bounds what a frontend worker lane allocates
// per SIR instruction to generate a module and lower it to LLIR once the lane
// is warm: the SIR lives in the lane's chunks and the lowering tables are the
// previous module's, so what remains is the LLIR the module keeps and the
// generator's per-module tables (functions, blocks, labels, scopes, string
// constants). Measured 125 bytes per instruction (202 with a 128-byte
// llir.Inst); the budget is that plus 20 %.
//
// It also bounds a lane's first module: its chunks start at the first
// request and double, so it may allocate at most twice the exact slabs the
// package-level Generate gives it.
func TestAllocBudgetLaneLowering(t *testing.T) {
	progs := fixturePrograms(t)
	var gen sir.Generator
	var low llir.Lowerer
	insts := 0
	lowerAll := func() {
		insts = 0
		for _, p := range progs {
			m, err := gen.Generate(p)
			if err != nil {
				t.Fatal(err)
			}
			insts += m.NumInsts()
			if _, err := low.FromSIR(m); err != nil {
				t.Fatal(err)
			}
		}
	}
	lowerAll() // warm the lane
	const runs = 3
	perInst := float64(allocated(func() {
		for r := 0; r < runs; r++ {
			lowerAll()
		}
	})) / runs / float64(insts)
	t.Logf("%d SIR instructions: %.0f bytes allocated per instruction on a warm lane", insts, perInst)
	const budgetPerInst = 150.0
	if perInst > budgetPerInst {
		t.Errorf("a warm lane allocates %.0f bytes per SIR instruction; budget %.0f", perInst, budgetPerInst)
	}

	var lane, exact, slabs uint64
	for _, p := range progs {
		var m *sir.Module
		exact += allocated(func() { m, _ = sir.Generate(p) })
		lane += allocated(func() { new(sir.Generator).Generate(p) })
		for _, f := range m.Funcs {
			for _, b := range f.Blocks {
				for _, in := range b.Insts {
					slabs += uint64(unsafe.Sizeof(in)) + uint64(len(in.Args))*uint64(unsafe.Sizeof(sir.Value(0)))
				}
			}
		}
	}
	t.Logf("first modules: %d bytes on fresh lanes, %d with exact slabs of %d bytes", lane, exact, slabs)
	if lane > exact+slabs {
		t.Errorf("a lane's first module allocates %d bytes beyond exact slabs of %d bytes: more than twice the slabs", lane-exact, slabs)
	}
}
