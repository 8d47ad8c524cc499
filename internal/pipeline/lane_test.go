package pipeline_test

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"outliner/internal/appgen"
	"outliner/internal/fault"
	"outliner/internal/frontend"
	"outliner/internal/llir"
	"outliner/internal/mir"
	"outliner/internal/obs"
	"outliner/internal/par"
	"outliner/internal/pipeline"
	"outliner/internal/raceflag"
)

// TestLaneReuseLeavesLoweredModulesIntact lowers modules one after another on
// one frontend lane, as a worker of the frontend stage does. The lane reuses
// the previous module's SIR storage and lowering tables, so the test lowers a
// small module A, prints its LLIR, then lowers the two largest modules on the
// same lane: A's text must not move, and must equal A lowered on fresh
// storage. Then every module, ordered largest, smallest, second largest, …,
// must lower on one lane exactly as on fresh storage. LLIR that kept a pointer
// into the lane (an argument list that aliases the SIR's, say) fails here.
func TestLaneReuseLeavesLoweredModulesIntact(t *testing.T) {
	srcs := appgen.Sources(appgen.Generate(appgen.UberRider, appgen.ScaleForModules(appgen.UberRider, 24)))
	parse := func(i int) []*frontend.File {
		files, err := pipeline.ParseSource(srcs[i])
		if err != nil {
			t.Fatal(err)
		}
		return files
	}
	parsed := make([][]*frontend.File, len(srcs))
	for i := range srcs {
		parsed[i] = parse(i)
	}
	ix := frontend.NewImportsIndex(parsed...)
	cfg := pipeline.Config{SILOutline: true, SpecializeClosures: true, Verify: true}
	// lower lowers module i from fresh ASTs (the checker annotates them in
	// place) and returns its LLIR text.
	lower := func(i int, lane *pipeline.FrontLane) string {
		m, err := pipeline.LowerToLLIR(srcs[i].Name, parse(i), cfg, ix.For(i), lane)
		if err != nil {
			t.Fatalf("module %s: %v", srcs[i].Name, err)
		}
		return m.String()
	}

	fresh := make([]string, len(srcs))
	for i := range srcs {
		fresh[i] = lower(i, nil)
	}
	bySize := make([]int, len(srcs))
	for i := range bySize {
		bySize[i] = i
	}
	sort.SliceStable(bySize, func(a, b int) bool { return len(fresh[bySize[a]]) > len(fresh[bySize[b]]) })
	small, large := bySize[len(bySize)-1], bySize[:2]

	lane := new(pipeline.FrontLane)
	m, err := pipeline.LowerToLLIR(srcs[small].Name, parse(small), cfg, ix.For(small), lane)
	if err != nil {
		t.Fatal(err)
	}
	before := m.String()
	for _, i := range large {
		lower(i, lane)
	}
	if m.String() != before {
		t.Errorf("module %s changed when its lane lowered larger modules", srcs[small].Name)
	}
	if before != fresh[small] {
		t.Errorf("module %s lowered on a lane differs from fresh storage", srcs[small].Name)
	}

	lane = new(pipeline.FrontLane)
	for lo, hi := 0, len(bySize)-1; lo <= hi; lo, hi = lo+1, hi-1 {
		for _, i := range []int{bySize[lo], bySize[hi]} {
			if got := lower(i, lane); got != fresh[i] {
				t.Errorf("module %s lowered after the lane's larger and smaller modules differs from fresh storage", srcs[i].Name)
			}
			if lo == hi {
				break
			}
		}
	}
}

// backFixture is the 24-module UberRider corpus lowered to LLIR under cfg,
// one module per source on fresh storage, and the machine stage's external
// symbols for a build of all of them.
func backFixture(t *testing.T, cfg pipeline.Config) ([]*llir.Module, map[string]bool) {
	t.Helper()
	srcs := appgen.Sources(appgen.Generate(appgen.UberRider, appgen.ScaleForModules(appgen.UberRider, 24)))
	parsed := make([][]*frontend.File, len(srcs))
	for i := range srcs {
		var err error
		if parsed[i], err = pipeline.ParseSource(srcs[i]); err != nil {
			t.Fatal(err)
		}
	}
	ix := frontend.NewImportsIndex(parsed...)
	mods := make([]*llir.Module, len(srcs))
	for i := range srcs {
		var err error
		if mods[i], err = pipeline.CompileToLLIR(srcs[i], cfg, ix.For(i)); err != nil {
			t.Fatalf("module %s: %v", srcs[i].Name, err)
		}
	}
	return mods, pipeline.ExternSyms(mods)
}

// machine is one module's machine-stage output as text: its program, its
// outlining statistics and its remark stream.
type machine struct{ prog, stats, remarks string }

// compileOn generates code for m and outlines it on lane (fresh storage when
// nil) under cfg, with a tracer of its own, and returns the program with its
// output as text.
func compileOn(t *testing.T, m *llir.Module, cfg pipeline.Config, extern map[string]bool, lane *pipeline.BackLane) (*mir.Program, machine) {
	t.Helper()
	cfg.Tracer = obs.New()
	prog, st, err := pipeline.CompileModule(m, cfg, extern, lane)
	if err != nil {
		t.Fatalf("module %s: %v", m.Name, err)
	}
	var rem strings.Builder
	if err := cfg.Tracer.WriteRemarks(&rem); err != nil {
		t.Fatal(err)
	}
	return prog, machine{prog.String(), fmt.Sprint(st.Rounds), rem.String()}
}

// diff names what differs between two outputs of one module.
func (got machine) diff(want machine) string {
	var parts []string
	if got.prog != want.prog {
		parts = append(parts, "program")
	}
	if got.stats != want.stats {
		parts = append(parts, "statistics "+got.stats+" vs "+want.stats)
	}
	if got.remarks != want.remarks {
		parts = append(parts, "remarks")
	}
	return strings.Join(parts, ", ")
}

// bySize returns module indices from the largest program to the smallest.
func bySize(fresh []machine) []int {
	order := make([]int, len(fresh))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return len(fresh[order[a]].prog) > len(fresh[order[b]].prog) })
	return order
}

// backCfg outlines three rounds, so a lane's liveness carries between
// rounds as well as being dropped between modules.
var backCfg = pipeline.Config{OutlineRounds: 3, SILOutline: true, Verify: true}

// TestLaneReuseLeavesCompiledModulesIntact compiles and outlines modules one
// after another on one per-module llc lane, as a worker of the machine stage
// does. The lane keeps the previous module's codegen tables and outlining
// scratch, so the test compiles the smallest module A, then the two largest
// on the same lane: A's program must not move, and A's program, statistics
// and remarks must equal those of fresh storage. Then every module, ordered
// largest, smallest, second largest, …, must come out of the lane exactly as
// out of fresh storage. A machine program that kept a pointer into the lane,
// or a scratch that carried a table of the previous module (one function's
// liveness standing for another's, say), fails here.
func TestLaneReuseLeavesCompiledModulesIntact(t *testing.T) {
	mods, extern := backFixture(t, backCfg)
	fresh := make([]machine, len(mods))
	for i, m := range mods {
		_, fresh[i] = compileOn(t, m, backCfg, extern, nil)
	}
	order := bySize(fresh)
	small := order[len(order)-1]

	lane := new(pipeline.BackLane)
	prog, got := compileOn(t, mods[small], backCfg, extern, lane)
	if d := got.diff(fresh[small]); d != "" {
		t.Errorf("module %s compiled on a lane differs from fresh storage: %s", mods[small].Name, d)
	}
	for _, i := range order[:2] {
		if _, got := compileOn(t, mods[i], backCfg, extern, lane); got.diff(fresh[i]) != "" {
			t.Errorf("module %s compiled after a smaller one differs from fresh storage: %s", mods[i].Name, got.diff(fresh[i]))
		}
	}
	if prog.String() != fresh[small].prog {
		t.Errorf("module %s changed when its lane compiled larger modules", mods[small].Name)
	}

	for lo, hi := 0, len(order)-1; lo <= hi; lo, hi = lo+1, hi-1 {
		for _, i := range []int{order[lo], order[hi]} {
			if _, got := compileOn(t, mods[i], backCfg, extern, lane); got.diff(fresh[i]) != "" {
				t.Errorf("module %s compiled after the lane's larger and smaller modules differs from fresh storage: %s",
					mods[i].Name, got.diff(fresh[i]))
			}
			if lo == hi {
				break
			}
		}
	}
}

// TestLaneReuseAfterRecoveredPanic arms a codegen panic in the middle of the
// largest module A, so the lane has compiled part of A when the panic
// unwinds. Compiling A on the lane must fail with the recovered panic, and
// the lane must then compile and outline the next modules — the smallest, and
// A again without the fault — exactly as fresh storage does.
func TestLaneReuseAfterRecoveredPanic(t *testing.T) {
	mods, extern := backFixture(t, backCfg)
	fresh := make([]machine, len(mods))
	for i, m := range mods {
		_, fresh[i] = compileOn(t, m, backCfg, extern, nil)
	}
	order := bySize(fresh)
	a, small := order[0], order[len(order)-1]

	lane := new(pipeline.BackLane)
	faulty := backCfg
	victim := mods[a].Funcs[len(mods[a].Funcs)/2].Name
	faulty.Fault = fault.Exact(fault.At{Site: fault.CodegenFunc, Key: victim, Kind: fault.PanicKind})
	_, _, err := pipeline.CompileModule(mods[a], faulty, extern, lane)
	var pe *par.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("compiling %s with a panic armed at @%s: got %v, want a recovered panic", mods[a].Name, victim, err)
	}
	for _, i := range []int{small, a} {
		if _, got := compileOn(t, mods[i], backCfg, extern, lane); got.diff(fresh[i]) != "" {
			t.Errorf("module %s compiled on a lane after a recovered panic differs from fresh storage: %s", mods[i].Name, got.diff(fresh[i]))
		}
	}
}

// TestAllocBudgetLaneBackHalf bounds what a per-module llc lane allocates per
// machine instruction to generate code for a module and outline it once the
// lane is warm, under the clean-build configuration (one outlining round,
// verifier on). The codegen tables and the outlining scratch are the previous
// module's, LR bits included, so what remains is the machine program the
// module keeps, the outlined functions and call sites, and the verifier's
// tables. Measured 112 bytes per instruction when liveness was allocated per
// function (94 since); the budget is 112 plus 20 %. A warm lane must also
// allocate at most half of what fresh storage per module does (measured 0.16:
// 706 bytes per instruction; 0.14 and 659 since). The race detector inflates
// allocations, so the budget is enforced only without it.
func TestAllocBudgetLaneBackHalf(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	cfg := pipeline.Default
	cfg.Verify = true
	mods, extern := backFixture(t, cfg)
	insts := 0
	compileAll := func(lane *pipeline.BackLane) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		insts = 0
		for _, m := range mods {
			prog, _, err := pipeline.CompileModule(m, cfg, extern, lane)
			if err != nil {
				t.Fatalf("module %s: %v", m.Name, err)
			}
			insts += prog.NumInsts()
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	lane := new(pipeline.BackLane)
	compileAll(lane) // warm the lane
	warm, fresh := compileAll(lane), compileAll(nil)
	perInst := float64(warm) / float64(insts)
	ratio := float64(warm) / float64(fresh)
	t.Logf("%d machine instructions: %.0f bytes each on a warm lane, %.0f on fresh storage (%.2f)",
		insts, perInst, float64(fresh)/float64(insts), ratio)
	const budgetPerInst = 135.0
	if perInst > budgetPerInst {
		t.Errorf("a warm lane allocates %.0f bytes per machine instruction; budget %.0f", perInst, budgetPerInst)
	}
	if ratio > 0.5 {
		t.Errorf("a warm lane allocates %.2f of what fresh storage does; budget 0.5", ratio)
	}
}
