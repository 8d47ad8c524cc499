package pipeline_test

import (
	"runtime"
	"testing"

	"outliner/internal/appgen"
	"outliner/internal/cache"
	"outliner/internal/obs"
	"outliner/internal/pipeline"
	"outliner/internal/raceflag"
)

// TestAllocBudgetBuild holds the end-to-end memory of a build: a 24-module
// whole-program OSize build (five outlining rounds) and a 24-module Default
// build (per-module outlining), each serial with the verifier on, may
// allocate at most a budget of bytes per machine instruction of the image.
// Measured 970 bytes per instruction for OSize and 471 for Default (1119 and
// 568 with a 128-byte llir.Inst); the budgets are those plus about 20 %. The race detector inflates allocations,
// so they are enforced only without it.
func TestAllocBudgetBuild(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	mods := appgen.Generate(appgen.UberRider, appgen.ScaleForModules(appgen.UberRider, 24))
	for _, c := range []struct {
		name   string
		cfg    pipeline.Config
		budget float64 // bytes per machine instruction
	}{
		{"OSize", pipeline.OSize, 1160},
		{"Default", pipeline.Default, 565},
	} {
		cfg := c.cfg
		cfg.Parallelism, cfg.Verify = 1, true
		build := func() (uint64, int) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := appgen.BuildGenerated(mods, cfg)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			return after.TotalAlloc - before.TotalAlloc, res.Prog.NumInsts()
		}
		build() // process-wide pools and tables are not the build's
		bytes, insts := build()
		perInst := float64(bytes) / float64(insts)
		t.Logf("%s: %.1f MB for %d machine instructions: %.0f bytes each", c.name, float64(bytes)/1e6, insts, perInst)
		if perInst > c.budget {
			t.Errorf("a %s build allocates %.0f bytes per machine instruction; budget %.0f", c.name, perInst, c.budget)
		}
	}
}

// TestAllocBudgetWarmEdit holds the developer loop's rebuild: a 24-module
// Default build with the verifier on, primed into a cache directory whose
// memory tier is then dropped, rebuilt serially after a comment edit to one
// module. Such a rebuild parses one module and takes every machine program
// from disk, so its bytes are mostly the decode → ld → verify → image tail.
// Measured 170 bytes per machine instruction, and 192 to 197 while that tail
// grew its containers per block, symbol and join; the budget is the
// measurement plus 10 %, which the old tail exceeds.
func TestAllocBudgetWarmEdit(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	const budget = 187 // bytes per machine instruction
	mods := appgen.Generate(appgen.UberRider, appgen.ScaleForModules(appgen.UberRider, 24))
	dir := t.TempDir()
	defer cache.Forget(dir)
	cfg := pipeline.Default
	cfg.Parallelism, cfg.Verify, cfg.CacheDir = 1, true, dir
	if _, err := appgen.BuildGenerated(mods, cfg); err != nil {
		t.Fatalf("priming build: %v", err)
	}
	c, err := cache.Shared(dir)
	if err != nil {
		t.Fatal(err)
	}
	rebuild := func(tag string) (uint64, int) {
		edited := appgen.EditBody(mods, mods[len(mods)/2].Name, tag)
		c.DropMemory() // a fresh process would see only the disk tier
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := appgen.BuildGenerated(edited, cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("warm rebuild: %v", err)
		}
		return after.TotalAlloc - before.TotalAlloc, res.Prog.NumInsts()
	}
	rebuild("warm-up") // process-wide pools and tables are not the build's
	bytes, insts := rebuild("measured")
	perInst := float64(bytes) / float64(insts)
	t.Logf("%.1f MB for %d machine instructions: %.0f bytes each", float64(bytes)/1e6, insts, perInst)
	if perInst > budget {
		t.Errorf("a warm one-edit rebuild allocates %.0f bytes per machine instruction; budget %d", perInst, budget)
	}
}

// TestAllocBudgetTracedBuild holds what telemetry costs a build: the same
// 24-module OSize and Default builds with a tracer may allocate at most 1.3
// times what they allocate without one. Remark records are nearly all of the
// difference, so this fails when the outliner or the tracer copies them.
// Measured 1.74 (OSize) and 1.41 (Default) while EmitBatch copied each
// round's remarks into a slice of its own.
func TestAllocBudgetTracedBuild(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	const budget = 1.3
	mods := appgen.Generate(appgen.UberRider, appgen.ScaleForModules(appgen.UberRider, 24))
	for _, c := range []struct {
		name string
		cfg  pipeline.Config
	}{{"OSize", pipeline.OSize}, {"Default", pipeline.Default}} {
		build := func(tr *obs.Tracer) uint64 {
			cfg := c.cfg
			cfg.Parallelism, cfg.Verify, cfg.Tracer = 1, true, tr
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := appgen.BuildGenerated(mods, cfg)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			return after.TotalAlloc - before.TotalAlloc
		}
		build(nil) // process-wide pools and tables are not the build's
		untraced := build(nil)
		traced := build(obs.New())
		ratio := float64(traced) / float64(untraced)
		t.Logf("%s: %.1f MB traced, %.1f MB untraced: %.2fx", c.name, float64(traced)/1e6, float64(untraced)/1e6, ratio)
		if ratio > budget {
			t.Errorf("a traced %s build allocates %.2f times an untraced one; budget %.1f", c.name, ratio, budget)
		}
	}
}
