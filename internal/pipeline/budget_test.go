package pipeline_test

import (
	"runtime"
	"testing"

	"outliner/internal/appgen"
	"outliner/internal/pipeline"
	"outliner/internal/raceflag"
)

// TestAllocBudgetBuild holds the end-to-end memory of a build: a 24-module
// whole-program OSize build (five outlining rounds) and a 24-module Default
// build (per-module outlining), each serial with the verifier on, may
// allocate at most a budget of bytes per machine instruction of the image.
// Measured 1170 bytes per instruction for OSize and 602 for Default; the
// budgets are those plus about 20 %. The race detector inflates allocations,
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
		{"OSize", pipeline.OSize, 1400},
		{"Default", pipeline.Default, 720},
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
