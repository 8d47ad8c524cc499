package pipeline_test

import (
	"sort"
	"testing"

	"outliner/internal/appgen"
	"outliner/internal/frontend"
	"outliner/internal/pipeline"
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
