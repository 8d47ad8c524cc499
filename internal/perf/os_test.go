package perf_test

import (
	"math"
	"testing"

	"outliner/internal/appgen"
	"outliner/internal/exec"
	"outliner/internal/perf"
	"outliner/internal/pipeline"
)

// TestOSFactorScalesUniformly replays one span of the synthetic app on one
// device under every OS model. The OS must change no miss or fault count and
// scale the cycles by its Overhead alone: that is why Fig. 13 runs a single
// OS, the factor cancelling in every optimized/baseline ratio.
func TestOSFactorScalesUniformly(t *testing.T) {
	res, err := appgen.BuildGenerated(appgen.Generate(appgen.UberRider, 0.1), pipeline.OSize)
	if err != nil {
		t.Fatal(err)
	}
	var trace []exec.Event
	m, err := exec.New(res.Prog, exec.Options{MaxSteps: 10_000_000, Trace: func(ev exec.Event) { trace = append(trace, ev) }})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run("span1"); err != nil {
		t.Fatal(err)
	}
	simulate := func(osm perf.OS) perf.Result {
		sim := perf.New(perf.Devices[0], osm)
		for _, ev := range trace {
			sim.Observe(ev)
		}
		return sim.Finish()
	}

	ref := simulate(perf.OSes[2])
	if f := perf.OSes[2].Overhead; f != 1 {
		t.Fatalf("OS %s has factor %v, want 1.00", perf.OSes[2].Name, f)
	}
	if ref.ICacheMisses == 0 || ref.PageFaults == 0 || ref.BranchMisses == 0 {
		t.Fatalf("span1 exercises too little of the model: %+v", ref)
	}
	counts := func(r perf.Result) [6]int64 {
		return [6]int64{r.Insts, r.ICacheMisses, r.ITLBMisses, r.DCacheMisses, r.BranchMisses, r.PageFaults}
	}
	for _, osm := range perf.OSes {
		r := simulate(osm)
		if counts(r) != counts(ref) {
			t.Errorf("OS %s changes the event counts: %v, 13.5.1 gives %v; "+
				"the OS is no longer a constant factor, so Fig. 13 must get its OS loop back", osm.Name, counts(r), counts(ref))
		}
		want := ref.Cycles * osm.Overhead
		if rel := math.Abs(r.Cycles-want) / want; rel > 1e-12 {
			t.Errorf("OS %s: %v cycles, want 13.5.1's %v × %v (relative error %.3g); "+
				"the OS is no longer a constant factor, so Fig. 13 must get its OS loop back", osm.Name, r.Cycles, ref.Cycles, osm.Overhead, rel)
		}
	}
}
