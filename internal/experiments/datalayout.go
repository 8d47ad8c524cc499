package experiments

import (
	"fmt"
	"io"

	"outliner/internal/appgen"
	"outliner/internal/perf"
	"outliner/internal/pipeline"
	"outliner/internal/stats"
)

// DataLayoutResult reproduces §VI-3: merging IR modules with llvm-link's
// default global ordering interleaves unrelated modules' data, inflating the
// data-page working set; preserving per-module order eliminates the
// regression. The paper saw an average 10% production regression traced to
// data page faults, present even with outlining off.
type DataLayoutResult struct {
	InterleavedFaults int64
	PreservedFaults   int64
	InterleavedSec    float64
	PreservedSec      float64
	RegressionPct     float64
}

// residencyOverride lets tests sweep the memory-pressure knob.
var residencyOverride int

// RunDataLayout builds the app twice (whole-program, outlining on) with and
// without module-order preservation and compares page faults and time over
// the spans.
func RunDataLayout(w io.Writer, scale float64) (*DataLayoutResult, error) {
	mods := appgen.Generate(appgen.UberRider, scale)
	presRes, _, err := build(pipeline.OSize, mods, nil)
	if err != nil {
		return nil, err
	}
	inter := pipeline.OSize
	inter.PreserveDataLayout = false
	interRes, _, err := build(inter, mods, nil)
	if err != nil {
		return nil, err
	}

	// Memory pressure varies across the fleet; sample a population of
	// working-set limits (background load states) and aggregate, the way
	// production telemetry would.
	residencies := []int{8, 10, 12, 14}
	if residencyOverride > 0 {
		residencies = []int{residencyOverride}
	}
	osm := perf.OSes[2]

	res := &DataLayoutResult{}
	var presSecs, interSecs []float64
	for _, pages := range residencies {
		dev := perf.Devices[0]
		dev.ResidentDataPages = pages
		for s := 1; s <= appgen.UberRider.Spans; s++ {
			entry := fmt.Sprintf("span%d", s)
			_, pp, err := runOnDevice(presRes, entry, dev, osm, 100_000_000)
			if err != nil {
				return nil, err
			}
			_, ip, err := runOnDevice(interRes, entry, dev, osm, 100_000_000)
			if err != nil {
				return nil, err
			}
			res.PreservedFaults += pp.PageFaults
			res.InterleavedFaults += ip.PageFaults
			presSecs = append(presSecs, pp.Seconds)
			interSecs = append(interSecs, ip.Seconds)
		}
	}
	res.PreservedSec = stats.Mean(presSecs)
	res.InterleavedSec = stats.Mean(interSecs)
	res.RegressionPct = (res.InterleavedSec/res.PreservedSec - 1) * 100

	fmt.Fprintln(w, "DATA LAYOUT (§VI-3): llvm-link global ordering vs module-order preservation")
	fmt.Fprintln(w, "(paper: interleaving caused ~10% production regression via data page faults)")
	fmt.Fprintln(w)
	rows := [][]string{
		{"configuration", "page faults", "mean span time"},
		{"module order preserved (fix)", fmt.Sprintf("%d", res.PreservedFaults), fmt.Sprintf("%.3fms", res.PreservedSec*1000)},
		{"interleaved (default llvm-link)", fmt.Sprintf("%d", res.InterleavedFaults), fmt.Sprintf("%.3fms", res.InterleavedSec*1000)},
	}
	table(w, rows)
	fmt.Fprintf(w, "\nregression from interleaving: %+.1f%%\n", res.RegressionPct)
	return res, nil
}
