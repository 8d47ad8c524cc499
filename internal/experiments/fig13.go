package experiments

import (
	"fmt"
	"io"

	"outliner/internal/appgen"
	"outliner/internal/exec"
	"outliner/internal/perf"
	"outliner/internal/pipeline"
	"outliner/internal/stats"
)

// Fig13Cell is one (span, device) cell: the ratio of optimized over baseline
// simulated execution time (>1 = regression, <1 = improvement).
type Fig13Cell struct {
	Span   int
	Device string
	Ratio  float64
}

// Fig13Result reproduces Figure 13's heatmap and Table III.
type Fig13Result struct {
	Cells []Fig13Cell // device-major: Cells[d*spans+s-1] is span s on perf.Devices[d]
	// Table III: per-span mean seconds over the devices.
	SpanBaseSec    []float64
	SpanOptSec     []float64
	GeoMeanRatio   float64
	OutlinedDynPct float64 // % of dynamic instructions in outlined functions
}

// RunFig13 runs every span once per device for the baseline and optimized
// builds and reports the exact time ratios. The cycle model is deterministic,
// so one run is the cell's value (the paper takes P50s over >25K noisy
// production samples). Every run is on iOS 13.5.1: the OS model is one
// constant factor on every cycle (perf.OS.Overhead), so it cancels in each
// ratio.
func RunFig13(w io.Writer, scale float64) (*Fig13Result, error) {
	mods := appgen.Generate(appgen.UberRider, scale)
	base, err := build(baseline(), mods, nil)
	if err != nil {
		return nil, err
	}
	opt, err := build(pipeline.OSize, mods, nil)
	if err != nil {
		return nil, err
	}
	nSpans := appgen.UberRider.Spans
	res := &Fig13Result{
		SpanBaseSec: make([]float64, nSpans),
		SpanOptSec:  make([]float64, nSpans),
	}
	if res.OutlinedDynPct, err = outlinedDynPct(opt); err != nil {
		return nil, err
	}

	osm := perf.OSes[2] // 13.5.1, factor 1.00
	ratios := make([]float64, 0, len(perf.Devices)*nSpans)
	for _, dev := range perf.Devices {
		for s := 1; s <= nSpans; s++ {
			entry := fmt.Sprintf("span%d", s)
			_, pb, err := runOnDevice(base, entry, dev, osm, 100_000_000)
			if err != nil {
				return nil, fmt.Errorf("span%d baseline on %s: %w", s, dev.Name, err)
			}
			_, po, err := runOnDevice(opt, entry, dev, osm, 100_000_000)
			if err != nil {
				return nil, fmt.Errorf("span%d optimized on %s: %w", s, dev.Name, err)
			}
			ratio := po.Seconds / pb.Seconds
			res.Cells = append(res.Cells, Fig13Cell{Span: s, Device: dev.Name, Ratio: ratio})
			ratios = append(ratios, ratio)
			res.SpanBaseSec[s-1] += pb.Seconds
			res.SpanOptSec[s-1] += po.Seconds
		}
	}
	for s := range res.SpanBaseSec {
		res.SpanBaseSec[s] /= float64(len(perf.Devices))
		res.SpanOptSec[s] /= float64(len(perf.Devices))
	}
	res.GeoMeanRatio = stats.GeoMean(ratios)

	fmt.Fprintf(w, "FIGURE 13: span time ratios (optimized/baseline) per device, iOS %s\n", osm.Name)
	fmt.Fprintln(w, "(paper: mostly <1.0 — geomean 3.4% GAIN; worst cells mild regressions)")
	fmt.Fprintln(w, "(the OS model is a constant factor on every cycle and cancels in the ratio: one OS is run)")
	fmt.Fprintln(w)
	header := []string{"device \\ span"}
	for s := 1; s <= nSpans; s++ {
		header = append(header, fmt.Sprintf("SPAN%d", s))
	}
	rows := [][]string{header}
	for d, dev := range perf.Devices {
		row := []string{dev.Name}
		for _, c := range res.Cells[d*nSpans : (d+1)*nSpans] {
			row = append(row, fmt.Sprintf("%.4f", c.Ratio))
		}
		rows = append(rows, row)
	}
	table(w, rows)

	// Microseconds at two decimals and the ratio at the heatmap's four: the
	// two builds' span times differ by 0.1-1 %, below a millisecond's third
	// decimal.
	fmt.Fprintf(w, "\nTABLE III: average execution time of core spans (mean over devices, iOS %s)\n", osm.Name)
	rows = [][]string{{"span", "baseline (us)", "optimized (us)", "ratio"}}
	for s := 0; s < nSpans; s++ {
		rows = append(rows, []string{
			fmt.Sprintf("SPAN%d", s+1),
			fmt.Sprintf("%.2f", res.SpanBaseSec[s]*1e6),
			fmt.Sprintf("%.2f", res.SpanOptSec[s]*1e6),
			fmt.Sprintf("%.4f", res.SpanOptSec[s]/res.SpanBaseSec[s]),
		})
	}
	table(w, rows)
	fmt.Fprintf(w, "\ngeomean ratio: %.4f (paper: 0.966, a 3.4%% gain)\n", res.GeoMeanRatio)
	fmt.Fprintf(w, "dynamic instructions in outlined functions: %.2f%% (paper: ~3%%)\n", res.OutlinedDynPct)
	return res, nil
}

// outlinedDynPct runs the optimized app's main, unsimulated, and returns the
// share of its dynamic instructions that execute in outlined functions.
func outlinedDynPct(opt *pipeline.Result) (float64, error) {
	m, err := exec.New(opt.Prog, exec.Options{MaxSteps: 200_000_000})
	if err != nil {
		return 0, err
	}
	if _, err := m.Run("main"); err != nil {
		return 0, err
	}
	st := m.Stats()
	return 100 * float64(st.OutlinedInsts) / float64(st.DynamicInsts), nil
}
