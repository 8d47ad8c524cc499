package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"outliner/internal/appgen"
	"outliner/internal/exec"
	"outliner/internal/perf"
	"outliner/internal/pipeline"
	"outliner/internal/stats"
)

// Fig13Cell is one (span, device, OS) cell: the P50 ratio of optimized over
// baseline execution time (>1 = regression, <1 = improvement).
type Fig13Cell struct {
	Span   int
	Device string
	OS     string
	Ratio  float64
}

// Fig13Result reproduces Figure 13's heatmaps and Table III.
type Fig13Result struct {
	Cells []Fig13Cell
	// Table III: per-span mean seconds across the grid.
	SpanBaseSec    []float64
	SpanOptSec     []float64
	GeoMeanRatio   float64
	OutlinedDynPct float64 // % of dynamic instructions in outlined functions
	IPCDeltaPct    float64
}

// RunFig13 executes every span under the device/OS grid for baseline and
// optimized builds, sampling a small population of device-parameter jitters
// per cell (production telemetry is noisy; the paper uses P50 over >25K
// samples per cell).
func RunFig13(w io.Writer, scale float64, samples int) (*Fig13Result, error) {
	if samples < 1 {
		samples = 3
	}
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

	// Dynamic outlined-instruction share and IPC delta on one
	// representative configuration.
	if st, ipcDelta, err := dynStats(base, opt); err == nil {
		res.OutlinedDynPct = st
		res.IPCDeltaPct = ipcDelta
	} else {
		return nil, err
	}

	var ratios []float64
	rng := rand.New(rand.NewSource(1337))
	cellsPerSpan := 0
	for s := 1; s <= nSpans; s++ {
		entry := fmt.Sprintf("span%d", s)
		for _, dev := range perf.Devices {
			for _, osm := range perf.OSes {
				var samplesB, samplesO []float64
				for k := 0; k < samples; k++ {
					jdev := jitterDevice(dev, rng)
					_, pb, err := runOnDevice(base, entry, jdev, osm, 100_000_000)
					if err != nil {
						return nil, fmt.Errorf("span%d baseline on %s: %w", s, dev.Name, err)
					}
					_, po, err := runOnDevice(opt, entry, jdev, osm, 100_000_000)
					if err != nil {
						return nil, fmt.Errorf("span%d optimized on %s: %w", s, dev.Name, err)
					}
					samplesB = append(samplesB, pb.Seconds)
					samplesO = append(samplesO, po.Seconds)
				}
				p50b := stats.Median(samplesB)
				p50o := stats.Median(samplesO)
				ratio := p50o / p50b
				res.Cells = append(res.Cells, Fig13Cell{
					Span: s, Device: dev.Name, OS: osm.Name, Ratio: ratio,
				})
				ratios = append(ratios, ratio)
				res.SpanBaseSec[s-1] += p50b
				res.SpanOptSec[s-1] += p50o
				if s == 1 {
					cellsPerSpan++
				}
			}
		}
		res.SpanBaseSec[s-1] /= float64(cellsPerSpan)
		res.SpanOptSec[s-1] /= float64(cellsPerSpan)
	}
	res.GeoMeanRatio = stats.GeoMean(ratios)

	fmt.Fprintln(w, "FIGURE 13: span P50 time ratios (optimized/baseline) per device x OS")
	fmt.Fprintln(w, "(paper: mostly <1.0 — geomean 3.4% GAIN; worst cells mild regressions)")
	for s := 1; s <= nSpans; s++ {
		fmt.Fprintf(w, "\nSPAN%d\n", s)
		rows := [][]string{append([]string{"device \\ os"}, osNames()...)}
		for _, dev := range perf.Devices {
			row := []string{dev.Name}
			for _, osm := range perf.OSes {
				for _, c := range res.Cells {
					if c.Span == s && c.Device == dev.Name && c.OS == osm.Name {
						row = append(row, fmt.Sprintf("%.3f", c.Ratio))
					}
				}
			}
			rows = append(rows, row)
		}
		table(w, rows)
	}

	fmt.Fprintln(w, "\nTABLE III: average execution time of core spans")
	rows := [][]string{{"span", "baseline (ms)", "optimized (ms)"}}
	for s := 0; s < nSpans; s++ {
		rows = append(rows, []string{
			fmt.Sprintf("SPAN%d", s+1),
			fmt.Sprintf("%.3f", res.SpanBaseSec[s]*1000),
			fmt.Sprintf("%.3f", res.SpanOptSec[s]*1000),
		})
	}
	table(w, rows)
	fmt.Fprintf(w, "\ngeomean ratio: %.4f (paper: 0.966, a 3.4%% gain)\n", res.GeoMeanRatio)
	fmt.Fprintf(w, "dynamic instructions in outlined functions: %.2f%% (paper: ~3%%)\n", res.OutlinedDynPct)
	fmt.Fprintf(w, "IPC delta (optimized vs baseline): %+.2f%% (paper: +4%%)\n", res.IPCDeltaPct)
	return res, nil
}

func osNames() []string {
	out := make([]string, len(perf.OSes))
	for i, o := range perf.OSes {
		out[i] = o.Name
	}
	return out
}

// jitterDevice perturbs a device's parameters slightly, modeling population
// variance across units, thermal states, and background load.
func jitterDevice(d perf.Device, rng *rand.Rand) perf.Device {
	j := d
	f := 1 + (rng.Float64()-0.5)*0.06
	j.BaseCPI *= f
	j.ICacheMissCycles *= 1 + (rng.Float64()-0.5)*0.1
	j.DCacheMissCycles *= 1 + (rng.Float64()-0.5)*0.1
	return j
}

// dynStats measures the outlined-instruction share and the IPC change on the
// full app run.
func dynStats(base, opt *pipeline.Result) (outlinedPct, ipcDeltaPct float64, err error) {
	dev, osm := perf.Devices[3], perf.OSes[2]
	simB := perf.New(dev, osm)
	mb, err := exec.New(base.Prog, exec.Options{MaxSteps: 200_000_000, Trace: simB.Observe})
	if err != nil {
		return 0, 0, err
	}
	if _, err := mb.Run("main"); err != nil {
		return 0, 0, err
	}
	rb := simB.Finish()

	simO := perf.New(dev, osm)
	mo, err := exec.New(opt.Prog, exec.Options{MaxSteps: 200_000_000, Trace: simO.Observe})
	if err != nil {
		return 0, 0, err
	}
	if _, err := mo.Run("main"); err != nil {
		return 0, 0, err
	}
	ro := simO.Finish()

	st := mo.Stats()
	outlinedPct = 100 * float64(st.OutlinedInsts) / float64(st.DynamicInsts)
	ipcDeltaPct = (ro.IPC/rb.IPC - 1) * 100
	return outlinedPct, ipcDeltaPct, nil
}
