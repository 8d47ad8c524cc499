package experiments

import (
	"fmt"
	"io"

	"outliner/internal/appgen"
	"outliner/internal/pipeline"
	"outliner/internal/stats"
)

// Fig1Point is one snapshot of the growing app.
type Fig1Point struct {
	Week           int
	Scale          float64
	BaselineBytes  int
	OptimizedBytes int
}

// Fig1Result reproduces Figure 1: code-size growth over time for the default
// pipeline versus the whole-program repeated-outlining pipeline, with fitted
// slopes. The paper reports a ~23% cut and a ~2x slope reduction
// (baseline slope 2.7 vs optimized 1.37, R² 96%/98%).
type Fig1Result struct {
	Points       []Fig1Point
	BaselineFit  stats.LinearFit
	OptimizedFit stats.LinearFit
	FinalSaving  float64 // fraction at the last snapshot
	SlopeRatio   float64
}

// RunFig1 compiles the synthetic app at a sweep of growth scales (the app
// gains modules and functions week over week) under both pipelines.
func RunFig1(w io.Writer, snapshots int, maxScale float64) (*Fig1Result, error) {
	if snapshots < 2 {
		snapshots = 2
	}
	res := &Fig1Result{}
	var weeks, baseSizes, optSizes []float64
	for i := 0; i < snapshots; i++ {
		scale := 0.3 + (maxScale-0.3)*float64(i)/float64(snapshots-1)
		mods := appgen.Generate(appgen.UberRider, scale)
		base, err := build(baseline(), mods, nil)
		if err != nil {
			return nil, fmt.Errorf("fig1 snapshot %d baseline: %w", i, err)
		}
		opt, err := build(pipeline.OSize, mods, nil)
		if err != nil {
			return nil, fmt.Errorf("fig1 snapshot %d optimized: %w", i, err)
		}
		week := i * 52 / (snapshots - 1)
		res.Points = append(res.Points, Fig1Point{
			Week: week, Scale: scale,
			BaselineBytes: base.CodeSize(), OptimizedBytes: opt.CodeSize(),
		})
		weeks = append(weeks, float64(week))
		baseSizes = append(baseSizes, float64(base.CodeSize()))
		optSizes = append(optSizes, float64(opt.CodeSize()))
	}
	res.BaselineFit = stats.Linear(weeks, baseSizes)
	res.OptimizedFit = stats.Linear(weeks, optSizes)
	last := res.Points[len(res.Points)-1]
	res.FinalSaving = 1 - float64(last.OptimizedBytes)/float64(last.BaselineBytes)
	if res.OptimizedFit.Slope > 0 {
		res.SlopeRatio = res.BaselineFit.Slope / res.OptimizedFit.Slope
	}

	fmt.Fprintln(w, "FIGURE 1: code-size growth, default pipeline vs whole-program repeated outlining")
	fmt.Fprintln(w, "(paper: 23% cut at the final point; slope ratio ~2x; R² 96%/98%)")
	fmt.Fprintln(w)
	rows := [][]string{{"week", "baseline", "optimized", "saving"}}
	for _, p := range res.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Week),
			fmt.Sprintf("%d", p.BaselineBytes),
			fmt.Sprintf("%d", p.OptimizedBytes),
			percent(1 - float64(p.OptimizedBytes)/float64(p.BaselineBytes)),
		})
	}
	table(w, rows)
	fmt.Fprintf(w, "\nbaseline fit:  %.1f bytes/week (R²=%.3f)\n", res.BaselineFit.Slope, res.BaselineFit.R2)
	fmt.Fprintf(w, "optimized fit: %.1f bytes/week (R²=%.3f)\n", res.OptimizedFit.Slope, res.OptimizedFit.R2)
	fmt.Fprintf(w, "slope ratio:   %.2fx   final saving: %s\n", res.SlopeRatio, percent(res.FinalSaving))
	return res, nil
}
