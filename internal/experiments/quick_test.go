package experiments

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"testing"

	"outliner/internal/appgen"
	"outliner/internal/obs"
	"outliner/internal/perf"
	"outliner/internal/pipeline"
)

var sink io.Writer = io.Discard

func TestTable4Suite(t *testing.T) {
	res, err := RunTable4(sink)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mismatches > 0 {
		t.Fatalf("%d benchmarks changed behaviour under outlining", res.Mismatches)
	}
	if len(res.Rows) != 26 {
		t.Fatalf("suite has %d benchmarks, want 26", len(res.Rows))
	}
	// Shape: overhead is small on average (paper: ~1.6%), bounded worst case.
	if res.AvgPct > 5 {
		t.Errorf("average overhead %.2f%% too large", res.AvgPct)
	}
	if res.MaxPct > 25 {
		t.Errorf("worst overhead %.2f%% too large", res.MaxPct)
	}
}

func TestFig1Shape(t *testing.T) {
	res, err := RunFig1(sink, 5, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalSaving < 0.10 {
		t.Errorf("final saving %.1f%% too small", res.FinalSaving*100)
	}
	if res.SlopeRatio < 1.2 {
		t.Errorf("slope ratio %.2f; optimized pipeline must slow growth", res.SlopeRatio)
	}
	if res.BaselineFit.R2 < 0.8 || res.OptimizedFit.R2 < 0.8 {
		t.Errorf("growth not linear enough: R² %.2f / %.2f", res.BaselineFit.R2, res.OptimizedFit.R2)
	}
}

// TestTable1Shape checks Table I's ordering: every pass measured against
// noDedup() saves less than machine outlining does, and the similar policy,
// which folds identical functions too, saves at least what MergeFunctions
// saves.
func TestTable1Shape(t *testing.T) {
	res, err := RunTable1(sink, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	isa := res.Rows[4].SavingPct
	for _, r := range res.Rows[:4] {
		if r.SavingPct >= isa {
			t.Errorf("%s (%.2f%%) should save less than machine outlining (%.2f%%)",
				r.Technique, r.SavingPct, isa)
		}
	}
	if merge, fmsa := res.Rows[2], res.Rows[3]; fmsa.SavingPct < merge.SavingPct {
		t.Errorf("%s (%.2f%%) should save at least what %s saves (%.2f%%)",
			fmsa.Technique, fmsa.SavingPct, merge.Technique, merge.SavingPct)
	}
	if r := res.Rows[5]; r.Against != "baseline()" || r.SavingPct <= 0 {
		t.Errorf("%s against %s saves %.2f%%; want a saving against baseline()", r.Technique, r.Against, r.SavingPct)
	}
}

// TestTable1ReachesDriverTracer checks that every Table I build runs under
// the driver's tracer: the two reference builds and the five measured ones
// each count the app's modules into it.
func TestTable1ReachesDriverTracer(t *testing.T) {
	const scale = 0.1
	Driver.Tracer = obs.New()
	defer func() { Driver.Tracer = nil }()
	if _, err := RunTable1(sink, scale); err != nil {
		t.Fatal(err)
	}
	modules := int64(len(appgen.Generate(appgen.UberRider, scale)))
	if got := Driver.Tracer.Counter("appgen/modules"); got != 7*modules {
		t.Errorf("appgen/modules = %d, want 7 builds x %d modules", got, modules)
	}
}

func TestPatternsShape(t *testing.T) {
	var buf bytes.Buffer
	res, err := RunPatterns(&buf, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.PowerFit.B >= 0 {
		t.Errorf("power-law exponent %.2f must be negative", res.PowerFit.B)
	}
	if res.PowerFit.R2 < 0.5 {
		t.Errorf("power-law fit R² %.2f too weak", res.PowerFit.R2)
	}
	// Short patterns must dominate (Fig 8): length-2 candidates outnumber
	// any longer length.
	max := 0
	for l, c := range res.LengthHist {
		if l != 2 && c > max {
			max = c
		}
	}
	if res.LengthHist[2] <= max {
		t.Errorf("length-2 candidates (%d) must dominate (max other %d)", res.LengthHist[2], max)
	}
	if res.NeedFor90Pct < 10 {
		t.Errorf("only %d patterns for 90%% — diversity too low", res.NeedFor90Pct)
	}
}

func TestFig12Shape(t *testing.T) {
	res, err := RunFig12(sink, 0.4, 6)
	if err != nil {
		t.Fatal(err)
	}
	pts := res.Points
	// Inter-module beats intra-module at max rounds.
	last := pts[len(pts)-1]
	if last.InterCode >= last.IntraCode {
		t.Errorf("whole-program (%d) must beat per-module (%d)", last.InterCode, last.IntraCode)
	}
	// Monotone non-increasing with rounds; diminishing returns.
	for i := 1; i < len(pts); i++ {
		if pts[i].InterCode > pts[i-1].InterCode {
			t.Errorf("inter code grew between rounds %d and %d", pts[i-1].Rounds, pts[i].Rounds)
		}
	}
	gain1 := pts[0].InterCode - pts[1].InterCode
	gainLast := pts[len(pts)-2].InterCode - pts[len(pts)-1].InterCode
	if gainLast > gain1/2 {
		t.Errorf("no diminishing returns: first round %d bytes, last %d", gain1, gainLast)
	}
	if len(res.Table2) < 3 || len(res.Table2) > 5 {
		t.Errorf("table2 rows = %d, want 3..5 (convergence may stop rounds early)", len(res.Table2))
	} else {
		for i := 1; i < len(res.Table2); i++ {
			if res.Table2[i].SequencesOutlined < res.Table2[i-1].SequencesOutlined {
				t.Error("cumulative sequences must not decrease")
			}
		}
	}
}

func TestGeneralityShape(t *testing.T) {
	res, err := RunGenerality(sink, 0.35)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.SavingPct < 5 {
			t.Errorf("%s saving %.1f%% too small", r.Subject, r.SavingPct)
		}
	}
}

func TestDataLayoutShape(t *testing.T) {
	res, err := RunDataLayout(sink, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if res.InterleavedFaults <= res.PreservedFaults {
		t.Errorf("interleaving (%d faults) must fault more than preserved order (%d)",
			res.InterleavedFaults, res.PreservedFaults)
	}
	if res.RegressionPct <= 0 {
		t.Errorf("interleaving regression %.1f%% must be positive", res.RegressionPct)
	}
}

func TestBuildTimeShape(t *testing.T) {
	res, err := RunBuildTime(io.Discard, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if res.WholeNoOut <= res.DefaultDur/4 {
		t.Error("whole-program build suspiciously fast vs default")
	}
	_ = os.Stdout
}

// TestFig13Shape checks that Fig. 13 has one cell per span and device, and
// that a cell is exactly the ratio of one direct baseline/optimized run pair
// on iOS 13.5.1.
func TestFig13Shape(t *testing.T) {
	const scale = 0.3
	res, err := RunFig13(io.Discard, scale)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's headline: no statistically significant regression; a mild
	// geomean gain. Allow anything clearly below a 5% regression.
	if res.GeoMeanRatio > 1.05 {
		t.Errorf("geomean ratio %.3f — outlining regressed spans", res.GeoMeanRatio)
	}
	if res.OutlinedDynPct <= 0 {
		t.Error("no dynamic instructions attributed to outlined functions")
	}
	nSpans := appgen.UberRider.Spans
	if len(res.Cells) != nSpans*len(perf.Devices) {
		t.Fatalf("%d cells, want %d spans × %d devices", len(res.Cells), nSpans, len(perf.Devices))
	}

	const d, span = 2, 4
	cell := res.Cells[d*nSpans+span-1]
	dev := perf.Devices[d]
	if cell.Span != span || cell.Device != dev.Name {
		t.Fatalf("cell %d is span%d on %s, want span%d on %s", d*nSpans+span-1, cell.Span, cell.Device, span, dev.Name)
	}
	mods := appgen.Generate(appgen.UberRider, scale)
	base, err := build(baseline(), mods, nil)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := build(pipeline.OSize, mods, nil)
	if err != nil {
		t.Fatal(err)
	}
	entry := fmt.Sprintf("span%d", span)
	_, pb, err := runOnDevice(base, entry, dev, perf.OSes[2], 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	_, po, err := runOnDevice(opt, entry, dev, perf.OSes[2], 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if want := po.Seconds / pb.Seconds; cell.Ratio != want {
		t.Errorf("span%d on %s: reported ratio %v, direct run pair gives %v", span, dev.Name, cell.Ratio, want)
	}
}
