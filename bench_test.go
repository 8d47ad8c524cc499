// Benchmarks: one per table and figure of the paper's evaluation, plus
// ablation benches for the design choices DESIGN.md calls out. Run with
//
//	go test -bench=. -benchmem
//
// Each benchmark regenerates its experiment at a reduced scale and reports
// the headline number as a custom metric, so `-bench` output doubles as a
// compact experiment summary.
package outliner_test

import (
	"fmt"
	"io"
	"testing"

	"outliner/internal/appgen"
	"outliner/internal/codegen"
	"outliner/internal/exec"
	"outliner/internal/experiments"
	"outliner/internal/isa"
	"outliner/internal/layout"
	"outliner/internal/llir"
	"outliner/internal/mir"
	"outliner/internal/outline"
	"outliner/internal/perf"
	"outliner/internal/pipeline"
	"outliner/internal/sir"
	"outliner/internal/suffixtree"
)

const benchScale = 0.35

// BenchmarkFig1GrowthSnapshot regenerates Figure 1 (code-size growth and
// slope ratio between pipelines).
func BenchmarkFig1GrowthSnapshot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig1(io.Discard, 4, 0.7)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.SlopeRatio, "slope-ratio")
		b.ReportMetric(res.FinalSaving*100, "final-saving-%")
	}
}

// BenchmarkTable1Landscape regenerates Table I (savings by level).
func BenchmarkTable1Landscape(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable1(io.Discard, benchScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[len(res.Rows)-1].SavingPct, "isa-saving-%")
	}
}

// BenchmarkFig5to8Patterns regenerates the §IV pattern analysis (Figures
// 5-8 and the listings).
func BenchmarkFig5to8Patterns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunPatterns(io.Discard, benchScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.PowerFit.B, "power-law-exponent")
		b.ReportMetric(float64(res.NeedFor90Pct), "patterns-for-90%")
	}
}

// BenchmarkFig12RoundsSweep regenerates Figure 12 and Table II (size vs
// rounds, inter vs intra module).
func BenchmarkFig12RoundsSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig12(io.Discard, benchScale, 5)
		if err != nil {
			b.Fatal(err)
		}
		first, last := res.Points[0], res.Points[len(res.Points)-1]
		b.ReportMetric(100*(1-float64(last.InterCode)/float64(first.InterCode)), "inter-saving-%")
		b.ReportMetric(100*(1-float64(last.IntraCode)/float64(first.IntraCode)), "intra-saving-%")
	}
}

// BenchmarkFig13Spans regenerates Figure 13 / Table III (span time ratios
// per device).
func BenchmarkFig13Spans(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig13(io.Discard, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.GeoMeanRatio, "geomean-ratio")
		b.ReportMetric(res.OutlinedDynPct, "outlined-dyn-%")
	}
}

// BenchmarkTable4Suite regenerates Table IV (the 26-benchmark performance
// suite).
func BenchmarkTable4Suite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable4(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.AvgPct, "avg-overhead-%")
		b.ReportMetric(res.MaxPct, "worst-overhead-%")
	}
}

// BenchmarkGenerality regenerates §VII-E's other-subjects table.
func BenchmarkGenerality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunGenerality(io.Discard, 0.25)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[len(res.Rows)-1].SavingPct, "kernel-saving-%")
	}
}

// BenchmarkDataLayout regenerates the §VI-3 page-fault comparison. It runs
// at the experiment's documented scale: the data working set must exceed
// the modeled residency for the ordering to matter.
func BenchmarkDataLayout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunDataLayout(io.Discard, 0.6)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.RegressionPct, "interleave-regression-%")
	}
}

// ---- Compile-path layers ----
//
// One benchmark per layer of the compile path, each over the 24-module
// UberRider corpus with allocations reported, so a change to one layer has a
// number that does not need the end-to-end benchmark. Liveness is the
// outliner's LR pass (outline.LRLiveness) over every compiled function, with
// its bit table and label index reused, as every outlining round runs it:
//
//	go test -run '^$' -bench 'FromSIR|MergeFunctions|CodegenCompile|Liveness' -benchmem .

// layerSIR lowers the UberRider corpus of the given module count to SIR.
func layerSIR(b *testing.B, modules int) []*sir.Module {
	b.Helper()
	mods := appgen.Generate(appgen.UberRider, appgen.ScaleForModules(appgen.UberRider, modules))
	sirs, err := appgen.CompileToSIR(mods, pipeline.OSize)
	if err != nil {
		b.Fatal(err)
	}
	return sirs
}

// layerLinked lowers and IR-links the SIR modules: the input of
// whole-program function merging and codegen. Each call builds a fresh module.
func layerLinked(b *testing.B, sirs []*sir.Module) *llir.Module {
	b.Helper()
	merged, err := appgen.LowerAndLink(sirs)
	if err != nil {
		b.Fatal(err)
	}
	return merged
}

func BenchmarkFromSIR(b *testing.B) {
	sirs := layerSIR(b, 24)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sm := range sirs {
			if _, err := llir.FromSIR(sm); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkMergeFunctions(b *testing.B) {
	sirs := layerSIR(b, 24)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		merged := layerLinked(b, sirs) // merging consumes its input
		b.StartTimer()
		llir.MergeFunctions(merged)
	}
}

func BenchmarkCodegenCompile(b *testing.B) {
	merged := layerLinked(b, layerSIR(b, 24))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codegen.CompileWith(merged, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLiveness(b *testing.B) {
	prog, err := codegen.CompileWith(layerLinked(b, layerSIR(b, 24)), 1)
	if err != nil {
		b.Fatal(err)
	}
	var lv outline.LRLiveness
	var bits []bool
	for _, f := range prog.Funcs { // size the tables, as a round after the first finds them
		bits = lv.After(bits, f)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range prog.Funcs {
			bits = lv.After(bits, f)
		}
	}
}

// BenchmarkOutlineRounds measures repeated whole-program outlining alone: the
// 80-module corpus linked and compiled once, then outlined serially with the
// per-round verifier on, for 1, 2 and 5 rounds. The differences between the
// sub-benchmarks are what the later rounds cost:
//
//	go test -run '^$' -bench OutlineRounds -benchmem .
func BenchmarkOutlineRounds(b *testing.B) {
	base, err := codegen.CompileWith(layerLinked(b, layerSIR(b, 80)), 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, rounds := range []int{1, 2, 5} {
		b.Run(fmt.Sprintf("rounds=%d", rounds), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				prog := base.Clone()
				b.StartTimer()
				if _, err := outline.Outline(prog, outline.Options{
					Rounds: rounds, Verify: true, ExternSyms: llir.RuntimeSyms, Parallelism: 1,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkImageListing measures rendering the image listing alone — what
// slcd pays per reply and slc -o per image: the 80-module corpus built once
// per module, then listed into io.Discard. MB/s is listing text produced:
//
//	go test -run '^$' -bench ImageListing -benchmem .
func BenchmarkImageListing(b *testing.B) {
	res, err := appgen.BuildApp(appgen.UberRider, appgen.ScaleForModules(appgen.UberRider, 80), pipeline.Default)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(res.ImageListing())))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := res.WriteImageListing(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ablations ----

// benchProgram builds a mid-sized machine program once for the ablations.
func benchProgram(b *testing.B) *mir.Program {
	b.Helper()
	cfg := pipeline.OSize
	cfg.OutlineRounds = 0
	res, err := appgen.BuildApp(appgen.UberRider, benchScale, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res.Prog
}

// BenchmarkAblationSuffixTree measures candidate discovery with the shipped
// repeat finder, a suffix array whose lcp-intervals are the suffix tree's
// internal nodes...
func BenchmarkAblationSuffixTree(b *testing.B) {
	prog := benchProgram(b)
	str := flattenForDiscovery(prog)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree := suffixtree.New(str)
		n := 0
		tree.ForEachRepeat(2, 2, func(r suffixtree.Repeat) { n += len(r.Starts) })
		b.ReportMetric(float64(n), "candidates")
	}
}

// ...and BenchmarkAblationNaiveNgrams measures the alternative a naive
// outliner would use: hashing every n-gram up to a fixed length. The suffix
// array finds repeats of EVERY length in one pass; the n-gram scan must cap
// the length and still does more work.
func BenchmarkAblationNaiveNgrams(b *testing.B) {
	prog := benchProgram(b)
	str := flattenForDiscovery(prog)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for length := 2; length <= 16; length++ {
			counts := make(map[string]int)
			var key []byte
			for s := 0; s+length <= len(str); s++ {
				key = key[:0]
				ok := true
				for _, v := range str[s : s+length] {
					if v < 0 {
						ok = false
						break
					}
					key = append(key, byte(v), byte(v>>8), byte(v>>16))
				}
				if ok {
					counts[string(key)]++
				}
			}
			for _, c := range counts {
				if c >= 2 {
					n += c
				}
			}
		}
		b.ReportMetric(float64(n), "candidates")
	}
}

// flattenForDiscovery maps instructions to integers the way the outliner's
// mapper does (shared ids for identical instructions, sentinels at block
// boundaries).
func flattenForDiscovery(prog *mir.Program) []int {
	ids := make(map[isa.Inst]int)
	var str []int
	sentinel := -1
	for _, f := range prog.Funcs {
		for _, blk := range f.Blocks {
			for _, in := range blk.Insts {
				id, ok := ids[in]
				if !ok {
					id = len(ids)
					ids[in] = id
				}
				str = append(str, id)
			}
			str = append(str, sentinel)
			sentinel--
		}
	}
	return str
}

// BenchmarkAblationCostModel compares the strategy-aware cost model with the
// flat always-save-LR model: same rounds, resulting code size as the metric.
func BenchmarkAblationCostModel(b *testing.B) {
	run := func(b *testing.B, flat bool) {
		for i := 0; i < b.N; i++ {
			prog := benchProgram(b).Clone()
			if _, err := outline.Outline(prog, outline.Options{
				Rounds: 5, FlatCostModel: flat,
			}); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(prog.CodeSize()), "code-bytes")
		}
	}
	b.Run("strategy-aware", func(b *testing.B) { run(b, false) })
	b.Run("flat-lr-save", func(b *testing.B) { run(b, true) })
}

// BenchmarkOutlinerRound measures one outlining round in isolation (the
// incremental cost each repeat adds to llc, §VII-C).
func BenchmarkOutlinerRound(b *testing.B) {
	base := benchProgram(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		prog := base.Clone()
		b.StartTimer()
		if _, err := outline.Outline(prog, outline.Options{Rounds: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterpreter measures raw interpreter throughput (instructions
// per second), the substrate every performance experiment stands on.
func BenchmarkInterpreter(b *testing.B) {
	res, err := appgen.BuildApp(appgen.UberRider, 0.25, pipeline.OSize)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var insts int64
	for i := 0; i < b.N; i++ {
		m, err := exec.New(res.Prog, exec.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Run("main"); err != nil {
			b.Fatal(err)
		}
		insts = m.Stats().DynamicInsts
	}
	b.ReportMetric(float64(insts), "dyn-insts/run")
}

// BenchmarkPerfModel measures the cycle model's overhead on top of
// interpretation.
func BenchmarkPerfModel(b *testing.B) {
	res, err := appgen.BuildApp(appgen.UberRider, 0.25, pipeline.OSize)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim := perf.New(perf.Devices[3], perf.OSes[2])
		m, err := exec.New(res.Prog, exec.Options{Trace: sim.Observe})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Run("main"); err != nil {
			b.Fatal(err)
		}
		r := sim.Finish()
		b.ReportMetric(r.IPC, "ipc")
	}
}

// BenchmarkAblationLayout measures the §VIII-3 extension: placing outlined
// functions next to their heaviest callers reduces instruction-cache misses.
func BenchmarkAblationLayout(b *testing.B) {
	build := func(policy string) *pipeline.Result {
		cfg := pipeline.OSize
		cfg.Layout = policy
		res, err := appgen.BuildApp(appgen.UberRider, benchScale, cfg)
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	measure := func(b *testing.B, res *pipeline.Result) {
		for i := 0; i < b.N; i++ {
			sim := perf.New(perf.Devices[0], perf.OSes[2])
			m, err := exec.New(res.Prog, exec.Options{Trace: sim.Observe})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := m.Run("span1"); err != nil {
				b.Fatal(err)
			}
			r := sim.Finish()
			b.ReportMetric(float64(r.ICacheMisses), "icache-misses")
			b.ReportMetric(r.Cycles, "cycles")
		}
	}
	creationOrder := build(layout.None)
	callerAdjacent := build(layout.Outlined)
	b.Run("creation-order", func(b *testing.B) { measure(b, creationOrder) })
	b.Run("caller-adjacent", func(b *testing.B) { measure(b, callerAdjacent) })
}
