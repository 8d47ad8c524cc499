// Package outliner is the public API of the whole-program repeated
// machine-outlining toolchain — a from-scratch reproduction of "An
// Experience with Code-Size Optimization for Production iOS Mobile
// Applications" (CGO 2021).
//
// The package compiles SwiftLite source modules (a Swift-like language with
// reference counting, closures, generics, and throwing initializers) through
// a complete pipeline — SIL-analog IR, SSA mid-level IR, llvm-link-style
// module merging, an AArch64-like code generator — and applies the paper's
// optimization: machine-code outlining over the whole program, repeated
// until a fixed point. The code generator emits commutative operations in
// canonical operand order (the paper's §VIII future-work direction 1), so
// sequences that differ only in that order outline together. Compiled
// programs run on a built-in machine interpreter, so transformations are
// checked end to end.
//
// Quick start:
//
//	res, err := outliner.Build([]outliner.Module{{
//	    Name:  "App",
//	    Files: map[string]string{"app.sl": src},
//	}}, outliner.Production())
//	out, err := res.Run("main")
//
// The lower-level entry point OutlineText applies the outliner to a textual
// machine program directly, like the paper artifact's
// `llc -outline-repeat-count=N` on prebuilt bitcode.
package outliner

import (
	"fmt"

	"outliner/internal/exec"
	"outliner/internal/layout"
	"outliner/internal/llir"
	"outliner/internal/mir"
	"outliner/internal/obs"
	"outliner/internal/outline"
	"outliner/internal/pipeline"
	"outliner/internal/verify"
)

// Module is one compilation unit: a name and its SwiftLite source files.
type Module struct {
	Name  string
	Files map[string]string
}

// Options selects the build pipeline and optimization levels.
type Options struct {
	// WholeProgram merges all modules' IR before code generation (the
	// paper's new pipeline, Figure 10). When false, modules compile
	// independently and only the machine linker combines them (the default
	// iOS pipeline, Figure 2).
	WholeProgram bool
	// OutlineRounds is the repeated-machine-outlining count; 0 disables
	// machine outlining, 1 matches stock LLVM, the paper ships 5.
	OutlineRounds int
	// SILOutline, SpecializeClosures, MergeFunctions, and FMSA toggle the
	// mid-level passes of the paper's Table I.
	SILOutline         bool
	SpecializeClosures bool
	MergeFunctions     bool
	FMSA               bool
	// PreserveDataLayout keeps per-module global ordering across the IR
	// link (the §VI-3 fix); SplitGCMetadata enables linking of mixed
	// Swift/Objective-C modules (the §VI-2 fix).
	PreserveDataLayout bool
	SplitGCMetadata    bool
	// LayoutOutlined enables the §VIII future-work extension of
	// caller-adjacent placement of outlined functions after outlining (the
	// layout policy "outlined"). Code generation always emits the other
	// extension, canonical commutative operand order.
	LayoutOutlined bool
	// Tracer, when non-nil, collects build telemetry: stage spans (Chrome
	// trace JSON), counters, and outliner decision remarks. Telemetry is
	// strictly observational — the build output is byte-identical with or
	// without it.
	Tracer *Tracer
}

// Tracer collects spans, counters, and outliner decision remarks for one or
// more builds; see internal/obs. Create one with NewTracer, pass it in
// Options, then write out its three products:
//
//	tr := outliner.NewTracer(outliner.TracerConfig{MemStats: true})
//	opts := outliner.Production()
//	opts.Tracer = tr
//	res, err := outliner.Build(mods, opts)
//	tr.WriteTraceFile("build.trace.json")   // open in Perfetto
//	tr.WriteRemarksFile("remarks.jsonl")    // one record per candidate decision
//	tr.WriteSummary(os.Stderr)              // human-readable table
type Tracer = obs.Tracer

// TracerConfig tunes what a Tracer collects beyond spans, counters, and
// remarks (per-function codegen spans, per-stage allocation deltas).
type TracerConfig = obs.Config

// Remark is one outliner candidate decision from the remarks stream.
type Remark = obs.Remark

// NewTracer returns a telemetry collector with full collection tuned by cfg.
func NewTracer(cfg TracerConfig) *Tracer { return obs.NewWith(cfg) }

// Production returns the configuration the paper deployed: whole-program
// pipeline, five rounds of repeated outlining, all passes, both fixes.
func Production() Options {
	return Options{
		WholeProgram:       true,
		OutlineRounds:      5,
		SILOutline:         true,
		SpecializeClosures: true,
		MergeFunctions:     true,
		PreserveDataLayout: true,
		SplitGCMetadata:    true,
	}
}

// DefaultPipeline returns the stock iOS build behaviour: per-module
// compilation with one round of per-module outlining (Swift 5.2 -Osize).
func DefaultPipeline() Options {
	return Options{OutlineRounds: 1, SILOutline: true, SpecializeClosures: true}
}

func (o Options) toConfig() pipeline.Config {
	cfg := pipeline.Config{
		WholeProgram:       o.WholeProgram,
		OutlineRounds:      o.OutlineRounds,
		SILOutline:         o.SILOutline,
		SpecializeClosures: o.SpecializeClosures,
		MergeFunctions:     o.MergeFunctions,
		FMSA:               o.FMSA,
		PreserveDataLayout: o.PreserveDataLayout,
		SplitGCMetadata:    o.SplitGCMetadata,
		Verify:             true,
		Tracer:             o.Tracer,
	}
	if o.LayoutOutlined {
		cfg.Layout = layout.Outlined
	}
	return cfg
}

// RoundStats reports one outlining round.
type RoundStats struct {
	Round             int
	SequencesOutlined int
	FunctionsCreated  int
	OutlinedBytes     int
}

// Result is a finished build.
type Result struct {
	// CodeSize is the machine-code section size in bytes; BinarySize is the
	// whole image including data, header, and symbol table.
	CodeSize   int
	BinarySize int
	// Rounds holds per-round outlining statistics (empty when outlining was
	// off).
	Rounds []RoundStats

	prog *mir.Program
}

// Build compiles modules under opts. Every module sees every other module's
// public declarations (like imported swiftmodule interfaces).
func Build(modules []Module, opts Options) (*Result, error) {
	sources := make([]pipeline.Source, len(modules))
	for i, m := range modules {
		sources[i] = pipeline.Source{Name: m.Name, Files: m.Files}
	}
	res, err := pipeline.Build(sources, opts.toConfig())
	if err != nil {
		return nil, err
	}
	return &Result{
		CodeSize:   res.CodeSize(),
		BinarySize: res.BinarySize(),
		Rounds:     roundStats(res.Outline),
		prog:       res.Prog,
	}, nil
}

// Run executes a zero-argument function (usually "main") on the machine
// interpreter and returns everything it printed.
func (r *Result) Run(entry string) (string, error) {
	m, err := exec.New(r.prog, exec.Options{})
	if err != nil {
		return "", err
	}
	return m.Run(entry)
}

// MachineCode renders the final machine program in textual MIR form.
func (r *Result) MachineCode() string { return r.prog.String() }

// Pattern is one repeated machine-code sequence found by the analysis pass.
type Pattern struct {
	// Count is how many times the sequence occurs; Length is its
	// instruction count; SavedBytes the estimated benefit of outlining it.
	Count      int
	Length     int
	SavedBytes int
	// Listing renders the instructions like the paper's Listings 1-8.
	Listing string
}

// Patterns runs the statistics-collection pass (§IV) over the built program:
// every profitably-outlinable repeated sequence, most frequent first.
func (r *Result) Patterns() []Pattern {
	pats := outline.Analyze(r.prog, outline.Options{})
	out := make([]Pattern, len(pats))
	for i, p := range pats {
		out[i] = Pattern{
			Count:      p.Count,
			Length:     p.Length,
			SavedBytes: p.Benefit,
			Listing:    p.Listing(),
		}
	}
	return out
}

// OutlineText parses a textual machine program (the mir format), applies
// repeated machine outlining, and returns the transformed program with
// statistics. It is the library form of `cmd/outline`: the program goes
// through the same post-link tail as a whole-program Build's.
func OutlineText(mirText string, rounds int) (string, []RoundStats, error) {
	prog, err := mir.Parse(mirText)
	if err != nil {
		return "", nil, err
	}
	if err := verify.Program(prog, llir.RuntimeSyms).Err(); err != nil {
		return "", nil, fmt.Errorf("outliner: input: %w", err)
	}
	res, err := pipeline.BuildMIR(prog, pipeline.Config{OutlineRounds: rounds, Verify: true})
	if err != nil {
		return "", nil, err
	}
	return res.Prog.String(), roundStats(res.Outline), nil
}

// roundStats converts the outliner's per-round statistics (nil when outlining
// did not run) to the public form.
func roundStats(st *outline.Stats) []RoundStats {
	if st == nil {
		return nil
	}
	var rs []RoundStats
	for _, r := range st.Rounds {
		rs = append(rs, RoundStats{
			Round:             r.Round,
			SequencesOutlined: r.SequencesOutlined,
			FunctionsCreated:  r.FunctionsCreated,
			OutlinedBytes:     r.OutlinedBytes,
		})
	}
	return rs
}
