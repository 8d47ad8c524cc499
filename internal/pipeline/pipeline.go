// Package pipeline assembles the two build pipelines the paper compares:
//
//   - the default iOS pipeline (§II-A, Figure 2): each module is compiled
//     independently to machine code (with optional per-module machine
//     outlining, as Swift 5.2's -Osize does), and the system linker
//     concatenates the results;
//   - the new whole-program pipeline (§V-A, Figure 10): every module stops
//     at LLIR, llvm-link (internal/irlink) merges the IR, mid-level
//     optimizations run over the merged module, and machine outlining sees
//     the entire program at once.
//
// Both are lists of declared stages (see stage) that one runner executes.
package pipeline

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"outliner/internal/artifact"
	"outliner/internal/binimg"
	"outliner/internal/codegen"
	"outliner/internal/fault"
	"outliner/internal/frontend"
	"outliner/internal/irlink"
	"outliner/internal/layout"
	"outliner/internal/llir"
	"outliner/internal/mir"
	"outliner/internal/obs"
	"outliner/internal/outline"
	"outliner/internal/par"
	"outliner/internal/perf"
	"outliner/internal/profile"
	"outliner/internal/sir"
	"outliner/internal/verify"
)

// Config selects pipeline and optimization settings. A cached stage's key
// carries exactly the fields its artifact depends on (stage.reads); the rest
// are read only by uncached stages, or are observational.
type Config struct {
	// Ctx bounds the build: when it is cancelled (a client disconnect, a
	// request deadline, a daemon drain), the parallel stages stop claiming
	// work, cache retry loops and remote requests abort, and the build fails
	// promptly with an error wrapping the context's error. nil means
	// context.Background() — never cancelled. Cancellation is the one
	// non-deterministic input a build accepts; a cancelled build never
	// publishes cache entries, so determinism of *artifacts* is preserved:
	// every entry a later build can observe came from a run that finished.
	Ctx context.Context
	// WholeProgram switches to the new pipeline (IR-level link before
	// code generation and outlining).
	WholeProgram bool
	// OutlineRounds is the repeated-machine-outlining count (the artifact's
	// -outline-repeat-count). 0 disables machine outlining.
	OutlineRounds int
	// SILOutline enables the SIL-level outlining pass (Table I row 2).
	SILOutline bool
	// SpecializeClosures enables SIL-level closure specialization, the
	// source of the paper's longest repeated pattern (Listing 9).
	SpecializeClosures bool
	// MergeFunctions enables LLVM-IR-level function merging (Table I
	// row 3). In the default pipeline it runs per module; in the
	// whole-program pipeline it runs after the IR link.
	MergeFunctions bool
	// FMSA selects the function merger's similar policy (Table I row 4):
	// functions that differ only in integer constants merge into one body
	// that takes the constants as parameters, where that saves instructions.
	// The policy implies identical folding: with FMSA set, MergeFunctions
	// changes nothing.
	FMSA bool
	// FlatOutlineCost is the cost-model ablation (see outline.Options).
	FlatOutlineCost bool
	// PreserveDataLayout keeps per-module global ordering in the IR link
	// (§VI-3's fix). Only meaningful with WholeProgram.
	PreserveDataLayout bool
	// SplitGCMetadata enables the §VI-2 metadata-attribute fix. Mixed
	// Swift/Objective-C programs fail to link without it.
	SplitGCMetadata bool
	// Verify runs IR and machine verifiers between stages.
	Verify bool
	// Parallelism bounds the workers of the parallel build stages:
	// per-module frontend+lowering, per-function codegen, per-module
	// codegen+outlining in the default pipeline, and the outliner's
	// candidate analysis. 0 means one worker per CPU
	// (runtime.GOMAXPROCS(0)); 1 reproduces the fully serial pipeline.
	// The built image is byte-identical for every value.
	Parallelism int
	// Tracer receives build telemetry: stage and worker spans (exportable
	// as a Chrome trace), counters, and outliner decision remarks. nil
	// means "telemetry off", at no cost, and an empty Result.Timings.
	// Telemetry is strictly observational — the built image is
	// byte-identical with any Tracer or none.
	Tracer *obs.Tracer
	// CacheDir enables the content-addressed incremental build cache
	// (internal/cache, serialized by internal/artifact): per-module LLIR
	// lowering (both pipelines) and per-module codegen+outlining (default
	// pipeline) are keyed by input content, the stage's projection of this
	// config, and codec schema version. Empty means "cache off".
	// Caching is strictly an accelerator: the built image is byte-identical
	// whether a build runs cold, warm, or with no cache at all, and a
	// damaged cache entry is treated as a miss, never an error. Concurrent
	// builds of one directory in a process share its handle's single flight
	// (cache.Cache.Flight): a stage key they all miss is computed once.
	CacheDir string
	// KeepGoing makes every per-task stage — parsing and lowering in both
	// pipelines, the default pipeline's per-module codegen+outline, the
	// whole-program per-function cleanup — run every task even after one
	// fails, then fail with a *BuildErrors aggregating every task's error
	// instead of just the lowest-index one. Reporting-only: a successful
	// build's output is identical either way.
	KeepGoing bool
	// OnVerifyFailure selects how the machine outliner degrades when its
	// verifier rejects a round: outline.VerifyAbort ("" or "abort", the
	// default) fails the build, outline.VerifyRollbackRound sheds the
	// offending round and keeps the previous rounds' wins,
	// outline.VerifyDisableOutlining sheds all outlining for that program.
	// Any other value fails the build before any stage runs.
	OnVerifyFailure string
	// Fault arms deterministic fault injection (internal/fault) at the
	// pipeline's fault points: cache disk I/O, worker task start,
	// per-function codegen, outlining rounds, artifact decoding. When set,
	// the build cache opens privately (never the process-shared handle) and
	// the schedule joins every cached stage's key, so a faulted build can
	// neither publish nor consume a clean build's artifacts. nil disables
	// injection at zero cost.
	Fault *fault.Injector
	// Profile supplies an execution profile from an instrumented run
	// (-profile-in): outliner candidate remarks gain execution counts and
	// hot/cold verdicts, and cold-only gating becomes possible. Its content
	// digest joins the machine stage's key, so profiled builds never collide
	// with clean builds' cache entries.
	Profile *profile.Profile
	// OutlineColdThreshold, when positive and a Profile is set, restricts
	// machine outlining to cold functions: those whose entry count stays
	// below it (-outline-cold-threshold); see outline.Options.ColdThreshold.
	// 0 gates nothing, and the image is byte-identical to an unprofiled
	// build.
	OutlineColdThreshold int64
	// Layout selects the function-ordering policy applied to the final
	// program before image build (-layout): layout.None (or ""), layout.C3,
	// which needs a Profile to act on and is inert without one, or
	// layout.Outlined. An unknown policy fails the build before any stage
	// runs.
	Layout string
}

// BuildErrors is a keep-going build's aggregated failure: one error per
// failed task, in task order. Unwrap exposes them to errors.Is/As, so a
// structured diagnostic buried in any module (a *par.PanicError, a
// *verify.Error, an injected *fault.Error) stays recognizable.
type BuildErrors struct {
	Errs []error
}

func (e *BuildErrors) Error() string {
	if len(e.Errs) == 1 {
		return e.Errs[0].Error()
	}
	return fmt.Sprintf("%d modules failed; first: %v", len(e.Errs), e.Errs[0])
}

// Unwrap exposes the per-module errors to the errors package.
func (e *BuildErrors) Unwrap() []error { return e.Errs }

// OSize is the production configuration the paper ships: whole program,
// five rounds of repeated machine outlining, all mid-level passes, both
// linker fixes.
var OSize = Config{
	WholeProgram:       true,
	OutlineRounds:      5,
	SILOutline:         true,
	SpecializeClosures: true,
	MergeFunctions:     true,
	PreserveDataLayout: true,
	SplitGCMetadata:    true,
}

// Default is the default iOS pipeline with Swift 5.2 behaviour: per-module
// compilation, per-module outlining (one round).
var Default = Config{
	OutlineRounds: 1,
	SILOutline:    true,
}

// Source is one source module: named SwiftLite files. ObjC marks a module
// the app's other compiler produced (§VI-2's mixed-compiler situation): its
// lowered body is given the Objective-C flavour (see applyObjCFlavour).
type Source struct {
	Name  string
	Files map[string]string
	ObjC  bool
}

// Result is a finished build.
type Result struct {
	Prog  *mir.Program
	Image *binimg.Image
	// Outline is the record of what machine outlining did, round by round
	// (nil when Config.OutlineRounds is 0). A per-module build sums its
	// modules' rounds, cached or compiled, so a warm build's equals a cold
	// one's.
	Outline *outline.Stats
	// Layout reports what the function-layout pass did (nil when Config.Layout
	// was unset). PreLayoutImage is the image the program would have produced
	// without the reorder — the "before" of a before/after PageTouch report —
	// built only when an active policy ran with a profile to score it by.
	Layout         *layout.Stats
	PreLayoutImage *binimg.Image
	// Timings maps stage name to total time, derived from the stage spans
	// of Config.Tracer (empty without one): a stage that runs more than
	// once — per outlining round, or per module in the default pipeline —
	// reports the sum of its runs, never just the last one.
	Timings map[string]time.Duration
}

// CodeSize returns the code-section size in bytes.
func (r *Result) CodeSize() int { return r.Image.CodeSize }

// BinarySize returns the whole image size in bytes.
func (r *Result) BinarySize() int { return r.Image.TotalSize }

// CompileToSIR runs the frontend and SILGen (plus SIL passes) for one
// module. imports may be nil for a self-contained module.
func CompileToSIR(src Source, cfg Config, imports *frontend.Imports) (*sir.Module, error) {
	files, err := parseModule(src, cfg.Tracer)
	if err != nil {
		return nil, err
	}
	return lowerToSIR(src.Name, files, cfg, imports, nil)
}

// parseModule is ParseSource counted under frontend/modules_parsed — the
// work-done counter that shows a warm build lexing only what an edit touched.
func parseModule(src Source, tr *obs.Tracer) ([]*frontend.File, error) {
	tr.Add("frontend/modules_parsed", 1)
	return ParseSource(src)
}

// lowerToSIR type-checks a module's parsed files (which it takes ownership
// of: the checker annotates them in place) and generates optimized SIR: in
// gen's storage, valid until gen's next module, or in slabs of its own when
// gen is nil.
func lowerToSIR(module string, files []*frontend.File, cfg Config, imports *frontend.Imports, gen *sir.Generator) (*sir.Module, error) {
	cfg.Tracer.Add("frontend/files", int64(len(files)))
	prog, err := frontend.CheckModule(module, imports, files...)
	if err != nil {
		return nil, err
	}
	generate := sir.Generate
	if gen != nil {
		generate = gen.Generate
	}
	sm, err := generate(prog)
	if err != nil {
		return nil, err
	}
	cfg.Tracer.Add("frontend/sir_functions", int64(len(sm.Funcs)))
	if cfg.SpecializeClosures {
		sir.SpecializeClosures(sm)
	}
	if cfg.SILOutline {
		sir.OutlinePass(sm)
	}
	if cfg.Verify {
		if err := sm.Verify(); err != nil {
			return nil, fmt.Errorf("after SIL passes: %w", err)
		}
	}
	return sm, nil
}

type namedFile struct{ name, text string }

func sortedFileList(files map[string]string) []namedFile {
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]namedFile, 0, len(names))
	for _, n := range names {
		out = append(out, namedFile{name: n, text: files[n]})
	}
	return out
}

// ParseSource parses a source module's files in deterministic order.
func ParseSource(src Source) ([]*frontend.File, error) {
	var files []*frontend.File
	for _, nf := range sortedFileList(src.Files) {
		f, err := frontend.ParseFile(nf.name, nf.text)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// CompileToLLIR lowers one source module to LLIR with per-module mid-level
// cleanup (always-on CFG simplification and DCE, like -Osize).
func CompileToLLIR(src Source, cfg Config, imports *frontend.Imports) (*llir.Module, error) {
	files, err := parseModule(src, cfg.Tracer)
	if err != nil {
		return nil, err
	}
	return lowerToLLIR(src.Name, files, cfg, imports, nil)
}

// frontLane is one frontend worker's storage. A lane lowers its modules one
// after another, so each module's SIR, and the tables that lower it, are the
// previous module's, regrown only when a larger module comes along. Only the
// LLIR leaves the lane, and it is built from fresh memory.
type frontLane struct {
	sir.Generator
	llir.Lowerer
}

// lowerToLLIR is CompileToLLIR from already-parsed files (see lowerToSIR), on
// lane's storage, or on fresh storage when lane is nil.
func lowerToLLIR(module string, files []*frontend.File, cfg Config, imports *frontend.Imports, lane *frontLane) (*llir.Module, error) {
	var gen *sir.Generator
	fromSIR := llir.FromSIR
	if lane != nil {
		gen, fromSIR = &lane.Generator, lane.Lowerer.FromSIR
	}
	sm, err := lowerToSIR(module, files, cfg, imports, gen)
	if err != nil {
		return nil, err
	}
	lm, err := fromSIR(sm)
	if err != nil {
		return nil, err
	}
	for _, f := range lm.Funcs {
		llir.SimplifyCFG(f)
		llir.DCE(f)
	}
	if cfg.Verify {
		if err := lm.Verify(); err != nil {
			return nil, fmt.Errorf("after per-module opt: %w", err)
		}
	}
	return lm, nil
}

// Build compiles sources through the configured pipeline. Every module sees
// the public declarations of every other module (as if all swiftmodule
// interfaces were imported).
//
// Build never lets a worker (or its own) panic escape as a process crash: a
// panic anywhere in the build surfaces as an error carrying a structured
// *par.PanicError (stage, task index, stack) in its chain. A cancelled
// cfg.Ctx surfaces the same way, as an error wrapping the context's error.
func Build(sources []Source, cfg Config) (*Result, error) {
	return runBuild(cfg, &build{sources: sources}, buildStages(cfg)...)
}

// buildStages is what Build runs under cfg: the front half, the link the
// pipeline choice names, and the post-link tail.
func buildStages(cfg Config) [][]stage {
	if cfg.WholeProgram {
		return [][]stage{frontHalf, wholeProgram, postLink}
	}
	return [][]stage{frontHalf, perModule, postLink}
}

// BuildMIR finishes a build from a machine program that is already linked —
// the paper artifact's `llc -outline-repeat-count=N` over prebuilt code, run
// by cmd/outline and outliner.OutlineText. prog is treated as a linked whole
// program (BuildMIR sets cfg.WholeProgram), transformed in place, and goes
// through the same post-link tail as Build's: outlining, layout, verification
// and the image. It recovers panics and reports cancellation like Build.
func BuildMIR(prog *mir.Program, cfg Config) (*Result, error) {
	cfg.WholeProgram = true
	return runBuild(cfg, &build{prog: prog}, postLink)
}

// build is the state one Build or BuildMIR call threads through its stages:
// the config with Ctx and OnVerifyFailure resolved, the handle that
// cancels the build at a scripted step, the build cache, and what each stage
// leaves for the next. A stage drops what no later stage reads, so the
// front half's products do not live through outlining.
type build struct {
	cfg    Config
	cancel context.CancelFunc
	bc     *BuildCache

	sources []Source
	ifaces  []*moduleIface         // parse
	keys    *ModuleKeys            // parse, frontend; nil without a cache
	ix      *frontend.ImportsIndex // frontend
	front   []frontLane            // frontend, one per worker lane
	back    []backLane             // per-module llc, one per worker lane
	units   []*lowered             // frontend
	merged  *llir.Module           // link, opt
	extern  map[string]bool        // per-module llc
	refs    map[string]bool        // per-module llc
	parts   []*machineCode         // per-module llc
	prog    *mir.Program           // the linked program
	// res is allocated apart from the build, so a caller holding the Result
	// does not hold the build's cache handle and intermediate products.
	res *Result
}

// release drops the front half's products, and the per-module parts, once the
// link has consumed them.
func (b *build) release() {
	b.ifaces, b.keys, b.ix, b.units, b.parts = nil, nil, nil, nil, nil
}

// runBuild is the frame every build entry point shares: config validation
// before any stage runs, context resolution, the build cache,
// fault-counter mirroring, the panic-to-error boundary, and Result.Timings
// scoped to this build.
func runBuild(cfg Config, b *build, stages ...[]stage) (res *Result, err error) {
	if err := outline.CheckVerifyMode(cfg.OnVerifyFailure); err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	if !layout.Valid(cfg.Layout) {
		return nil, fmt.Errorf("pipeline: unknown layout policy %q (want %s)", cfg.Layout, strings.Join(layout.Policies(), ", "))
	}
	if cfg.OnVerifyFailure == "" {
		// One spelling of the default, so builds that leave the mode unset
		// share cache keys with builds that say abort.
		cfg.OnVerifyFailure = outline.VerifyAbort
	}
	tr := cfg.Tracer
	cancel := buildContext(&cfg)
	defer cancel()
	defer mirrorFaults(tr, cfg.Fault)
	defer func() {
		if r := recover(); r != nil {
			tr.Add("fault/recovered_panics", 1)
			res, err = nil, fmt.Errorf("pipeline: %w", par.Recovered("build", -1, r))
		}
	}()
	b.cfg, b.cancel, b.res = cfg, cancel, &Result{}
	if b.bc, err = OpenBuildCache(cfg); err != nil {
		return nil, err
	}
	mark := tr.Mark()
	if err := b.run(stages...); err != nil {
		return nil, err
	}
	b.res.Prog = b.prog
	b.res.Timings = tr.StageTotalsSince(mark)
	return b.res, nil
}

// buildContext resolves cfg.Ctx in place (nil means Background) and, when
// fault injection is armed, wraps it in a cancellable child so CancelStep
// decisions can cancel the build at a stage boundary. Every downstream
// consumer — cache probes, worker pools — reads the one resolved cfg.Ctx and
// so observes the same cancellation.
func buildContext(cfg *Config) context.CancelFunc {
	if cfg.Ctx == nil {
		cfg.Ctx = context.Background()
	}
	if cfg.Fault == nil {
		return func() {}
	}
	var cancel context.CancelFunc
	cfg.Ctx, cancel = context.WithCancel(cfg.Ctx)
	return cancel
}

// mirrorFaults drains the injector's per-site injection counts into the
// build's counters, so -summary shows what a chaos schedule actually fired.
func mirrorFaults(tr *obs.Tracer, inj *fault.Injector) {
	for name, n := range inj.DrainCounters() {
		tr.Add(name, n)
	}
}

// frontHalf is Build's front half: every module's interface stub, then every
// module's LLIR, each from the cache where the cache has it. A module's
// source is parsed at most once: only when its iface entry misses (its source
// changed) or its llir entry does (its source or an imported interface
// changed) — and the files parsed for the stub are the files type-checked.
var frontHalf = []stage{{
	// Under KeepGoing every module is still parsed (and every parse error
	// reported), but a parse failure remains fatal: the import index needs
	// all modules' declarations.
	name: "parse", timing: "frontend+permodule",
	body: func(b *build) error {
		b.ifaces = make([]*moduleIface, len(b.sources))
		if b.bc.enabled() {
			b.keys = &ModuleKeys{Src: make([]string, len(b.sources)), Iface: make([]string, len(b.sources))}
		}
		return nil
	},
	tasks: sourceNames,
	task: func(b *build, _, i int) (any, error) {
		files, err := parseModule(b.sources[i], b.cfg.Tracer)
		if err != nil {
			return nil, err
		}
		return &moduleIface{stub: frontend.NewStub(files...), files: files}, nil
	},
	done: func(b *build, i int, v any) { b.ifaces[i] = v.(*moduleIface) },
	// The stub's input is the module's own sources and nothing else, so an
	// unchanged module is never even lexed.
	cache: "iface",
	reads: func(c Config) Config { return Config{Fault: c.Fault} },
	key: func(b *build, i int) string {
		b.keys.Src[i] = SourceHash(b.sources[i]) // folded into the llir keys too
		return b.keys.Src[i]
	},
	decode: func(_ *build, _ int, data []byte, _ *obs.Span) (any, error) {
		stub, err := artifact.DecodeStub(data)
		return &moduleIface{stub: stub, enc: data}, err
	},
	encode: func(v any) []byte {
		mi := v.(*moduleIface)
		mi.enc = artifact.EncodeStub(mi.stub)
		return mi.enc
	},
}, {
	name: "frontend", timing: "frontend+permodule",
	body: func(b *build) error {
		// The index holds stub declarations only, never a module's AST, so it
		// is shared read-only by the tasks while each type-checks its own
		// parsed files in place. The hash of a module's stored stub is the
		// interface digest its importers' llir keys fold in.
		stubs := make([]*frontend.Stub, len(b.ifaces))
		for i, mi := range b.ifaces {
			stubs[i] = mi.stub
			if b.keys != nil {
				b.keys.Iface[i] = artifact.InterfaceDigest(mi.enc)
			}
		}
		b.ix = frontend.NewStubIndex(stubs...)
		b.units = make([]*lowered, len(b.sources))
		b.front = make([]frontLane, par.Workers(b.cfg.Parallelism, len(b.sources)))
		return nil
	},
	tasks: sourceNames,
	task: func(b *build, lane, i int) (any, error) {
		src := b.sources[i]
		u := &lowered{name: src.Name, objc: src.ObjC}
		files := b.ifaces[i].files
		b.ifaces[i].files = nil // the AST dies with this module's lowering
		var err error
		if files == nil {
			if files, err = parseModule(src, b.cfg.Tracer); err != nil {
				return u, err
			}
		}
		u.body, err = lowerToLLIR(src.Name, files, b.cfg, b.ix.For(i), &b.front[lane])
		return u, err
	},
	done: func(b *build, i int, v any) { b.units[i] = v.(*lowered) },
	end:  func(b *build) { b.front = nil },
	// A body-only edit in one module leaves every other module's entry
	// valid: imports expose stub declarations, not bodies.
	cache: "llir",
	reads: func(c Config) Config {
		return Config{SILOutline: c.SILOutline, SpecializeClosures: c.SpecializeClosures, Verify: c.Verify, Fault: c.Fault}
	},
	key: func(b *build, i int) string { return llirInput(i, b.keys) },
	// In the default pipeline a hit decodes only the summary header: the body
	// waits for a machine-stage miss that may never come. The whole-program
	// pipeline, whose IR link consumes every body, decodes it here in the
	// parallel stage. The span's body arg says which. Cold and warm paths
	// yield identical modules.
	decode: func(b *build, i int, data []byte, sp *obs.Span) (any, error) {
		src, ix := b.sources[i], b.ix
		u := &lowered{name: src.Name, objc: src.ObjC, enc: data,
			recompile: func() (*llir.Module, error) { return CompileToLLIR(src, b.cfg, ix.For(i)) }}
		var err error
		if b.cfg.WholeProgram {
			b.cfg.Tracer.Add("cache/llir/bodies_decoded", 1)
			u.body, err = artifact.DecodeModule(data)
		} else {
			u.sum, err = artifact.DecodeSummary(data)
		}
		sp.Arg("body", u.body != nil)
		return u, err
	},
	encode: func(v any) []byte { return v.(*lowered).stored() },
}}

// sourceNames names a per-module stage's tasks (units[i] is sources[i]).
func sourceNames(b *build) []string {
	names := make([]string, len(b.sources))
	for i, s := range b.sources {
		names[i] = s.Name
	}
	return names
}

// wholeProgram links the lowered modules the new pipeline's way: llvm-link
// every module's LLIR into one module, optimize it, and generate code for it
// once.
var wholeProgram = []stage{{
	name: "link", timing: "llvm-link",
	body: func(b *build) error {
		// The IR link consumes every body; lowering already materialised them
		// in its parallel tasks.
		mods := make([]*llir.Module, len(b.units))
		for i, u := range b.units {
			var err error
			if mods[i], err = u.materialise(b.cfg.Tracer); err != nil {
				return fmt.Errorf("module %s: %w", u.name, err)
			}
		}
		b.release()
		var err error
		b.merged, err = irlink.Link(mods, irlink.Options{
			SplitGCMetadata:     b.cfg.SplitGCMetadata,
			PreserveModuleOrder: b.cfg.PreserveDataLayout,
			Tracer:              b.cfg.Tracer,
		})
		return err
	},
}, {
	name: "opt", timing: "opt",
	body: func(b *build) error {
		mergeFunctions(&b.cfg, b.merged, nil)
		return nil
	},
	tasks: func(b *build) []string {
		names := make([]string, len(b.merged.Funcs))
		for i, f := range b.merged.Funcs {
			names[i] = f.Name
		}
		return names
	},
	task: func(b *build, _, i int) (any, error) {
		f := b.merged.Funcs[i]
		llir.SimplifyCFG(f)
		llir.DCE(f)
		if b.cfg.Verify {
			return nil, f.Verify()
		}
		return nil, nil
	},
}, {
	name: "llc", timing: "llc",
	body: func(b *build) (err error) {
		b.prog, err = new(codegen.Compiler).Compile(b.merged, b.cfg.Parallelism, b.cfg.Tracer, 1, b.cfg.Fault)
		b.merged = nil
		return err
	},
	verify: linkedProgram,
}}

// mergeFunctions runs the function merger cfg asks for over m, keeping the
// functions named in keep: the similar policy when FMSA is set (it folds
// identical functions too), identical folding alone when only
// MergeFunctions is.
func mergeFunctions(cfg *Config, m *llir.Module, keep map[string]bool) {
	switch {
	case cfg.FMSA:
		llir.MergeSimilarFunctions(m, keep)
	case cfg.MergeFunctions:
		llir.MergeFunctionsKeeping(m, keep)
	}
}

// linkedProgram is what a stage working on the linked program verifies: the
// whole program, with only the runtime external.
func linkedProgram(b *build, _ any) (*mir.Program, map[string]bool) { return b.prog, llir.RuntimeSyms }

// perModule links the lowered modules the default pipeline's way: per-module
// codegen (and per-module outlining), then the system linker concatenates
// machine code in module order. Modules are independent here — that is
// exactly the parallelism the whole-program pipeline forfeits — so llc is one
// task per module, each with serial inner stages to avoid oversubscription.
var perModule = []stage{{
	name: "llc", timing: "llc",
	body: func(b *build) error {
		// What one module needs to know of the others comes from their
		// summaries, so a module whose machine entry hits never has its LLIR
		// body decoded. The import index is done with.
		b.ifaces, b.keys, b.ix = nil, nil, nil
		b.extern = externSyms(b.units)
		if b.cfg.MergeFunctions || b.cfg.FMSA {
			// Per-module merging must not delete a function some other module
			// calls: the system link would then resolve that call to nothing.
			// Symbols referenced across module boundaries keep their
			// definitions.
			b.refs = crossModuleRefs(b.units)
		}
		b.parts = make([]*machineCode, len(b.units))
		b.back = make([]backLane, par.Workers(b.cfg.Parallelism, len(b.units)))
		return nil
	},
	tasks: sourceNames,
	// The miss path: materialise the body, merge, codegen, outline, on the
	// worker lane's storage. It runs at most once per module: merging mutates
	// the body in place.
	task: func(b *build, lane, i int) (any, error) {
		cfg, u := &b.cfg, b.units[i]
		lm, err := u.materialise(cfg.Tracer)
		if err != nil {
			return nil, err
		}
		mergeFunctions(cfg, lm, b.refs)
		return compileModule(u.name, lm, cfg, b.extern, lane, &b.back[lane])
	},
	// Cross-module references are external at this point, exactly as the
	// system linker would see them. A hit is not verified again; the final
	// whole-program verify still runs.
	verify: func(b *build, v any) (*mir.Program, map[string]bool) { return v.(*machineCode).prog, b.extern },
	done:   func(b *build, i int, v any) { b.parts[i] = v.(*machineCode) },
	end:    func(b *build) { b.back = nil },
	// The key is derived from the module's stored llir bytes before anything
	// touches its body. Without a profile the cold threshold cannot change
	// the artifact, so the projection drops it.
	cache: "machine",
	reads: func(c Config) Config {
		p := Config{MergeFunctions: c.MergeFunctions, FMSA: c.FMSA, OutlineRounds: c.OutlineRounds,
			FlatOutlineCost: c.FlatOutlineCost, Verify: c.Verify, OnVerifyFailure: c.OnVerifyFailure, Fault: c.Fault}
		if c.Profile != nil {
			p.Profile, p.OutlineColdThreshold = c.Profile, c.OutlineColdThreshold
		}
		return p
	},
	key: func(b *build, i int) string { return machineInput(b.units[i], b.refs) },
	decode: func(_ *build, _ int, data []byte, _ *obs.Span) (any, error) {
		p, st, err := artifact.DecodeMachine(data)
		return &machineCode{prog: p, stats: st}, err
	},
	encode: func(v any) []byte {
		mc := v.(*machineCode)
		return artifact.EncodeMachine(mc.prog, mc.stats)
	},
}, {
	name: "ld", timing: "ld",
	body: func(b *build) error {
		b.prog = linkMachine(b.parts)
		// Every module's outlining stats, computed or decoded, summed in
		// module order: a warm build's Result.Outline is the cold build's.
		if b.cfg.OutlineRounds > 0 {
			b.res.Outline = new(outline.Stats)
			for _, mc := range b.parts {
				b.res.Outline.Add(mc.stats)
			}
		}
		b.release()
		return nil
	},
}}

// backLane is one per-module llc worker's storage. A lane compiles and
// outlines its modules one after another, so each module's codegen tables and
// outlining scratch are the previous module's, regrown only when a larger
// module comes along. Only the machine program leaves the lane, and it is
// built from fresh memory.
type backLane struct {
	codegen.Compiler
	outline.Outliner
}

// compileModule generates code for module lm, named name, and outlines it
// (with extern as the symbols other modules and the runtime define), on the
// storage of back, the build's worker lane lane, or on fresh storage when
// back is nil.
func compileModule(name string, lm *llir.Module, cfg *Config, extern map[string]bool, lane int, back *backLane) (*machineCode, error) {
	if back == nil {
		back = new(backLane)
	}
	mc := &machineCode{}
	var err error
	if mc.prog, err = back.Compile(lm, 1, cfg.Tracer, lane+1, cfg.Fault); err != nil {
		return nil, err
	}
	if cfg.OutlineRounds > 0 {
		opts := outlineOptions(*cfg)
		opts.FuncPrefix = "OUTLINED_FUNCTION_" + name + "_"
		opts.ExternSyms = extern
		opts.Parallelism = 1
		opts.TraceLane = lane + 1
		opts.RemarkModule = name
		mc.stats, err = back.Outline(mc.prog, opts)
	}
	return mc, err
}

// outlineOptions is the part of outline.Options both pipelines' outlining
// takes from the build's config; each call site adds where the outliner runs:
// extern symbols, workers, trace lane, and the module names and remarks carry.
func outlineOptions(cfg Config) outline.Options {
	return outline.Options{
		Rounds:          cfg.OutlineRounds,
		FlatCostModel:   cfg.FlatOutlineCost,
		Verify:          cfg.Verify,
		Tracer:          cfg.Tracer,
		OnVerifyFailure: cfg.OnVerifyFailure,
		Fault:           cfg.Fault,
		Profile:         cfg.Profile,
		ColdThreshold:   cfg.OutlineColdThreshold,
	}
}

// postLink is the tail every linked program goes through, whichever front
// half (or BuildMIR's caller) linked it: for a whole program, repeated
// outlining (per-module builds ran it in compileModule); then function
// layout; then the image.
var postLink = []stage{{
	// The outliner emits one "machine-outline" stage span per round itself,
	// and stage totals sum them into the Timings entry.
	name: "outline",
	skip: func(c Config) bool { return !c.WholeProgram },
	body: func(b *build) (err error) {
		if b.cfg.OutlineRounds > 0 {
			opts := outlineOptions(b.cfg)
			opts.ExternSyms = llir.RuntimeSyms
			opts.Parallelism = b.cfg.Parallelism
			b.res.Outline, err = outline.Outline(b.prog, opts)
		}
		return err
	},
}, {
	// Function layout (internal/layout) runs last over the final program, so
	// it sees every outlined function and its order is exactly the image's.
	// When an active policy has a profile to score the reorder with, the
	// pre-reorder image is kept as the before/after baseline.
	name: "layout", timing: "layout",
	skip: func(c Config) bool { return c.Layout == "" },
	body: func(b *build) (err error) {
		if b.cfg.Layout != layout.None && b.cfg.Profile != nil {
			b.res.PreLayoutImage = binimg.Build(b.prog)
		}
		b.res.Layout, err = layout.Apply(b.prog, layout.Options{
			Policy:  b.cfg.Layout,
			Profile: b.cfg.Profile,
			Tracer:  b.cfg.Tracer,
		})
		return err
	},
}, {
	name: "image",
	body: func(b *build) error {
		res, tr := b.res, b.cfg.Tracer
		res.Image = binimg.Build(b.prog)
		if b.cfg.Verify {
			rep := verify.Image(res.Image, b.prog)
			tr.Add("verify/violations", int64(len(rep.Violations)))
			if err := rep.Err(); err != nil {
				return fmt.Errorf("image layout: %w", err)
			}
		}
		scoreLayout(tr, res, b.cfg.Profile)
		return nil
	},
	verify: linkedProgram,
}}

// scoreLayout scores a reorder at binimg's native page size, so that the
// improvement is visible in counters (and hence -summary) without rerunning
// PageTouch. Only a tracer keeps the counters, so without one nothing is
// scored.
func scoreLayout(tr *obs.Tracer, res *Result, prof *profile.Profile) {
	if tr == nil || res.PreLayoutImage == nil {
		return
	}
	dev := perf.Device{PageSize: binimg.PageSize}
	before := perf.PageTouch(res.PreLayoutImage, prof, dev)
	after := perf.PageTouch(res.Image, prof, dev)
	tr.Set("layout/cross_page_calls_before", before.CrossPageCalls)
	tr.Set("layout/cross_page_calls_after", after.CrossPageCalls)
	tr.Set("layout/touched_pages_before", int64(before.TouchedPages))
	tr.Set("layout/touched_pages_after", int64(after.TouchedPages))
}

// externSyms returns the symbols that are external during per-module
// outlining: the runtime's plus everything any module defines.
func externSyms(units []*lowered) map[string]bool {
	n := len(llir.RuntimeSyms)
	for _, u := range units {
		sum := u.summary()
		n += len(sum.Funcs) + len(sum.Globals)
	}
	syms := make(map[string]bool, n)
	for s := range llir.RuntimeSyms {
		syms[s] = true
	}
	for _, u := range units {
		sum := u.summary()
		for _, name := range sum.Funcs {
			syms[name] = true
		}
		for _, name := range sum.Globals {
			syms[name] = true
		}
	}
	return syms
}

// crossModuleRefs returns the function names referenced (by call or taken
// address) from a module other than the one defining them — the symbols a
// per-module transformation must leave resolvable for the system link.
func crossModuleRefs(units []*lowered) map[string]bool {
	defIn := make(map[string]string)
	for _, u := range units {
		for _, name := range u.summary().Funcs {
			defIn[name] = u.name
		}
	}
	refs := make(map[string]bool)
	for _, u := range units {
		for _, sym := range u.summary().Refs {
			if def, ok := defIn[sym]; ok && def != u.name {
				refs[sym] = true
			}
		}
	}
	return refs
}

// linkMachine concatenates per-module machine programs in module order (the
// system linker's job in the default pipeline).
func linkMachine(parts []*machineCode) *mir.Program {
	nf, ng := 0, 0
	for _, mc := range parts {
		nf += len(mc.prog.Funcs)
		ng += len(mc.prog.Globals)
	}
	out := mir.NewProgramSized(nf, ng)
	for _, mc := range parts {
		for _, f := range mc.prog.Funcs {
			out.AddFunc(f)
		}
		for _, g := range mc.prog.Globals {
			out.AddGlobal(g)
		}
	}
	return out
}

// ParseSourceTokens lexes a module's files (deterministic order) without
// parsing — used by the source-level clone detector.
func ParseSourceTokens(src Source) (map[string][]frontend.Token, error) {
	out := make(map[string][]frontend.Token, len(src.Files))
	for _, nf := range sortedFileList(src.Files) {
		toks, err := frontend.NewLexer(nf.name, nf.text).Lex()
		if err != nil {
			return nil, err
		}
		out[nf.name] = toks
	}
	return out, nil
}
