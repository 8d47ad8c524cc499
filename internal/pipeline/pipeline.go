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
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"outliner/internal/binimg"
	"outliner/internal/cache"
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

// Config selects pipeline and optimization settings.
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
	// FMSA enables merging of similar (not identical) functions by
	// sequence alignment (Table I row 4).
	FMSA bool
	// FlatOutlineCost is the cost-model ablation (see outline.Options).
	FlatOutlineCost bool
	// PreserveDataLayout keeps per-module global ordering in the IR link
	// (§VI-3's fix). Only meaningful with WholeProgram.
	PreserveDataLayout bool
	// SplitGCMetadata enables the §VI-2 metadata-attribute fix. Mixed
	// Swift/Objective-C programs fail to link without it.
	SplitGCMetadata bool
	// CanonicalizeSequences enables the future-work extension that rewrites
	// commutative operations into canonical operand order before outlining,
	// exposing semantically-equivalent sequences as textual matches (§VIII
	// direction 1).
	CanonicalizeSequences bool
	// LayoutOutlined places outlined functions next to their heaviest
	// caller after outlining (§VIII direction 3).
	LayoutOutlined bool
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
	// means "telemetry off": the pipeline then runs a private timing-only
	// collector (so Result.Timings stays available) whose overhead is a
	// few time.Now calls per stage. Telemetry is strictly observational —
	// the built image is byte-identical with any Tracer or none.
	Tracer *obs.Tracer
	// CacheDir enables the content-addressed incremental build cache
	// (internal/cache, serialized by internal/artifact): per-module LLIR
	// lowering (both pipelines) and per-module codegen+outlining (default
	// pipeline) are keyed by input content, stage-relevant config
	// fingerprint, and codec schema version. Empty means "cache off".
	// Caching is strictly an accelerator: the built image is byte-identical
	// whether a build runs cold, warm, or with no cache at all, and a
	// damaged cache entry is treated as a miss, never an error.
	CacheDir string
	// Flight is the build farm's single-flight layer: when several concurrent
	// builds (a compile daemon's requests) share one Flight, identical
	// in-flight stage keys are computed once and the encoded artifact is
	// shared; every waiter decodes a private copy. Strictly an accelerator,
	// like the cache itself: it never changes an artifact, so it is excluded
	// from cache fingerprints. nil disables dedupe. Fault-armed builds ignore
	// it (they must not share work with clean builds).
	Flight *cache.Flight
	// Remote attaches a sharded remote cache tier (cache.NewRemote) behind
	// CacheDir: probes that miss memory and disk consult the owning shard,
	// and publications replicate there. A dead or corrupt shard degrades to
	// a miss, never a failure. Requires CacheDir; attaching a remote to a
	// shared cache directory attaches it for every build in the process
	// using that directory. Fault-armed builds ignore it.
	Remote *cache.Remote
	// KeepGoing makes the per-module parallel stages — frontend lowering in
	// both pipelines, and the default pipeline's per-module codegen+outline —
	// run every module even after one fails, then fail with a *BuildErrors
	// aggregating every per-module error instead of just the lowest-index
	// one. The whole-program pipeline's post-link stages operate on a single
	// merged program and keep first-error semantics. Reporting-only: a
	// successful build's output is identical either way, so KeepGoing is
	// excluded from cache fingerprints.
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
	// the schedule participates in cache fingerprints, so a faulted build
	// can neither publish nor consume a clean build's artifacts. nil
	// disables injection at zero cost.
	Fault *fault.Injector
	// Profile supplies an execution profile from an instrumented run
	// (-profile-in): outliner candidate remarks gain execution counts and
	// hot/cold verdicts, and cold-only gating becomes possible. The profile
	// digest joins the machine-stage cache fingerprint, so profiled builds
	// never collide with clean builds' cache entries.
	Profile *profile.Profile
	// OutlineColdOnly restricts machine outlining to cold functions
	// (-outline-cold-only); see outline.Options.ColdOnly. Without a Profile
	// or with OutlineColdThreshold <= 0 it gates nothing and the image is
	// byte-identical to an unprofiled build.
	OutlineColdOnly bool
	// OutlineColdThreshold is the entry count at which a function counts as
	// hot (-outline-cold-threshold).
	OutlineColdThreshold int64
	// Layout selects the profile-guided function-ordering policy applied to
	// the final program before image build (-layout): layout.None (or ""),
	// layout.HotCold, or layout.C3. Active policies need a Profile to act on
	// and are inert without one. The policy joins the machine-stage cache
	// fingerprint alongside the profile digest. An unknown policy fails the
	// build before any stage runs.
	Layout string
}

// BuildErrors is a keep-going build's aggregated failure: one error per
// failed module, in module order. Unwrap exposes them to errors.Is/As, so a
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
	Prog    *mir.Program
	Image   *binimg.Image
	Outline *outline.Stats
	// Layout reports what the function-layout pass did (nil when Config.Layout
	// was unset). PreLayoutImage is the image the program would have produced
	// without the reorder — the "before" of a before/after PageTouch report —
	// built only when the pass actually reordered (active policy + profile).
	Layout         *layout.Stats
	PreLayoutImage *binimg.Image
	// Timings maps stage name to total time, derived from the tracer's
	// stage spans: a stage that runs more than once — per outlining round,
	// or per module in the default pipeline — reports the sum of its runs,
	// never just the last one.
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
	return lowerToSIR(src.Name, files, cfg, imports)
}

// parseModule is ParseSource counted under frontend/modules_parsed — the
// work-done counter that shows a warm build lexing only what an edit touched.
func parseModule(src Source, tr *obs.Tracer) ([]*frontend.File, error) {
	tr.Add("frontend/modules_parsed", 1)
	return ParseSource(src)
}

// lowerToSIR type-checks a module's parsed files (which it takes ownership
// of: the checker annotates them in place) and generates optimized SIR.
func lowerToSIR(module string, files []*frontend.File, cfg Config, imports *frontend.Imports) (*sir.Module, error) {
	cfg.Tracer.Add("frontend/files", int64(len(files)))
	prog, err := frontend.CheckModule(module, imports, files...)
	if err != nil {
		return nil, err
	}
	sm, err := sir.Generate(prog)
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
	return lowerToLLIR(src.Name, files, cfg, imports)
}

// lowerToLLIR is CompileToLLIR from already-parsed files (see lowerToSIR).
func lowerToLLIR(module string, files []*frontend.File, cfg Config, imports *frontend.Imports) (*llir.Module, error) {
	sm, err := lowerToSIR(module, files, cfg, imports)
	if err != nil {
		return nil, err
	}
	lm, err := llir.FromSIR(sm)
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
	return runBuild(cfg, func(b *build) (*Result, error) {
		front := b.cfg.Tracer.StartStage("frontend+permodule", 0)
		units, err := b.lowerAll(sources)
		front.End()
		if err != nil {
			return nil, err
		}
		link := b.linkModules
		if b.cfg.WholeProgram {
			link = b.linkWholeProgram
		}
		prog, err := link(units)
		if err != nil {
			return nil, err
		}
		return b.postLink(prog)
	})
}

// BuildMIR finishes a build from a machine program that is already linked —
// the paper artifact's `llc -outline-repeat-count=N` over prebuilt code, run
// by cmd/outline and outliner.OutlineText. prog is treated as a linked whole
// program (BuildMIR sets cfg.WholeProgram), transformed in place, and goes
// through the same post-link tail as Build's: outlining, layout, verification
// and the image. It recovers panics and reports cancellation like Build.
func BuildMIR(prog *mir.Program, cfg Config) (*Result, error) {
	cfg.WholeProgram = true
	return runBuild(cfg, func(b *build) (*Result, error) { return b.postLink(prog) })
}

// build is the state one Build or BuildMIR call threads through its stages:
// the config with Tracer and Ctx resolved (neither is nil), and the handle
// that cancels the build at a scripted step.
type build struct {
	cfg    Config
	cancel context.CancelFunc
}

// runBuild is the frame every build entry point shares: config validation
// before any stage runs, tracer and context resolution, fault-counter
// mirroring, the panic-to-error boundary, and Result.Timings scoped to this
// build.
func runBuild(cfg Config, body func(*build) (*Result, error)) (res *Result, err error) {
	if err := outline.CheckVerifyMode(cfg.OnVerifyFailure); err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	if !layout.Valid(cfg.Layout) {
		return nil, fmt.Errorf("pipeline: unknown layout policy %q (want %s)", cfg.Layout, strings.Join(layout.Policies(), ", "))
	}
	tr := obs.Ensure(cfg.Tracer)
	cfg.Tracer = tr
	cancel := buildContext(&cfg)
	defer cancel()
	defer mirrorFaults(tr, cfg.Fault)
	defer func() {
		if r := recover(); r != nil {
			tr.Add("fault/recovered_panics", 1)
			res, err = nil, fmt.Errorf("pipeline: %w", par.Recovered("build", -1, r))
		}
	}()
	mark := tr.Mark()
	if res, err = body(&build{cfg: cfg, cancel: cancel}); err != nil {
		return nil, err
	}
	res.Timings = tr.StageTotalsSince(mark)
	return res, nil
}

// mapModules runs one per-module parallel stage. Under KeepGoing every module
// runs and the failures are aggregated into a *BuildErrors; otherwise the
// lowest-index failure is returned.
func mapModules[T any](b *build, stage string, n int, f func(lane, i int) (T, error)) ([]T, error) {
	cfg := b.cfg
	out := make([]T, n)
	errs := par.Run(cfg.Ctx, stage, cfg.Parallelism, n, cfg.KeepGoing, func(lane, i int) error {
		v, err := f(lane, i)
		if err == nil {
			out[i] = v
		}
		return err
	})
	if cfg.KeepGoing {
		return out, gatherKeepGoing(cfg.Tracer, errs)
	}
	for _, err := range errs {
		if err != nil {
			notePanics(cfg.Tracer, err)
			return nil, err
		}
	}
	return out, nil
}

// lowerAll is the front half of Build: every module's interface stub, then
// every module's LLIR, each from the cache where the cache has it. A module's
// source is parsed at most once: only when its iface entry misses (its source
// changed) or its llir entry does (its source or an imported interface
// changed) — and the files parsed for the stub are the files type-checked.
func (b *build) lowerAll(sources []Source) ([]*lowered, error) {
	cfg, tr := b.cfg, b.cfg.Tracer
	bc, err := OpenBuildCache(cfg)
	if err != nil {
		return nil, err
	}
	moduleErr := func(i int, err error) error {
		return fmt.Errorf("pipeline: module %s: %w", sources[i].Name, err)
	}

	// Under KeepGoing every module is still parsed (and every parse error
	// reported), but a parse failure remains fatal: the import index needs
	// all modules' declarations.
	stepCancel(cfg, b.cancel, "parse")
	ifaces, err := mapModules(b, "parse", len(sources), func(lane, i int) (*moduleIface, error) {
		cfg.Fault.MaybePanic(fault.WorkerTask, "parse "+sources[i].Name)
		mi, err := bc.interfaceOf(sources[i], cfg, lane+1)
		if err != nil {
			return nil, moduleErr(i, err)
		}
		return mi, nil
	})
	if err != nil {
		return nil, err
	}
	// The index holds stub declarations only, never a module's AST, so it is
	// shared read-only by the workers below while each type-checks its own
	// parsed files in place.
	stubs := make([]*frontend.Stub, len(sources))
	for i, mi := range ifaces {
		stubs[i] = mi.stub
	}
	ix := frontend.NewStubIndex(stubs...)
	var keys *ModuleKeys
	if bc.enabled() {
		start := time.Now()
		keys = moduleKeys(ifaces)
		tr.Add("cache/key_hash_ns", time.Since(start).Nanoseconds())
	}

	// Results are collected in source order, so irlink.Link sees the same
	// module sequence as the serial build.
	stepCancel(cfg, b.cancel, "frontend")
	return mapModules(b, "frontend", len(sources), func(lane, i int) (*lowered, error) {
		cfg.Fault.MaybePanic(fault.WorkerTask, sources[i].Name)
		if err := workerHang(cfg.Ctx, cfg, sources[i].Name); err != nil {
			return nil, moduleErr(i, err)
		}
		sp := tr.StartSpan("frontend "+sources[i].Name, lane+1)
		defer sp.End()
		files := ifaces[i].files
		ifaces[i].files = nil // the AST dies with this module's lowering
		u, err := bc.lower(sources[i], cfg, ix.For(i), i, keys, files, lane+1)
		if err != nil {
			return nil, moduleErr(i, err)
		}
		return u, nil
	})
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

// stepCancel consults the CancelStep fault site at a stage boundary,
// cancelling the build's context when the schedule says so — the
// cancel-at-step-N chaos drill.
func stepCancel(cfg Config, cancel context.CancelFunc, step string) {
	if cfg.Fault.MaybeCancelPoint(fault.CancelStep, "step:"+step) {
		cancel()
	}
}

// workerHang consults the WorkerHang fault site at a worker task's start: a
// scheduled hang blocks until the build's context is cancelled, then fails
// with the context's error — the hung-compiler drill deadline propagation
// exists to bound. Without a deadline or cancellation the hang is unbounded,
// which is why chaos schedules only fire it under EnableDisruptive.
func workerHang(ctx context.Context, cfg Config, key string) error {
	if !cfg.Fault.MaybeHangPoint(fault.WorkerHang, key) {
		return nil
	}
	<-ctx.Done()
	return fmt.Errorf("hung worker cancelled: %w", ctx.Err())
}

// ctxErr converts a done build context into the error reported at a stage
// boundary (nil while the build may continue).
func ctxErr(ctx context.Context, where string) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("pipeline: %s: build cancelled: %w", where, err)
	}
	return nil
}

// gatherKeepGoing folds a keep-going stage's error slice (one slot per task)
// into a single *BuildErrors, nil when every task succeeded. Recovered worker
// panics and the failure count land on the build's counters.
func gatherKeepGoing(tr *obs.Tracer, errs []error) error {
	var be BuildErrors
	for _, e := range errs {
		if e != nil {
			be.Errs = append(be.Errs, e)
		}
	}
	if len(be.Errs) == 0 {
		return nil
	}
	notePanics(tr, be.Errs...)
	tr.Add("build/keep_going_errors", int64(len(be.Errs)))
	return &be
}

// notePanics counts the errors whose chain carries a recovered worker panic,
// keeping panic isolation visible in -summary even when the build fails.
func notePanics(tr *obs.Tracer, errs ...error) {
	for _, e := range errs {
		var pe *par.PanicError
		if errors.As(e, &pe) {
			tr.Add("fault/recovered_panics", 1)
		}
	}
}

// mirrorFaults drains the injector's per-site injection counts into the
// build's counters, so -summary shows what a chaos schedule actually fired.
func mirrorFaults(tr *obs.Tracer, inj *fault.Injector) {
	for name, n := range inj.DrainCounters() {
		tr.Add(name, n)
	}
}

// linkWholeProgram is the front half of the whole-program pipeline after
// lowering: llvm-link every module's LLIR into one module, optimize it, and
// generate code for it once.
func (b *build) linkWholeProgram(units []*lowered) (*mir.Program, error) {
	cfg, tr := b.cfg, b.cfg.Tracer
	stepCancel(cfg, b.cancel, "link")
	if err := ctxErr(cfg.Ctx, "before llvm-link"); err != nil {
		return nil, err
	}
	// The IR link consumes every body; lowering already materialised them in
	// its parallel workers.
	mods := make([]*llir.Module, len(units))
	for i, u := range units {
		var err error
		if mods[i], err = u.materialise(tr); err != nil {
			return nil, fmt.Errorf("pipeline: module %s: %w", u.name, err)
		}
	}
	sp := tr.StartStage("llvm-link", 0)
	merged, err := irlink.Link(mods, irlink.Options{
		SplitGCMetadata:     cfg.SplitGCMetadata,
		PreserveModuleOrder: cfg.PreserveDataLayout,
		Tracer:              tr,
	})
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("pipeline: irlink: %w", err)
	}

	sp = tr.StartStage("opt", 0)
	if cfg.MergeFunctions {
		llir.MergeFunctions(merged)
	}
	if cfg.FMSA {
		llir.MergeBySequenceAlignment(merged)
	}
	for _, err := range par.Run(nil, "opt", cfg.Parallelism, len(merged.Funcs), false, func(_, i int) error {
		if cfg.Fault != nil { // the key is built only for an armed injector
			cfg.Fault.MaybePanic(fault.WorkerTask, "opt "+merged.Funcs[i].Name)
		}
		llir.SimplifyCFG(merged.Funcs[i])
		llir.DCE(merged.Funcs[i])
		return nil
	}) {
		if err != nil {
			panic(err) // a recovered worker panic, re-raised for runBuild's recovery boundary
		}
	}
	if cfg.Verify {
		if err := merged.Verify(); err != nil {
			sp.End()
			return nil, fmt.Errorf("pipeline: after whole-program opt: %w", err)
		}
	}
	sp.End()

	stepCancel(cfg, b.cancel, "llc")
	if err := ctxErr(cfg.Ctx, "before codegen"); err != nil {
		return nil, err
	}
	sp = tr.StartStage("llc", 0)
	prog, err := codegen.CompileTraced(merged, cfg.Parallelism, tr, 1, cfg.Fault)
	sp.End()
	if err != nil {
		notePanics(tr, err)
		return nil, err
	}
	if cfg.Verify {
		if err := runVerify(prog, llir.RuntimeSyms, tr, "after codegen"); err != nil {
			return nil, err
		}
	}
	return prog, nil
}

// linkModules is the front half of the default pipeline after lowering:
// per-module codegen (and per-module outlining), then the system linker
// concatenates machine code. Modules are independent here — that is exactly
// the parallelism the paper's whole-program pipeline forfeits — so it fans out
// one worker per module (inner stages stay serial to avoid oversubscription)
// and concatenates the parts in module order. Each worker's spans land on its
// own trace lane; the per-module "machine-outline" stage spans emitted inside
// workers sum into one total.
func (b *build) linkModules(units []*lowered) (*mir.Program, error) {
	cfg, tr := b.cfg, b.cfg.Tracer
	stepCancel(cfg, b.cancel, "llc")
	sp := tr.StartStage("llc", 0)
	bc, err := OpenBuildCache(cfg)
	if err != nil {
		sp.End()
		return nil, err
	}
	// What one module needs to know of the others comes from their summaries,
	// so a module whose machine entry hits never has its LLIR body decoded.
	extern := externSyms(units) // shared, read-only across workers
	var crossRefs map[string]bool
	if cfg.MergeFunctions || cfg.FMSA {
		// Per-module merging must not delete a function some other module
		// calls: the system link would then resolve that call to nothing.
		// Symbols referenced across module boundaries keep their definitions.
		crossRefs = crossModuleRefs(units)
	}
	parts, err := mapModules(b, "llc", len(units), func(lane, i int) (*mir.Program, error) {
		u := units[i]
		cfg.Fault.MaybePanic(fault.WorkerTask, u.name)
		if err := workerHang(cfg.Ctx, cfg, u.name); err != nil {
			return nil, fmt.Errorf("pipeline: module %s: %w", u.name, err)
		}
		wsp := tr.StartSpan("module "+u.name, lane+1)
		defer wsp.End()
		// The miss path: materialise the body, merge, codegen, outline,
		// verify. A hit skips all of it (the final whole-program verify still
		// runs). It runs at most once per module: merging mutates the body in
		// place.
		compute := func() (*machineCode, error) {
			lm, err := u.materialise(tr)
			if err != nil {
				return nil, fmt.Errorf("pipeline: module %s: %w", u.name, err)
			}
			if cfg.MergeFunctions {
				llir.MergeFunctionsKeeping(lm, crossRefs)
			}
			if cfg.FMSA {
				llir.MergeBySequenceAlignmentKeeping(lm, crossRefs)
			}
			p, cerr := codegen.CompileTraced(lm, 1, tr, lane+1, cfg.Fault)
			if cerr != nil {
				return nil, fmt.Errorf("pipeline: module %s: %w", u.name, cerr)
			}
			var st *outline.Stats
			if cfg.OutlineRounds > 0 {
				opts := outlineOptions(cfg)
				opts.FuncPrefix = "OUTLINED_FUNCTION_" + u.name + "_"
				opts.ExternSyms = extern
				opts.Parallelism = 1
				opts.TraceLane = lane + 1
				opts.RemarkModule = u.name
				if st, cerr = outline.Outline(p, opts); cerr != nil {
					return nil, fmt.Errorf("pipeline: module %s: %w", u.name, cerr)
				}
			}
			if cfg.Verify {
				// Cross-module references are external at this point, exactly
				// as the system linker would see them.
				if err := runVerify(p, extern, tr, "module "+u.name+" after codegen"); err != nil {
					return nil, err
				}
			}
			return &machineCode{prog: p, stats: st}, nil
		}
		mc, err := bc.machine(u, crossRefs, cfg, lane+1, compute)
		if err != nil {
			return nil, err
		}
		return mc.prog, nil
	})
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = tr.StartStage("ld", 0)
	prog := linkMachine(parts)
	sp.End()
	return prog, nil
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
		ColdOnly:        cfg.OutlineColdOnly,
		ColdThreshold:   cfg.OutlineColdThreshold,
	}
}

// postLink is the tail every linked program goes through, whichever front half
// (or BuildMIR's caller) linked it: for a whole program, canonicalization and
// repeated outlining; then outlined-function placement, profile-guided layout,
// the final verify, and the image.
func (b *build) postLink(prog *mir.Program) (*Result, error) {
	cfg, tr := b.cfg, b.cfg.Tracer
	res := &Result{Prog: prog}

	if cfg.WholeProgram && cfg.CanonicalizeSequences {
		outline.CanonicalizeCommutative(prog)
	}
	if cfg.WholeProgram && cfg.OutlineRounds > 0 {
		stepCancel(cfg, b.cancel, "outline")
		if err := ctxErr(cfg.Ctx, "before outlining"); err != nil {
			return nil, err
		}
		// No enclosing stage span here: the outliner emits one
		// "machine-outline" stage span per round itself, and stage totals sum
		// them into the Timings entry.
		opts := outlineOptions(cfg)
		opts.ExternSyms = llir.RuntimeSyms
		opts.Parallelism = cfg.Parallelism
		st, err := outline.Outline(prog, opts)
		if err != nil {
			return nil, err
		}
		res.Outline = st
	}
	if cfg.LayoutOutlined {
		outline.LayoutOutlined(prog)
	}
	if cfg.Layout != "" {
		// Profile-guided function layout (internal/layout) runs last over the
		// final program, so it sees every outlined function and its order is
		// exactly the image's. When the pass will actually reorder, the
		// pre-reorder image is kept as the before/after baseline.
		sp := tr.StartStage("layout", 0)
		if cfg.Layout != layout.None && cfg.Profile != nil {
			res.PreLayoutImage = binimg.Build(prog)
		}
		st, err := layout.Apply(prog, layout.Options{
			Policy:  cfg.Layout,
			Profile: cfg.Profile,
			Tracer:  tr,
		})
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("pipeline: %w", err)
		}
		res.Layout = st
	}

	if err := ctxErr(cfg.Ctx, "before image build"); err != nil {
		return nil, err
	}
	if cfg.Verify {
		if err := runVerify(prog, llir.RuntimeSyms, tr, "final machine program"); err != nil {
			return nil, err
		}
	}
	res.Image = binimg.Build(prog)
	if cfg.Verify {
		rep := verify.Image(res.Image, prog)
		tr.Add("verify/violations", int64(len(rep.Violations)))
		if err := rep.Err(); err != nil {
			return nil, fmt.Errorf("pipeline: image layout: %w", err)
		}
	}
	if res.PreLayoutImage != nil {
		// Score the reorder at binimg's native page size so the improvement is
		// visible in counters (and hence -summary) without rerunning PageTouch.
		dev := perf.Device{PageSize: binimg.PageSize}
		before := perf.PageTouch(res.PreLayoutImage, cfg.Profile, dev)
		after := perf.PageTouch(res.Image, cfg.Profile, dev)
		tr.Set("layout/cross_page_calls_before", before.CrossPageCalls)
		tr.Set("layout/cross_page_calls_after", after.CrossPageCalls)
		tr.Set("layout/touched_pages_before", int64(before.TouchedPages))
		tr.Set("layout/touched_pages_after", int64(after.TouchedPages))
	}
	return res, nil
}

// runVerify runs the machine verifier over prog, records its pass counts on
// the build's counters (surfaced by -summary), and converts violations into
// a build error naming the pipeline stage that produced them.
func runVerify(prog *mir.Program, extern map[string]bool, tr *obs.Tracer, what string) error {
	rep := verify.Program(prog, extern)
	tr.Add("verify/functions", int64(rep.FuncsChecked))
	tr.Add("verify/violations", int64(len(rep.Violations)))
	if err := rep.Err(); err != nil {
		return fmt.Errorf("pipeline: %s: %w", what, err)
	}
	return nil
}

// externSyms returns the symbols that are external during per-module
// outlining: the runtime's plus everything any module defines.
func externSyms(units []*lowered) map[string]bool {
	syms := make(map[string]bool, len(llir.RuntimeSyms))
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
func linkMachine(parts []*mir.Program) *mir.Program {
	out := mir.NewProgram()
	for _, p := range parts {
		for _, f := range p.Funcs {
			out.AddFunc(f)
		}
		for _, g := range p.Globals {
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
