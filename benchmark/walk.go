package main

import (
	"fmt"

	"outliner/internal/appgen"
	"outliner/internal/artifact"
	"outliner/internal/binimg"
	"outliner/internal/cache"
	"outliner/internal/codegen"
	"outliner/internal/frontend"
	"outliner/internal/irlink"
	"outliner/internal/layout"
	"outliner/internal/llir"
	"outliner/internal/mir"
	"outliner/internal/obs"
	"outliner/internal/outline"
	"outliner/internal/pipeline"
	"outliner/internal/sir"
	"outliner/internal/suffixtree"
	"outliner/internal/verify"
)

// ownWork prefixes spans around the benchmark's own bookkeeping inside the
// walk (counting tokens, deriving the suffix-tree input). They are taken out
// of the walk's wall time before layer shares are computed.
const ownWork = "bench."

// walker repeats one build as a layer walk: it calls each layer's public
// functions itself, in pipeline order on one goroutine, each inside a span.
// It mirrors pipeline.Build / appgen.BuildGenerated step for step; the run
// proves that by requiring the walk's image listing to equal the build's.
type walker struct {
	rec     *recorder
	cfg     pipeline.Config
	flavour bool
	// counters receives the outliner's and verifier's own counts.
	counters *obs.Tracer
	v        values
	// encoded holds every artifact the walk serialized, for the cache spans.
	encoded [][]byte
}

// add records a layer's count, in the run's values and on the layer's span.
func (w *walker) add(name string, n int) {
	w.v[name] += float64(n)
	w.rec.count(name, int64(n))
}

// walk compiles mods and returns the finished build.
func (w *walker) walk(mods []appgen.Module) (*pipeline.Result, error) {
	var res *pipeline.Result
	var err error
	w.rec.do("walk", func() { res, err = w.compile(mods) })
	return res, err
}

func (w *walker) compile(mods []appgen.Module) (*pipeline.Result, error) {
	srcs := sources(mods)
	var err error
	w.rec.do(ownWork+"tokens", func() {
		for _, s := range srcs {
			var toks map[string][]frontend.Token
			if toks, err = pipeline.ParseSourceTokens(s); err != nil {
				return
			}
			for _, t := range toks {
				w.add("frontend.tokens", len(t))
			}
		}
	})
	if err != nil {
		return nil, err
	}

	parsed := make([][]*frontend.File, len(srcs))
	w.rec.do("frontend.parse", func() {
		for i, s := range srcs {
			if parsed[i], err = pipeline.ParseSource(s); err != nil {
				return
			}
		}
	})
	if err != nil {
		return nil, err
	}
	var ix *frontend.ImportsIndex
	w.rec.do("frontend.index", func() { ix = frontend.NewImportsIndex(parsed...) })
	w.rec.do("cache.key_hash", func() { pipeline.ComputeModuleKeys(srcs, parsed, nil) })

	lowered := make([]*llir.Module, len(srcs))
	for i, s := range srcs {
		lm, err := w.lower(s, ix.For(i))
		if err != nil {
			return nil, fmt.Errorf("module %s: %w", s.Name, err)
		}
		w.encodeModule(lm)
		if w.flavour && mods[i].ObjC {
			applyObjCFlavour(lm)
		}
		lowered[i] = lm
	}

	var prog *mir.Program
	if w.cfg.WholeProgram {
		prog, err = w.wholeProgram(lowered)
	} else {
		prog, err = w.perModule(lowered)
	}
	if err != nil {
		return nil, err
	}

	if w.cfg.Layout != "" {
		var st *layout.Stats
		w.rec.do("layout.apply", func() {
			st, err = layout.Apply(prog, layout.Options{Policy: w.cfg.Layout, Profile: w.cfg.Profile})
		})
		if err != nil {
			return nil, err
		}
		w.add("layout.moved", st.Moved)
		w.add("layout.clusters", st.Clusters)
		w.add("layout.cap_rejects", st.CapRejects)
	}
	if err := w.verifyProgram(prog, llir.RuntimeSyms); err != nil {
		return nil, fmt.Errorf("final machine program: %w", err)
	}
	res := &pipeline.Result{Prog: prog}
	w.rec.do("binimg.build", func() { res.Image = binimg.Build(prog) })
	w.add("binimg.symbols", res.Image.SymCount)
	var rep *verify.Report
	w.rec.do("verify.image", func() { rep = verify.Image(res.Image, prog) })
	w.add("verify.violations", len(rep.Violations))
	return res, rep.Err()
}

// lower is pipeline.CompileToLLIR: one module from source to cleaned-up LLIR.
// Like the pipeline it parses the module again, so the checker works on ASTs
// the shared import index does not alias.
func (w *walker) lower(src pipeline.Source, imports *frontend.Imports) (*llir.Module, error) {
	var files []*frontend.File
	var err error
	w.rec.do("frontend.parse", func() { files, err = pipeline.ParseSource(src) })
	if err != nil {
		return nil, err
	}
	var checked *frontend.Program
	w.rec.do("frontend.check", func() { checked, err = frontend.CheckModule(src.Name, imports, files...) })
	if err != nil {
		return nil, err
	}
	var sm *sir.Module
	w.rec.do("sir.generate", func() { sm, err = sir.Generate(checked) })
	if err != nil {
		return nil, err
	}
	w.rec.do("sir.passes", func() {
		if w.cfg.SpecializeClosures {
			sir.SpecializeClosures(sm)
		}
		if w.cfg.SILOutline {
			sir.OutlinePass(sm)
		}
		err = sm.Verify()
	})
	if err != nil {
		return nil, fmt.Errorf("after SIL passes: %w", err)
	}
	w.add("sir.funcs", len(sm.Funcs))
	w.add("sir.insts", sm.NumInsts())
	var lm *llir.Module
	w.rec.do("llir.fromsir", func() { lm, err = llir.FromSIR(sm) })
	if err != nil {
		return nil, err
	}
	if err := w.cleanup(lm); err != nil {
		return nil, fmt.Errorf("after per-module opt: %w", err)
	}
	w.add("llir.insts", lm.NumInsts())
	return lm, nil
}

func (w *walker) cleanup(m *llir.Module) error {
	var err error
	w.rec.do("llir.cleanup", func() {
		for _, f := range m.Funcs {
			llir.SimplifyCFG(f)
			llir.DCE(f)
		}
		err = m.Verify()
	})
	return err
}

// wholeProgram is the new pipeline: IR link, merged optimization, one code
// generation and one outliner over everything.
func (w *walker) wholeProgram(mods []*llir.Module) (*mir.Program, error) {
	var merged *llir.Module
	var err error
	w.rec.do("irlink.link", func() {
		merged, err = irlink.Link(mods, irlink.Options{
			SplitGCMetadata:     w.cfg.SplitGCMetadata,
			PreserveModuleOrder: w.cfg.PreserveDataLayout,
		})
	})
	if err != nil {
		return nil, err
	}
	w.add("irlink.funcs", len(merged.Funcs))
	w.add("irlink.globals", len(merged.Globals))
	if w.cfg.MergeFunctions {
		w.rec.do("llir.merge", func() { w.add("llir.funcs_merged", llir.MergeFunctions(merged).Removed) })
	}
	if err := w.cleanup(merged); err != nil {
		return nil, fmt.Errorf("after whole-program opt: %w", err)
	}
	prog, err := w.codegen(merged)
	if err != nil {
		return nil, err
	}
	if err := w.verifyProgram(prog, llir.RuntimeSyms); err != nil {
		return nil, fmt.Errorf("after codegen: %w", err)
	}
	w.suffixTree(prog)
	st, err := w.outline("outline.total", prog, outline.Options{ExternSyms: llir.RuntimeSyms})
	if err != nil {
		return nil, err
	}
	w.encodeMachine(prog, st)
	return prog, nil
}

// perModule is the default pipeline: each module is merged, compiled,
// outlined and verified alone, then the parts are concatenated.
func (w *walker) perModule(mods []*llir.Module) (*mir.Program, error) {
	extern := externSyms(mods)
	var keep map[string]bool
	if w.cfg.MergeFunctions {
		keep = crossModuleRefs(mods)
	}
	whole := mir.NewProgram() // pre-outlining code of every module, for the suffix-tree spans
	parts := make([]*mir.Program, len(mods))
	for i, lm := range mods {
		if w.cfg.MergeFunctions {
			w.rec.do("llir.merge", func() {
				w.add("llir.funcs_merged", llir.MergeFunctionsKeeping(lm, keep).Removed)
			})
		}
		p, err := w.codegen(lm)
		if err != nil {
			return nil, fmt.Errorf("module %s: %w", lm.Name, err)
		}
		w.rec.do(ownWork+"clone", func() {
			for _, f := range p.Funcs {
				whole.AddFunc(f.Clone())
			}
		})
		var st *outline.Stats
		if w.cfg.OutlineRounds > 0 {
			st, err = w.outline("outline.permodule", p, outline.Options{
				FuncPrefix:   "OUTLINED_FUNCTION_" + lm.Name + "_",
				ExternSyms:   extern,
				RemarkModule: lm.Name,
			})
			if err != nil {
				return nil, fmt.Errorf("module %s: %w", lm.Name, err)
			}
		}
		if err := w.verifyProgram(p, extern); err != nil {
			return nil, fmt.Errorf("module %s after codegen: %w", lm.Name, err)
		}
		w.encodeMachine(p, st)
		parts[i] = p
	}
	w.suffixTree(whole)
	return linkMachine(parts), nil
}

func (w *walker) codegen(m *llir.Module) (*mir.Program, error) {
	var p *mir.Program
	var err error
	w.rec.do("codegen.compile", func() { p, err = codegen.CompileWith(m, 1) })
	if err != nil {
		return nil, err
	}
	w.add("codegen.insts", p.NumInsts())
	w.add("codegen.code_bytes", p.CodeSize())
	return p, nil
}

// outline runs the repetition analysis and then the machine outliner over
// prog, filling in the options every call shares.
func (w *walker) outline(spanName string, prog *mir.Program, opts outline.Options) (*outline.Stats, error) {
	opts.Rounds = w.cfg.OutlineRounds
	opts.FlatCostModel = w.cfg.FlatOutlineCost
	opts.Verify = w.cfg.Verify
	opts.Parallelism = 1
	opts.OnVerifyFailure = w.cfg.OnVerifyFailure
	opts.Profile = w.cfg.Profile
	w.rec.do("outline.analyze", func() { outline.Analyze(prog, opts) })
	opts.Tracer = w.counters
	var st *outline.Stats
	var err error
	w.rec.do(spanName, func() { st, err = outline.Outline(prog, opts) })
	if err != nil {
		return nil, err
	}
	w.add("outline.sequences", st.TotalSequences())
	w.add("outline.functions", st.TotalFunctions())
	for _, r := range st.Rounds {
		w.add("outline.bytes_saved", r.BytesSaved)
	}
	return st, nil
}

func (w *walker) verifyProgram(prog *mir.Program, extern map[string]bool) error {
	var rep *verify.Report
	w.rec.do("verify.program", func() { rep = verify.Program(prog, extern) })
	w.add("verify.funcs_checked", rep.FuncsChecked)
	w.add("verify.violations", len(rep.Violations))
	return rep.Err()
}

// suffixTree builds the candidate-discovery structure over prog the way the
// outliner's first round would see it: identical instructions share a symbol,
// every block ends in a separator that occurs once.
func (w *walker) suffixTree(prog *mir.Program) {
	var stream []int
	w.rec.do(ownWork+"stream", func() {
		ids := map[string]int{}
		sep := -1
		for _, f := range prog.Funcs {
			for _, b := range f.Blocks {
				for _, in := range b.Insts {
					text := in.String()
					id, ok := ids[text]
					if !ok {
						id = len(ids)
						ids[text] = id
					}
					stream = append(stream, id)
				}
				stream = append(stream, sep)
				sep--
			}
		}
	})
	var tree *suffixtree.Tree
	w.rec.do("suffixtree.build", func() { tree = suffixtree.New(stream) })
	repeats := 0
	w.rec.do("suffixtree.enumerate", func() {
		tree.ForEachRepeat(2, 2, func(suffixtree.Repeat) { repeats++ })
	})
	w.add("suffixtree.symbols", len(stream))
	w.add("suffixtree.nodes", tree.NodeCount())
	w.add("suffixtree.repeats", repeats)
}

// encodeModule and encodeMachine serialize and deserialize what the cache
// would store for this build, as the artifact layer's spans.
func (w *walker) encodeModule(m *llir.Module) {
	var enc []byte
	w.rec.do("artifact.encode_module", func() { enc = artifact.EncodeModule(m) })
	var err error
	w.rec.do("artifact.decode_module", func() { _, err = artifact.DecodeModule(enc) })
	if err != nil {
		panic(fmt.Sprintf("benchmark: artifact.DecodeModule rejected EncodeModule's output: %v", err))
	}
	w.add("artifact.module_bytes", len(enc))
	w.encoded = append(w.encoded, enc)
}

func (w *walker) encodeMachine(p *mir.Program, st *outline.Stats) {
	var enc []byte
	w.rec.do("artifact.encode_machine", func() { enc = artifact.EncodeMachine(p, st) })
	var err error
	w.rec.do("artifact.decode_machine", func() { _, _, err = artifact.DecodeMachine(enc) })
	if err != nil {
		panic(fmt.Sprintf("benchmark: artifact.DecodeMachine rejected EncodeMachine's output: %v", err))
	}
	w.add("artifact.machine_bytes", len(enc))
	w.encoded = append(w.encoded, enc)
}

// cacheSpans stores and fetches every artifact of the walk through a cache of
// its own under dir: once from the memory tier, once from disk.
func (w *walker) cacheSpans(dir string) error {
	defer removeCacheDir(dir)
	keys := make([]cache.Key, len(w.encoded))
	for i, enc := range w.encoded {
		keys[i] = cache.Key{Stage: "walk", Input: cache.HashBytes(enc), Config: "benchmark", Schema: 1}
	}
	var c *cache.Cache
	var err error
	w.rec.do("cache.put", func() {
		if c, err = cache.Open(dir); err != nil {
			return
		}
		for i, enc := range w.encoded {
			c.Put(keys[i], enc)
		}
	})
	if err != nil {
		return err
	}
	get := func() error {
		for i, k := range keys {
			data, ok := c.Get(k)
			if !ok || len(data) != len(w.encoded[i]) {
				return fmt.Errorf("cache lost entry %d of %d", i, len(keys))
			}
			w.add("cache.bytes", len(data))
		}
		return nil
	}
	w.rec.do("cache.get_mem", func() { err = get() })
	if err != nil {
		return err
	}
	c.DropMemory()
	w.rec.do("cache.get_disk", func() { err = get() })
	w.v["cache.bytes"] /= 2
	w.add("cache.entries", len(keys))
	return err
}

// The three helpers below restate unexported pipeline and appgen code the
// walk has to repeat; the listing-hash check keeps them honest.

func applyObjCFlavour(m *llir.Module) {
	m.Metadata["Objective-C Garbage Collection"] = "clang abi-v11.0 bits-0x17"
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Insts {
				in := &b.Insts[i]
				if in.Op != llir.Call {
					continue
				}
				switch in.Sym {
				case llir.RTRetain:
					in.Sym = llir.RTObjCRetain
				case llir.RTRelease:
					in.Sym = llir.RTObjCRelease
				}
			}
		}
	}
}

// externSyms: during per-module work every other module's symbol is external.
func externSyms(mods []*llir.Module) map[string]bool {
	syms := make(map[string]bool, len(llir.RuntimeSyms))
	for s := range llir.RuntimeSyms {
		syms[s] = true
	}
	for _, m := range mods {
		for _, f := range m.Funcs {
			syms[f.Name] = true
		}
		for _, g := range m.Globals {
			syms[g.Name] = true
		}
	}
	return syms
}

// crossModuleRefs: functions another module calls or takes the address of,
// which per-module merging must keep.
func crossModuleRefs(mods []*llir.Module) map[string]bool {
	defIn := map[string]string{}
	for _, m := range mods {
		for _, f := range m.Funcs {
			defIn[f.Name] = m.Name
		}
	}
	refs := map[string]bool{}
	for _, m := range mods {
		for _, f := range m.Funcs {
			for _, b := range f.Blocks {
				for i := range b.Insts {
					in := &b.Insts[i]
					if in.Op != llir.Call && in.Op != llir.GlobalAddr {
						continue
					}
					if def, ok := defIn[in.Sym]; ok && def != m.Name {
						refs[in.Sym] = true
					}
				}
			}
		}
	}
	return refs
}

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
