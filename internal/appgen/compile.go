package appgen

import (
	"fmt"

	"outliner/internal/frontend"
	"outliner/internal/irlink"
	"outliner/internal/llir"
	"outliner/internal/pipeline"
	"outliner/internal/sir"
)

// Sources returns the generated modules as pipeline sources. Modules marked
// ObjC keep the mark: pipeline.Build gives their lowered bodies the
// Objective-C flavour — the §VI-2 mixed-compiler situation.
func Sources(mods []Module) []pipeline.Source {
	sources := make([]pipeline.Source, len(mods))
	for i, m := range mods {
		sources[i] = pipeline.Source{Name: m.Name, Files: m.Files, ObjC: m.ObjC}
	}
	return sources
}

// BuildApp generates, compiles, and links an app profile at the given scale
// under cfg.
func BuildApp(p Profile, scale float64, cfg pipeline.Config) (*pipeline.Result, error) {
	return BuildGenerated(Generate(p, scale), cfg)
}

// BuildGenerated compiles and links already-generated modules under cfg.
// Benchmarks use it to keep corpus generation (and deterministic edits to the
// corpus) out of the timed build.
func BuildGenerated(generated []Module, cfg pipeline.Config) (*pipeline.Result, error) {
	cfg.Tracer.Add("appgen/modules", int64(len(generated)))
	return pipeline.Build(Sources(generated), cfg)
}

// CompileToSIR compiles every generated module to SIR under cfg, each against
// the other modules' interfaces — the corpus as the per-layer benchmarks and
// allocation-budget tests feed it to llir.FromSIR and the stages after it.
func CompileToSIR(generated []Module, cfg pipeline.Config) ([]*sir.Module, error) {
	srcs := Sources(generated)
	parsed := make([][]*frontend.File, len(srcs))
	for i, s := range srcs {
		var err error
		if parsed[i], err = pipeline.ParseSource(s); err != nil {
			return nil, fmt.Errorf("appgen: module %s: %w", s.Name, err)
		}
	}
	ix := frontend.NewImportsIndex(parsed...)
	sirs := make([]*sir.Module, len(srcs))
	for i, s := range srcs {
		var err error
		if sirs[i], err = pipeline.CompileToSIR(s, cfg, ix.For(i)); err != nil {
			return nil, fmt.Errorf("appgen: module %s: %w", s.Name, err)
		}
	}
	return sirs, nil
}

// LowerAndLink takes CompileToSIR's modules the rest of the way to the
// whole-program pipeline's merged module: llir.FromSIR and the per-function
// cleanup for each, then the IR link with both linker fixes. Every call
// builds a fresh module (function merging consumes its input).
func LowerAndLink(sirs []*sir.Module) (*llir.Module, error) {
	mods := make([]*llir.Module, len(sirs))
	for i, sm := range sirs {
		lm, err := llir.FromSIR(sm)
		if err != nil {
			return nil, err
		}
		for _, f := range lm.Funcs {
			llir.SimplifyCFG(f)
			llir.DCE(f)
		}
		mods[i] = lm
	}
	return irlink.Link(mods, irlink.Options{SplitGCMetadata: true, PreserveModuleOrder: true})
}
