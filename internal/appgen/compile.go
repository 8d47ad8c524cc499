package appgen

import (
	"outliner/internal/pipeline"
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
