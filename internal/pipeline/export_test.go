package pipeline

import (
	"outliner/internal/llir"
	"outliner/internal/mir"
	"outliner/internal/outline"
)

// FrontLane is one frontend worker lane's storage; LowerToLLIR lowers a
// module on it (or on fresh storage when it is nil), as the frontend stage's
// tasks do.
type FrontLane = frontLane

var LowerToLLIR = lowerToLLIR

// BackLane is one per-module llc worker lane's storage; CompileModule
// generates code for a module and outlines it on the lane (or on fresh
// storage when it is nil), as the machine stage's tasks do, with extern as
// the symbols defined outside the module.
type BackLane = backLane

func CompileModule(lm *llir.Module, cfg Config, extern map[string]bool, lane *BackLane) (*mir.Program, *outline.Stats, error) {
	mc, err := compileModule(lm.Name, lm, &cfg, extern, 0, lane)
	if err != nil {
		return nil, nil, err
	}
	return mc.prog, mc.stats, nil
}

// ExternSyms is the machine stage's external symbol set for a build of mods:
// the runtime's and every module's definitions.
func ExternSyms(mods []*llir.Module) map[string]bool {
	units := make([]*lowered, len(mods))
	for i, m := range mods {
		units[i] = &lowered{name: m.Name, body: m}
	}
	return externSyms(units)
}

// Steps lists the stages a Build under cfg runs, in order — its cancel
// points — and whether each stores one cache entry per module.
func Steps(cfg Config) (names []string, cached []bool) {
	for _, list := range buildStages(cfg) {
		for _, s := range list {
			if s.skip == nil || !s.skip(cfg) {
				names = append(names, s.name)
				cached = append(cached, s.cache != "")
			}
		}
	}
	return names, cached
}

// KeyConfigs renders, for each cached stage, the Key.Config a build under cfg
// stores its artifacts with.
func KeyConfigs(cfg Config) map[string]string {
	out := map[string]string{}
	for _, list := range [][]stage{frontHalf, wholeProgram, perModule, postLink} {
		for _, s := range list {
			if s.cache != "" {
				out[s.cache] = keyConfig(s.reads(cfg))
			}
		}
	}
	return out
}

// ScoreLayout is the image stage's layout scoring: the four layout/*_before
// and *_after page counters, set on tr.
var ScoreLayout = scoreLayout
