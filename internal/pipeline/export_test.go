package pipeline

// FrontLane is one frontend worker lane's storage; LowerToLLIR lowers a
// module on it (or on fresh storage when it is nil), as the frontend stage's
// tasks do.
type FrontLane = frontLane

var LowerToLLIR = lowerToLLIR

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
