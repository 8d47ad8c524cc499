package outline

import (
	"slices"

	"outliner/internal/mir"
	"outliner/internal/suffixtree"
)

// EachRound runs the round loop of Outline over prog without its verifier and
// telemetry, calling after once each round's rewrites are in place with the
// round's frontier (valid only during the call). It stops at the fixed point
// like Outline does.
func EachRound(prog *mir.Program, opts Options, after func(round int, frontier []int)) error {
	opts = opts.withDefaults()
	var sc scratch
	counter := 0
	for round := 1; round <= opts.Rounds; round++ {
		rs, _, err := outlineOnce(prog, opts, &counter, round, &sc)
		if err != nil {
			return err
		}
		after(round, sc.frontier)
		if rs.SequencesOutlined == 0 {
			break
		}
	}
	return nil
}

// GreedyTies builds the candidate sets of prog as a first round would, puts
// them in greedy order, and returns how many neighbours the order cannot tell
// apart, along with the number of sets.
func GreedyTies(prog *mir.Program, opts Options) (ties, total int, err error) {
	opts = opts.withDefaults()
	m, err := mapProgram(prog)
	if err != nil {
		return 0, 0, err
	}
	m.buildSums(spSensitiveFuncs(prog))
	live := make([]*mir.Liveness, len(prog.Funcs))
	mir.ComputeLivenessFuncs(prog, mir.DefaultExternLive, 1, live, func(int) bool { return true })
	liveness := func(fi int) *mir.Liveness { return live[fi] }
	var sets []*candSet
	var ls laneScratch
	suffixtree.New(m.str).ForEachRepeat(opts.MinLength, 2, func(r suffixtree.Repeat) {
		set, reject := buildSet(prog, m, r, liveness, nil, false, opts, &ls)
		if reject == "" {
			sets = append(sets, set)
		}
	})
	slices.SortFunc(sets, greedyOrder)
	for i := 1; i < len(sets); i++ {
		if greedyOrder(sets[i-1], sets[i]) == 0 {
			ties++
		}
	}
	return ties, len(sets), nil
}

// AnalyzeTies runs Analyze over prog and returns how many neighbouring
// patterns its order cannot tell apart, along with the number of patterns.
func AnalyzeTies(prog *mir.Program, opts Options) (ties, total int) {
	pats := Analyze(prog, opts)
	for i := 1; i < len(pats); i++ {
		if patternOrder(pats[i-1], pats[i]) == 0 {
			ties++
		}
	}
	return ties, len(pats)
}
