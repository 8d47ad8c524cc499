package outline

import "outliner/internal/mir"

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
	var sc scratch
	repeats, err := sc.findRepeats(prog, nil)
	if err != nil {
		return 0, 0, err
	}
	sets, _ := analyzeRepeats(prog, repeats, opts.withDefaults(), 1, &sc)
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

// LRBits renders, for every function of prog in order, whether LR is live
// after each of its instructions as the outliner's mapping holds it: '1' or
// '0' per instruction, '\n' per function.
func LRBits(prog *mir.Program) []byte {
	var m mapping
	if err := m.remap(prog); err != nil {
		panic(err)
	}
	m.buildLR(prog)
	var out []byte
	p := 0
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			for range b.Insts {
				bit := byte('0')
				if m.lr[p] {
					bit = '1'
				}
				out = append(out, bit)
				p++
			}
			p++ // the block's sentinel
		}
		out = append(out, '\n')
	}
	return out
}
