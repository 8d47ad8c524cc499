package outline

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"outliner/internal/isa"
	"outliner/internal/mir"
)

// Pattern is one unique repeated machine-code sequence, in the paper's
// terminology (§IV): "pattern" is the unique sequence, "candidates" are its
// instances. Produced by Analyze — the statistics-collection pass the paper
// inserts after machine-code generation to log repetitions.
type Pattern struct {
	Seq      []isa.Inst
	Length   int // instructions
	SeqBytes int
	Count    int // non-overlapping candidates in the whole program
	Benefit  int // bytes saved if this pattern alone were outlined
	Funcs    []string
	first    int // position of the first occurrence in the flattened program
}

// Analyze logs every repeated, profitably-outlinable pattern in the program,
// sorted by repetition frequency high-to-low (the ordering of the paper's
// Figure 5). The program is not modified. The patterns are a first
// outlining round's candidate sets, with every occurrence counted: Analyze
// gates nothing on a profile. A program too large for the outliner to
// address (see checkLocRange) has no loggable patterns.
func Analyze(prog *mir.Program, opts Options) []Pattern {
	opts = opts.withDefaults()
	opts.Tracer, opts.ColdThreshold = nil, 0
	var sc scratch
	repeats, err := sc.findRepeats(prog, nil)
	if err != nil || len(repeats) == 0 {
		return nil
	}
	sets, _ := analyzeRepeats(prog, repeats, opts, 1, &sc)
	m := &sc.m
	var patterns []Pattern
	for _, set := range sets {
		pat := Pattern{
			Seq:      slices.Clone(m.instsAt(prog, int(set.at), int(set.length))),
			Length:   int(set.length),
			SeqBytes: int(set.seqBytes),
			Count:    len(set.cands),
			Benefit:  set.benefit(),
			first:    int(set.at),
		}
		const maxFuncs = 4
		for _, c := range set.cands {
			if len(pat.Funcs) >= maxFuncs {
				break
			}
			pat.Funcs = append(pat.Funcs, prog.Funcs[m.locs[c.start].fn].Name)
		}
		patterns = append(patterns, pat)
	}
	slices.SortFunc(patterns, patternOrder)
	return patterns
}

// patternOrder sorts patterns by count, benefit and length, all descending,
// then by first occurrence. The last key makes the order total — one length
// at one position is one repeat — so Analyze's output does not depend on the
// order the finder reports repeats in.
func patternOrder(a, b Pattern) int {
	return cmp.Or(cmp.Compare(b.Count, a.Count), cmp.Compare(b.Benefit, a.Benefit),
		cmp.Compare(b.Length, a.Length), cmp.Compare(a.first, b.first))
}

// Listing renders the pattern like the paper's Listings 1-8.
func (p Pattern) Listing() string {
	var b strings.Builder
	fmt.Fprintf(&b, "; repeats %d times, %d instructions, saves %d bytes if outlined\n",
		p.Count, p.Length, p.Benefit)
	for _, in := range p.Seq {
		fmt.Fprintf(&b, "  %s\n", in)
	}
	return b.String()
}

// CumulativeSavings returns, for patterns sorted by per-pattern benefit
// (descending), the running total of bytes saved — the paper's Figure 7.
// The estimate treats patterns independently.
func CumulativeSavings(patterns []Pattern) []int {
	byBenefit := append([]Pattern(nil), patterns...)
	sort.SliceStable(byBenefit, func(i, j int) bool { return byBenefit[i].Benefit > byBenefit[j].Benefit })
	out := make([]int, len(byBenefit))
	total := 0
	for i, p := range byBenefit {
		total += p.Benefit
		out[i] = total
	}
	return out
}

// LengthHistogram counts candidates (pattern instances) per sequence length —
// the paper's Figure 8.
func LengthHistogram(patterns []Pattern) map[int]int {
	h := make(map[int]int)
	for _, p := range patterns {
		h[p.Length] += p.Count
	}
	return h
}
