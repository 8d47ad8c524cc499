package experiments

import (
	"fmt"
	"io"
	"sort"

	"outliner/internal/appgen"
	"outliner/internal/outline"
	"outliner/internal/stats"
)

// PatternsResult covers the binary-analysis figures of §IV: the repetition
// frequency power law (Fig 5), the rank/length fractal view (Fig 6), the
// cumulative savings curve (Fig 7), the length histogram (Fig 8), and the
// top patterns as listings.
type PatternsResult struct {
	Patterns     []outline.Pattern
	PowerFit     stats.PowerFit
	Cumulative   []int
	NeedFor90Pct int
	LengthHist   map[int]int
	LongestLen   int
	LongestCount int
}

// RunPatterns builds the app (whole-program, no outlining) and runs the
// statistics-collection pass over the final machine code.
func RunPatterns(w io.Writer, scale float64) (*PatternsResult, error) {
	// The configuration the paper's statistics pass observes: the
	// whole-program build with outlining off.
	res, err := build(oSize(0), appgen.Generate(appgen.UberRider, scale), nil)
	if err != nil {
		return nil, err
	}
	pats := outline.Analyze(res.Prog, outline.Options{})
	if len(pats) == 0 {
		return nil, fmt.Errorf("patterns: nothing repeats — generator broken?")
	}
	out := &PatternsResult{Patterns: pats}

	// Fig 5: rank vs count in log-log space.
	var xs, ys []float64
	for i, p := range pats {
		xs = append(xs, float64(i+1))
		ys = append(ys, float64(p.Count))
	}
	out.PowerFit = stats.PowerLaw(xs, ys)

	// Fig 7: cumulative savings by profit-sorted patterns.
	out.Cumulative = outline.CumulativeSavings(pats)
	total := out.Cumulative[len(out.Cumulative)-1]
	for i, c := range out.Cumulative {
		if float64(c) >= 0.9*float64(total) {
			out.NeedFor90Pct = i + 1
			break
		}
	}

	// Fig 8: candidates per sequence length; the longest pattern.
	out.LengthHist = outline.LengthHistogram(pats)
	for _, p := range pats {
		if p.Length > out.LongestLen {
			out.LongestLen = p.Length
			out.LongestCount = p.Count
		}
	}

	fmt.Fprintln(w, "FIGURES 5-8: machine-code replication patterns (statistics pass)")
	fmt.Fprintf(w, "\npatterns found: %d\n", len(pats))
	fmt.Fprintf(w, "Fig 5 power law: count ≈ %.1f · rank^%.2f  (log-log R² = %.3f; paper: 99.4%% confidence)\n",
		out.PowerFit.A, out.PowerFit.B, out.PowerFit.R2)
	fmt.Fprintf(w, "Fig 7: %d patterns needed for 90%% of the possible saving (paper: >100)\n", out.NeedFor90Pct)
	fmt.Fprintf(w, "Fig 8: longest pattern is %d instructions repeating %d times (paper: 279 x3)\n",
		out.LongestLen, out.LongestCount)

	fmt.Fprintln(w, "\nFig 8 histogram (sequence length -> candidates):")
	lengths := make([]int, 0, len(out.LengthHist))
	for l := range out.LengthHist {
		lengths = append(lengths, l)
	}
	sort.Ints(lengths)
	rows := [][]string{{"len", "candidates"}}
	for _, l := range lengths {
		rows = append(rows, []string{fmt.Sprintf("%d", l), fmt.Sprintf("%d", out.LengthHist[l])})
	}
	table(w, rows)

	fmt.Fprintln(w, "\nTop repeating patterns (the paper's Listings 1-8):")
	for i, p := range pats {
		if i >= 6 {
			break
		}
		fmt.Fprintf(w, "\nListing %d:\n%s", i+1, p.Listing())
	}

	// Fig 6's qualitative claim: short patterns dominate the high-frequency
	// end; length diversity grows toward the tail.
	headMax, tailMax := 0, 0
	for i, p := range pats {
		if i < len(pats)/10 {
			if p.Length > headMax {
				headMax = p.Length
			}
		} else if p.Length > tailMax {
			tailMax = p.Length
		}
	}
	fmt.Fprintf(w, "\nFig 6: max length among top-decile patterns %d vs tail %d (tail should be larger)\n",
		headMax, tailMax)
	return out, nil
}
