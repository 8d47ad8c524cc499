package experiments

import (
	"fmt"
	"io"

	"outliner/internal/appgen"
	"outliner/internal/obs"
	"outliner/internal/outline"
)

// Fig12Point is one configuration of the rounds sweep.
type Fig12Point struct {
	Rounds      int
	InterBinary int
	InterCode   int
	IntraBinary int
	IntraCode   int
}

// Fig12Result reproduces Figure 12 (binary and code size vs rounds of
// outlining, inter- vs intra-module) and Table II (per-round outlining
// statistics for the whole-program configuration).
type Fig12Result struct {
	Points []Fig12Point
	// Table II cumulative statistics after rounds 1..5 (whole program),
	// derived from the outliner's obs.RoundCounter counter stream.
	Table2 []outline.RoundStats
}

// RunFig12 sweeps outline rounds 0..maxRounds for both pipelines.
func RunFig12(w io.Writer, scale float64, maxRounds int) (*Fig12Result, error) {
	res := &Fig12Result{}
	mods := appgen.Generate(appgen.UberRider, scale)
	for rounds := 0; rounds <= maxRounds; rounds++ {
		inter := oSize(rounds)
		intra := inter
		intra.WholeProgram = false
		if rounds == 5 {
			// Table II is derived from the obs counter stream the outliner
			// emits (obs.RoundCounter), not from the pipeline's private
			// Stats struct, so this build always has a tracer to count into.
			inter.Tracer = obs.New()
		}
		interRes, counters, err := build(inter, mods, nil)
		if err != nil {
			return nil, fmt.Errorf("fig12 inter rounds=%d: %w", rounds, err)
		}
		if rounds == 5 {
			ran := int(counters["outline/rounds"])
			cum := outline.RoundStats{}
			for r := 1; r <= ran; r++ {
				cum.SequencesOutlined += int(counters[obs.RoundCounter(r, obs.RoundSequences)])
				cum.FunctionsCreated += int(counters[obs.RoundCounter(r, obs.RoundFunctions)])
				cum.OutlinedBytes += int(counters[obs.RoundCounter(r, obs.RoundOutlinedBytes)])
				cum.BytesSaved += int(counters[obs.RoundCounter(r, obs.RoundBytesSaved)])
				c := cum
				c.Round = r
				res.Table2 = append(res.Table2, c)
			}
		}
		intraRes, _, err := build(intra, mods, nil)
		if err != nil {
			return nil, fmt.Errorf("fig12 intra rounds=%d: %w", rounds, err)
		}
		res.Points = append(res.Points, Fig12Point{
			Rounds:      rounds,
			InterBinary: interRes.BinarySize(), InterCode: interRes.CodeSize(),
			IntraBinary: intraRes.BinarySize(), IntraCode: intraRes.CodeSize(),
		})
	}

	fmt.Fprintln(w, "FIGURE 12: size vs rounds of machine outlining, inter- vs intra-module")
	fmt.Fprintln(w, "(paper: inter-module wins clearly; gains plateau ~3 rounds, none past 5)")
	fmt.Fprintln(w)
	rows := [][]string{{"rounds", "inter binary", "inter code", "intra binary", "intra code"}}
	for _, p := range res.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Rounds),
			fmt.Sprintf("%d", p.InterBinary), fmt.Sprintf("%d", p.InterCode),
			fmt.Sprintf("%d", p.IntraBinary), fmt.Sprintf("%d", p.IntraCode),
		})
	}
	table(w, rows)

	base := res.Points[0]
	last := res.Points[len(res.Points)-1]
	fmt.Fprintf(w, "\nwhole-program code saving at max rounds: %s (paper: 22.8%%)\n",
		percent(1-float64(last.InterCode)/float64(base.InterCode)))
	fmt.Fprintf(w, "intra-module code saving at max rounds:   %s (paper: ~12%%; 13.7%% worse than inter)\n",
		percent(1-float64(last.IntraCode)/float64(base.IntraCode)))

	if len(res.Table2) > 0 {
		fmt.Fprintln(w, "\nTABLE II: outlining statistics at different levels of repeats (cumulative)")
		rows := [][]string{{"metric \\ rounds", "1", "2", "3", "4", "5"}}
		seq := []string{"# sequences outlined"}
		fns := []string{"# functions created"}
		bytes := []string{"bytes of outlined functions"}
		saved := []string{"net bytes saved"}
		for _, c := range res.Table2 {
			seq = append(seq, fmt.Sprintf("%d", c.SequencesOutlined))
			fns = append(fns, fmt.Sprintf("%d", c.FunctionsCreated))
			bytes = append(bytes, fmt.Sprintf("%d", c.OutlinedBytes))
			saved = append(saved, fmt.Sprintf("%d", c.BytesSaved))
		}
		rows = append(rows, seq, fns, bytes, saved)
		table(w, rows)
	}
	return res, nil
}
