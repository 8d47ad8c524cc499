package experiments

import (
	"fmt"
	"io"

	"outliner/internal/appgen"
	"outliner/internal/clone"
	"outliner/internal/pipeline"
)

// Table1Row is one level of the binary-size-savings landscape.
type Table1Row struct {
	Level     string
	Technique string
	Against   string // the build the saving is measured against
	SavingPct float64
	Note      string
}

// Table1Result is the landscape table.
type Table1Result struct {
	Rows []Table1Row
}

// RunTable1 reproduces Table I: how much each abstraction level's
// deduplication technique saves on the app. Each pass is measured against
// noDedup(), a whole-program build with everything off, and machine
// outlining once more as the paper measured it: the shipped OSize pipeline
// against the default one, baseline(). The paper's numbers: AST <1%
// replication, SIL outlining 0.41%, MergeFunctions 0.9%, FMSA 2%, repeated
// machine outlining 23%.
func RunTable1(w io.Writer, scale float64) (*Table1Result, error) {
	res := &Table1Result{}
	mods := appgen.Generate(appgen.UberRider, scale)
	codeSize := func(cfg pipeline.Config) (float64, error) {
		r, err := build(cfg, mods, nil)
		if err != nil {
			return 0, err
		}
		return float64(r.CodeSize()), nil
	}

	// AST level: token-based clone detection (PMD analog) — a report, not a
	// transformation; we report the clone fraction it finds.
	cloneFrac, err := clone.DetectFraction(appgen.Sources(mods))
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, Table1Row{
		Level: "AST", Technique: "source clone detection (PMD-like)", Against: "source tokens",
		SavingPct: cloneFrac * 100,
		Note:      "replication found, not removed (paper: <1%)",
	})

	off := noDedup()
	silCfg, mergeCfg, fmsaCfg, isaCfg := off, off, off, off
	silCfg.SILOutline = true
	mergeCfg.MergeFunctions = true
	fmsaCfg.FMSA = true
	isaCfg.OutlineRounds = 5
	refs := map[string]pipeline.Config{"noDedup()": off, "baseline()": baseline()}
	refSize := map[string]float64{}
	for _, m := range []struct {
		level, technique, against string
		cfg                       pipeline.Config
		note                      string
	}{
		{"SIL", "SIL outlining", "noDedup()", silCfg, "paper: 0.41%"},
		{"LLVM-IR", "MergeFunctions (identical functions)", "noDedup()", mergeCfg, "paper: 0.9%"},
		{"LLVM-IR", "FMSA (identical + constant variants)", "noDedup()", fmsaCfg, "paper: 2%"},
		{"ISA", "repeated machine outlining (5 rounds)", "noDedup()", isaCfg, "paper: 23%, against baseline(): next row"},
		{"ISA", "OSize: whole program, 5 rounds", "baseline()", pipeline.OSize, "paper: 23%; generality's UberRider row"},
	} {
		ref, ok := refSize[m.against]
		if !ok {
			if ref, err = codeSize(refs[m.against]); err != nil {
				return nil, err
			}
			refSize[m.against] = ref
		}
		size, err := codeSize(m.cfg)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Table1Row{
			Level: m.level, Technique: m.technique, Against: m.against,
			SavingPct: (1 - size/ref) * 100, Note: m.note,
		})
	}

	fmt.Fprintln(w, "TABLE I: the landscape of binary-size savings by abstraction level")
	fmt.Fprintln(w, "(noDedup(): OSize with 0 outlining rounds, and with SIL outlining, closure")
	fmt.Fprintln(w, " specialization and MergeFunctions off; baseline(): the shipped default")
	fmt.Fprintln(w, " pipeline, per module with one outlining round and closure specialization)")
	fmt.Fprintln(w)
	rows := [][]string{{"Level", "Optimization", "against", "measured", "note"}}
	for _, r := range res.Rows {
		rows = append(rows, []string{r.Level, r.Technique, r.Against, fmt.Sprintf("%.2f%%", r.SavingPct), r.Note})
	}
	table(w, rows)
	return res, nil
}
