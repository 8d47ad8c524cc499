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
	SavingPct float64
	Note      string
}

// Table1Result is the landscape table.
type Table1Result struct {
	Rows []Table1Row
}

// RunTable1 reproduces Table I: how much each abstraction level's
// deduplication technique saves on the app, measured against a
// whole-program build with everything off. The paper's numbers:
// AST <1% replication, SIL outlining 0.41%, MergeFunctions 0.9%, FMSA 2%,
// repeated machine outlining 23%.
func RunTable1(w io.Writer, scale float64) (*Table1Result, error) {
	res := &Table1Result{}

	// Reference build: whole-program pipeline, no dedup passes at all.
	mods := appgen.Generate(appgen.UberRider, scale)
	off := noDedup()
	ref, err := build(off, mods, nil)
	if err != nil {
		return nil, err
	}
	refSize := float64(ref.CodeSize())

	saving := func(cfg pipeline.Config) (float64, error) {
		r, err := build(cfg, mods, nil)
		if err != nil {
			return 0, err
		}
		return 1 - float64(r.CodeSize())/refSize, nil
	}

	// AST level: token-based clone detection (PMD analog) — a report, not a
	// transformation; we report the clone fraction it finds.
	cloneFrac, err := clone.DetectFraction(appgen.Sources(mods))
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, Table1Row{
		Level: "AST", Technique: "source clone detection (PMD-like)",
		SavingPct: cloneFrac * 100,
		Note:      "replication found, not removed (paper: <1%)",
	})

	silCfg := off
	silCfg.SILOutline = true
	s, err := saving(silCfg)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, Table1Row{
		Level: "SIL", Technique: "SIL outlining", SavingPct: s * 100,
		Note: "paper: 0.41%",
	})

	mergeCfg := off
	mergeCfg.MergeFunctions = true
	s, err = saving(mergeCfg)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, Table1Row{
		Level: "LLVM-IR", Technique: "MergeFunctions", SavingPct: s * 100,
		Note: "paper: 0.9%",
	})

	fmsaCfg := off
	fmsaCfg.FMSA = true
	s, err = saving(fmsaCfg)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, Table1Row{
		Level: "LLVM-IR", Technique: "FMSA (similar-function merging)", SavingPct: s * 100,
		Note: "paper: 2%",
	})

	isaCfg := off
	isaCfg.OutlineRounds = 5
	s, err = saving(isaCfg)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, Table1Row{
		Level: "ISA", Technique: "repeated machine outlining (5 rounds)", SavingPct: s * 100,
		Note: "paper: 23%; against the shipped default pipeline: generality's UberRider row",
	})

	fmt.Fprintln(w, "TABLE I: the landscape of binary-size savings by abstraction level")
	fmt.Fprintln(w, "(savings against noDedup(): OSize with 0 outlining rounds, and with SIL outlining,")
	fmt.Fprintln(w, " closure specialization and MergeFunctions off)")
	fmt.Fprintln(w)
	rows := [][]string{{"Level", "Optimization", "measured", "note"}}
	for _, r := range res.Rows {
		rows = append(rows, []string{r.Level, r.Technique, fmt.Sprintf("%.2f%%", r.SavingPct), r.Note})
	}
	table(w, rows)
	return res, nil
}
