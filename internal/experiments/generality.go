package experiments

import (
	"fmt"
	"io"

	"outliner/internal/appgen"
	"outliner/internal/pipeline"
)

// GeneralityRow is one subject of §VII-E.
type GeneralityRow struct {
	Subject   string
	BaseCode  int
	OptCode   int
	SavingPct float64
	PaperPct  string
}

// GeneralityResult covers the other-apps and non-iOS-programs experiments.
type GeneralityResult struct {
	Rows []GeneralityRow
}

// RunGenerality applies five rounds of whole-program repeated outlining to
// UberDriver- and UberEats-like apps, a clang-like corpus, and a kernel-like
// machine program.
func RunGenerality(w io.Writer, scale float64) (*GeneralityResult, error) {
	res := &GeneralityResult{}

	app := func(p appgen.Profile, paper string) error {
		mods := appgen.Generate(p, scale)
		base, err := build(baseline(), mods, nil)
		if err != nil {
			return fmt.Errorf("%s base: %w", p.Name, err)
		}
		opt, err := build(pipeline.OSize, mods, nil)
		if err != nil {
			return fmt.Errorf("%s opt: %w", p.Name, err)
		}
		res.Rows = append(res.Rows, GeneralityRow{
			Subject: p.Name, BaseCode: base.CodeSize(), OptCode: opt.CodeSize(),
			SavingPct: (1 - float64(opt.CodeSize())/float64(base.CodeSize())) * 100,
			PaperPct:  paper,
		})
		return nil
	}
	if err := app(appgen.UberRider, "23%"); err != nil {
		return nil, err
	}
	if err := app(appgen.UberDriver, "17%"); err != nil {
		return nil, err
	}
	if err := app(appgen.UberEats, "19%"); err != nil {
		return nil, err
	}

	// Clang-like corpus through the full pipeline.
	clangMods := appgen.GenerateClangLike(4242, int(14*scale)+4)
	cb, err := build(noDedup(), clangMods, nil)
	if err != nil {
		return nil, fmt.Errorf("clang-like base: %w", err)
	}
	co, err := build(pipeline.OSize, clangMods, nil)
	if err != nil {
		return nil, fmt.Errorf("clang-like opt: %w", err)
	}
	res.Rows = append(res.Rows, GeneralityRow{
		Subject: "clang-like", BaseCode: cb.CodeSize(), OptCode: co.CodeSize(),
		SavingPct: (1 - float64(co.CodeSize())/float64(cb.CodeSize())) * 100,
		PaperPct:  "25%",
	})

	// Kernel-like machine program: the post-link tail runs directly on MIR
	// (the artifact used prebuilt bitcode the same way).
	kb := appgen.GenerateKernelLike(777, int(220*scale)+40)
	baseSize := kb.CodeSize()
	kernel := noDedup()
	kernel.OutlineRounds, kernel.Verify = 5, true
	ko, err := build(kernel, nil, kb)
	if err != nil {
		return nil, fmt.Errorf("kernel-like outline: %w", err)
	}
	res.Rows = append(res.Rows, GeneralityRow{
		Subject: "kernel-like", BaseCode: baseSize, OptCode: ko.CodeSize(),
		SavingPct: (1 - float64(ko.CodeSize())/float64(baseSize)) * 100,
		PaperPct:  "14%",
	})

	fmt.Fprintln(w, "GENERALITY (§VII-E): five rounds of whole-program repeated outlining")
	fmt.Fprintln(w)
	rows := [][]string{{"subject", "base code", "outlined code", "saving", "paper"}}
	for _, r := range res.Rows {
		rows = append(rows, []string{
			r.Subject, fmt.Sprintf("%d", r.BaseCode), fmt.Sprintf("%d", r.OptCode),
			fmt.Sprintf("%.1f%%", r.SavingPct), r.PaperPct,
		})
	}
	table(w, rows)
	return res, nil
}
