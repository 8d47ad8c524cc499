package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"outliner/internal/appgen"
	"outliner/internal/obs"
	"outliner/internal/pipeline"
)

// BuildTimeResult reproduces §VII-C: the default pipeline is fast; the
// whole-program pipeline pays for llvm-link + whole-program opt + llc; each
// extra outlining round adds progressively less. (The paper: 21 min default,
// 53 min new pipeline without outlining, 66 min with five rounds.) Each row
// is one build under the driver's -j; the benchmark (benchmark/run.sh) owns
// the repeated, paired timings.
type BuildTimeResult struct {
	DefaultDur  time.Duration
	WholeNoOut  time.Duration
	WholeRounds []time.Duration // index = rounds-1 (rounds 1..5)
	// Stages sums the obs stage spans of the no-outlining whole-program
	// build; Counters is the obs counter delta of the 5-round build (the
	// configuration the paper ships).
	Stages   map[string]time.Duration
	Counters map[string]int64
}

// RunBuildTime measures wall-clock build times on the synthetic app.
func RunBuildTime(w io.Writer, scale float64) (*BuildTimeResult, error) {
	res := &BuildTimeResult{}
	mods := appgen.Generate(appgen.UberRider, scale)
	// Stage times and counters are read back from the build's tracer, the
	// driver's or this private one.
	tr := obs.New()
	timeBuild := func(cfg pipeline.Config) (time.Duration, *pipeline.Result, map[string]int64, error) {
		cfg.Tracer = tr
		start := time.Now()
		r, counters, err := build(cfg, mods, nil)
		return time.Since(start), r, counters, err
	}

	var err error
	if res.DefaultDur, _, _, err = timeBuild(baseline()); err != nil {
		return nil, err
	}
	var noOut *pipeline.Result
	if res.WholeNoOut, noOut, _, err = timeBuild(oSize(0)); err != nil {
		return nil, err
	}
	res.Stages = noOut.Timings
	for rounds := 1; rounds <= 5; rounds++ {
		d, _, counters, err := timeBuild(oSize(rounds))
		if err != nil {
			return nil, err
		}
		res.WholeRounds = append(res.WholeRounds, d)
		res.Counters = counters
	}

	ms := func(d time.Duration) string { return d.Round(time.Millisecond).String() }
	fmt.Fprintln(w, "BUILD TIME (§VII-C): wall-clock on this machine, synthetic app, one build per row")
	fmt.Fprintln(w, "(paper shape: default << whole-program; rounds add diminishing time;")
	fmt.Fprintln(w, " repeated, paired timings: benchmark/run.sh, rows build_p50_s and par.speedup_j2)")
	fmt.Fprintln(w)
	rows := [][]string{
		{"configuration", "time"},
		{"default pipeline (per-module, 1 round)", ms(res.DefaultDur)},
		{"whole-program, no outlining", ms(res.WholeNoOut)},
	}
	for i, d := range res.WholeRounds {
		rows = append(rows, []string{fmt.Sprintf("whole-program, %d round(s)", i+1), ms(d)})
	}
	table(w, rows)
	fmt.Fprintln(w, "\nwhole-program stage breakdown (no outlining):")
	srows := [][]string{{"stage", "time"}}
	for _, k := range sortedKeys(res.Stages) {
		srows = append(srows, []string{k, ms(res.Stages[k])})
	}
	table(w, srows)
	fmt.Fprintln(w, "\npipeline counters (5 rounds; mem/* and per-round keys omitted):")
	crows := [][]string{{"counter", "value"}}
	for _, k := range sortedKeys(res.Counters) {
		if strings.HasPrefix(k, "mem/") || strings.HasPrefix(k, "outline/round") {
			continue
		}
		crows = append(crows, []string{k, fmt.Sprintf("%d", res.Counters[k])})
	}
	table(w, crows)
	return res, nil
}
