package experiments

import (
	"fmt"
	"io"
	"sort"

	"outliner/internal/appgen"
	"outliner/internal/perf"
	"outliner/internal/pipeline"
	"outliner/internal/stats"
)

// Table4Row is one benchmark's result: the performance overhead of five
// rounds of machine outlining relative to the unoutlined build (negative =
// speedup), plus the size effect ("inconsequential" for these small
// programs, per the paper).
type Table4Row struct {
	Benchmark     string
	BaseCycles    float64
	OutCycles     float64
	OverheadPct   float64
	SizeSavingPct float64
	OutputsMatch  bool
}

// Table4Result is the whole suite.
type Table4Result struct {
	Rows       []Table4Row
	AvgPct     float64
	MaxPct     float64
	MaxName    string
	Mismatches int
}

// RunTable4 reproduces Table IV: the 26 Swift benchmarks compiled with and
// without five rounds of outlining, timed under the cycle model. The
// pathological loop case (§VII-E's 8.67% anecdote) is RunPathological.
func RunTable4(w io.Writer) (*Table4Result, error) {
	benches, err := LoadBenchmarks()
	if err != nil {
		return nil, err
	}
	dev, osm := perf.Devices[3], perf.OSes[2] // iPhoneX / 13.5.1
	res := &Table4Result{}
	const maxSteps = 200_000_000

	for _, name := range sortedKeys(benches) {
		mods := benchModule(name, benches[name])
		base, _, err := build(oSize(0), mods, nil)
		if err != nil {
			return nil, fmt.Errorf("%s (base): %w", name, err)
		}
		opt, _, err := build(pipeline.OSize, mods, nil)
		if err != nil {
			return nil, fmt.Errorf("%s (outlined): %w", name, err)
		}
		baseOut, basePerf, err := runOnDevice(base, "main", dev, osm, maxSteps)
		if err != nil {
			return nil, fmt.Errorf("%s (base run): %w", name, err)
		}
		optOut, optPerf, err := runOnDevice(opt, "main", dev, osm, maxSteps)
		if err != nil {
			return nil, fmt.Errorf("%s (outlined run): %w", name, err)
		}
		row := Table4Row{
			Benchmark:     name,
			BaseCycles:    basePerf.Cycles,
			OutCycles:     optPerf.Cycles,
			OverheadPct:   (optPerf.Cycles/basePerf.Cycles - 1) * 100,
			SizeSavingPct: (1 - float64(opt.CodeSize())/float64(base.CodeSize())) * 100,
			OutputsMatch:  baseOut == optOut,
		}
		if !row.OutputsMatch {
			res.Mismatches++
		}
		res.Rows = append(res.Rows, row)
	}

	var overheads []float64
	for _, r := range res.Rows {
		overheads = append(overheads, r.OverheadPct)
		if r.OverheadPct > res.MaxPct {
			res.MaxPct = r.OverheadPct
			res.MaxName = r.Benchmark
		}
	}
	res.AvgPct = stats.Mean(overheads)

	fmt.Fprintln(w, "TABLE IV: performance overhead of five rounds of machine outlining")
	fmt.Fprintln(w, "(paper: avg ~1.6-1.8%, worst Dijkstra 10.81%, several speedups)")
	fmt.Fprintln(w)
	rows := [][]string{{"Benchmark", "%overhead", "size saving", "outputs"}}
	byOverhead := append([]Table4Row(nil), res.Rows...)
	sort.Slice(byOverhead, func(i, j int) bool { return byOverhead[i].Benchmark < byOverhead[j].Benchmark })
	for _, r := range byOverhead {
		match := "ok"
		if !r.OutputsMatch {
			match = "MISMATCH"
		}
		rows = append(rows, []string{
			r.Benchmark,
			fmt.Sprintf("%+.2f", r.OverheadPct),
			fmt.Sprintf("%.1f%%", r.SizeSavingPct),
			match,
		})
	}
	table(w, rows)
	fmt.Fprintf(w, "\nAverage overhead: %+.2f%%  (worst: %s %+.2f%%)\n",
		res.AvgPct, res.MaxName, res.MaxPct)
	return res, nil
}

// RunPathological reproduces the §VII-E anecdote: a long-running loop whose
// tiny body is outlined; the call overhead shows but stays bounded because
// outlined branches predict well.
func RunPathological(w io.Writer) (float64, error) {
	src := `
func work(a: Int, b: Int) -> Int {
  var acc = a
  var i = 0
  while i < 400000 {
    acc = acc + b
    acc = acc % 888883
    acc = acc + b
    acc = acc % 888883
    i = i + 1
  }
  return acc
}
func main() { print(work(a: 1, b: 31)) }
`
	// Force outlining of the loop body with an aggressive config: replicate
	// the body shape in sibling functions so the pattern repeats.
	multi := src + `
func work2(a: Int, b: Int) -> Int {
  var acc = a
  var i = 0
  while i < 3 {
    acc = acc + b
    acc = acc % 888883
    acc = acc + b
    acc = acc % 888883
    i = i + 1
  }
  return acc
}
func work3(a: Int, b: Int) -> Int {
  var acc = a
  var i = 0
  while i < 3 {
    acc = acc + b
    acc = acc % 888883
    acc = acc + b
    acc = acc % 888883
    i = i + 1
  }
  return acc
}
`
	mods := benchModule("patho", multi)
	baseM, _, err := build(oSize(0), mods, nil)
	if err != nil {
		return 0, err
	}
	optM, _, err := build(pipeline.OSize, mods, nil)
	if err != nil {
		return 0, err
	}
	dev, osm := perf.Devices[3], perf.OSes[2]
	outA, basePerf, err := runOnDevice(baseM, "main", dev, osm, 500_000_000)
	if err != nil {
		return 0, err
	}
	outB, optPerf, err := runOnDevice(optM, "main", dev, osm, 500_000_000)
	if err != nil {
		return 0, err
	}
	if outA != outB {
		return 0, fmt.Errorf("pathological case outputs differ")
	}
	slow := (optPerf.Cycles/basePerf.Cycles - 1) * 100
	fmt.Fprintf(w, "Pathological hot-loop outlining: %+.2f%% slowdown (paper: 8.67%%)\n", slow)
	return slow, nil
}

// benchModule is a single-module benchmark program; the suite compiles it
// whole-program, as the artifact's run.sh does with llc.
func benchModule(name, text string) []appgen.Module {
	return []appgen.Module{{Name: name, Files: map[string]string{name + ".sl": text}}}
}
