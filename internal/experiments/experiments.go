// Package experiments regenerates every table and figure of the paper's
// evaluation (§VII) on the reproduction's substrate: the synthetic apps of
// internal/appgen, the SwiftLite benchmark suite under testdata/benchmarks,
// and the clang-like / kernel-like corpora. Each experiment returns a
// structured result and renders a text report; cmd/experiments exposes them
// as subcommands and bench_test.go as benchmarks.
//
// Absolute numbers differ from the paper (the substrate is a simulator and
// the app is synthetic); what must match is the shape: who wins, by roughly
// what factor, and where the curves bend. EXPERIMENTS.md records both sides.
package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"outliner/internal/appgen"
	"outliner/internal/exec"
	"outliner/internal/mir"
	"outliner/internal/perf"
	"outliner/internal/pipeline"
)

// Scale is the app-size knob every experiment takes; 1.0 is the full
// synthetic app (hundreds of functions), smaller values keep CI fast.
const DefaultScale = 0.6

// Driver is the configuration cmd/experiments parses from its -j, -trace,
// -remarks and -summary flags. build is its only reader, and takes from it
// the worker bound and the tracer alone. Neither changes a result: output is
// byte-identical at every -j, with or without telemetry.
var Driver pipeline.Config

// build runs one build of cfg: appgen.BuildGenerated (pipeline.Build) of
// mods, or, when mods is nil, pipeline.BuildMIR's post-link tail on prog.
// The build gets the driver's worker bound, and the driver's tracer when it
// gave one; otherwise it keeps cfg.Tracer, buildtime's private stage-timing
// tracer (nil elsewhere).
func build(cfg pipeline.Config, mods []appgen.Module, prog *mir.Program) (*pipeline.Result, error) {
	cfg.Parallelism = Driver.Parallelism
	if Driver.Tracer != nil {
		cfg.Tracer = Driver.Tracer
	}
	if mods == nil {
		return pipeline.BuildMIR(prog, cfg)
	}
	return appgen.BuildGenerated(mods, cfg)
}

// baseline is the default iOS pipeline the paper measures against:
// pipeline.Default with Swift 5.2's closure specialization.
func baseline() pipeline.Config {
	cfg := pipeline.Default
	cfg.SpecializeClosures = true
	return cfg
}

// oSize is the paper's production pipeline, pipeline.OSize, with the given
// number of outlining rounds.
func oSize(rounds int) pipeline.Config {
	cfg := pipeline.OSize
	cfg.OutlineRounds = rounds
	return cfg
}

// noDedup is pipeline.OSize with every deduplication pass off: Table I's
// reference build, and the base the generality subjects are outlined from.
func noDedup() pipeline.Config {
	cfg := oSize(0)
	cfg.SILOutline, cfg.SpecializeClosures, cfg.MergeFunctions = false, false, false
	return cfg
}

// BenchmarksDir locates testdata/benchmarks relative to the repo root.
func BenchmarksDir() string {
	for _, dir := range []string{"testdata/benchmarks", "../testdata/benchmarks", "../../testdata/benchmarks"} {
		if st, err := os.Stat(dir); err == nil && st.IsDir() {
			return dir
		}
	}
	return "testdata/benchmarks"
}

// LoadBenchmarks reads all .sl files in the benchmark suite.
func LoadBenchmarks() (map[string]string, error) {
	dir := BenchmarksDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("experiments: benchmark dir: %w", err)
	}
	out := make(map[string]string)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".sl") {
			continue
		}
		text, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		out[strings.TrimSuffix(e.Name(), ".sl")] = string(text)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiments: no benchmarks found in %s", dir)
	}
	return out, nil
}

// runOnDevice executes entry under the perf model and returns (output, perf
// result).
func runOnDevice(res *pipeline.Result, entry string, dev perf.Device, osm perf.OS, maxSteps int64) (string, perf.Result, error) {
	sim := perf.New(dev, osm)
	m, err := exec.New(res.Prog, exec.Options{MaxSteps: maxSteps, Trace: sim.Observe})
	if err != nil {
		return "", perf.Result{}, err
	}
	out, err := m.Run(entry)
	if err != nil {
		return out, perf.Result{}, err
	}
	return out, sim.Finish(), nil
}

// percent formats a fraction as a percentage string.
func percent(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }

// table renders rows of columns with aligned widths.
func table(w io.Writer, rows [][]string) {
	if len(rows) == 0 {
		return
	}
	widths := make([]int, len(rows[0]))
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for _, r := range rows {
		for i, c := range r {
			fmt.Fprintf(w, "%-*s", widths[i]+2, c)
		}
		fmt.Fprintln(w)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
