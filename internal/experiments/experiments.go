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
	"outliner/internal/obs"
	"outliner/internal/perf"
	"outliner/internal/pipeline"
)

// Scale is the app-size knob every experiment takes; 1.0 is the full
// synthetic app (hundreds of functions), smaller values keep CI fast.
const DefaultScale = 0.6

// Parallelism is the worker bound handed to every pipeline build the
// experiments run (0 = one per CPU, 1 = fully serial); cmd/experiments'
// -j flag sets it. Results are byte-identical for every value — only the
// wall-clock numbers of the buildtime experiment change.
var Parallelism int

// Tracer, when set by cmd/experiments' -trace/-remarks/-summary flags, is
// handed to every pipeline build the experiments run; the driver writes the
// accumulated trace, remarks, and summary after all subcommands finish.
// Telemetry is strictly observational, so experiment results are identical
// with or without it.
var Tracer *obs.Tracer

// CacheDir, when set by cmd/experiments' -cache-dir flag, enables the
// incremental build cache for every pipeline build the experiments run.
// Caching changes only wall-clock time, never results — fig1's warm sweep
// asserts exactly that. The buildtime experiment zeroes it for its main
// rows (they measure the uncached pipelines) and measures the cache on a
// dedicated cold/warm axis instead.
var CacheDir string

// countingTracer returns the shared Tracer when telemetry was requested and
// otherwise a private full collector, so experiments that derive their tables
// from counters (fig12, buildtime) always have something to read.
func countingTracer() *obs.Tracer {
	if Tracer != nil {
		return Tracer
	}
	return obs.New()
}

// counterDelta returns after-before for every counter, dropping zero deltas.
// Experiments bracket a single build with Counters snapshots to scope the
// shared Tracer's cumulative counters to that build.
func counterDelta(before, after map[string]int64) map[string]int64 {
	out := map[string]int64{}
	for k, v := range after {
		if d := v - before[k]; d != 0 {
			out[k] = d
		}
	}
	return out
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

// buildBench compiles one single-module benchmark with the given outlining
// rounds (whole-program pipeline, as the artifact's run.sh does with llc).
func buildBench(name, text string, rounds int) (*pipeline.Result, error) {
	cfg := pipeline.OSize
	cfg.OutlineRounds = rounds
	cfg.Parallelism = Parallelism
	cfg.Tracer = Tracer
	cfg.CacheDir = CacheDir
	return pipeline.Build([]pipeline.Source{{Name: name, Files: map[string]string{name + ".sl": text}}}, cfg)
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

// buildApp builds an app profile with and without the paper's optimization.
func buildApp(p appgen.Profile, scale float64, optimized bool) (*pipeline.Result, error) {
	cfg := baselineConfig()
	if optimized {
		cfg = optimizedConfig()
	}
	return appgen.BuildApp(p, scale, cfg)
}

// buildAppCached is buildApp against an explicit cache directory (fig1's
// cold/warm sweeps use a private one when no -cache-dir was given).
func buildAppCached(p appgen.Profile, scale float64, optimized bool, cacheDir string) (*pipeline.Result, error) {
	cfg := baselineConfig()
	if optimized {
		cfg = optimizedConfig()
	}
	cfg.CacheDir = cacheDir
	return appgen.BuildApp(p, scale, cfg)
}

// baselineConfig is the default iOS pipeline with Swift 5.2 semantics:
// per-module compilation and one round of per-module outlining (-Osize).
func baselineConfig() pipeline.Config {
	return pipeline.Config{
		OutlineRounds:      1,
		SILOutline:         true,
		SpecializeClosures: true,
		Parallelism:        Parallelism,
		Tracer:             Tracer,
		CacheDir:           CacheDir,
	}
}

// optimizedConfig is the paper's production pipeline: whole program, five
// rounds of repeated machine outlining, both linker fixes.
func optimizedConfig() pipeline.Config {
	cfg := pipeline.OSize
	cfg.Parallelism = Parallelism
	cfg.Tracer = Tracer
	cfg.CacheDir = CacheDir
	return cfg
}

// noDedupConfig is the whole-program pipeline with every deduplication pass
// off: Table I's reference build, and the base the generality subjects are
// outlined from.
func noDedupConfig() pipeline.Config {
	return pipeline.Config{WholeProgram: true, SplitGCMetadata: true, PreserveDataLayout: true, Parallelism: Parallelism}
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

// Grid dimensions, exposed for tests.
func appgenSpans() int           { return appgen.UberRider.Spans }
func perfDevices() []perf.Device { return perf.Devices }
func perfOSes() []perf.OS        { return perf.OSes }
