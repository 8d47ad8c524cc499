// Package difftest is the repo's differential-testing engine: it compiles
// the same program under a lattice of pipeline configurations, executes
// every build, and requires semantic agreement. Any miscompilation anywhere
// in the stack — frontend, SIL passes, IR linking, codegen, or any number
// of outlining rounds — surfaces as a Divergence between two lattice points.
//
// The package generalizes what the pipeline's differential test did inline:
//
//   - Lattice: named pipeline.Config points ordered by aggressiveness, from
//     the per-module no-outlining baseline up to the paper's full -Osize
//     whole-program configuration plus the §VIII extensions.
//   - Oracle: builds and runs a program at each point and classifies
//     disagreements (build failure, output mismatch, trap mismatch, step
//     budget divergence). Step-budget exhaustion on the reference build is
//     inconclusive, never a failure.
//   - Reduce: a delta-debugging reducer that shrinks a divergent program to
//     a locally-minimal SwiftLite reproduction by dropping whole modules,
//     then top-level declarations, then brace-balanced statement groups,
//     re-checking the oracle after every candidate.
//
// FuzzFrontend and FuzzPipeline (in this package's test files) feed both
// ends: random bytes through the frontend, and random appgen seeds times
// config bits through the oracle. cmd/reduce wraps Reduce as a CLI.
package difftest

import (
	"errors"
	"fmt"

	"outliner/internal/fault"
	"outliner/internal/layout"
	"outliner/internal/par"
	"outliner/internal/pipeline"
	"outliner/internal/verify"
)

// Point is one named configuration in the lattice. Rank orders points by
// aggressiveness: a higher rank enables at least as many transformations.
type Point struct {
	Name   string
	Rank   int
	Config pipeline.Config
}

// Lattice returns the standard comparison points in aggressiveness order.
// The first point is the reference: the default per-module pipeline with no
// outlining at all. Every point has Verify forced on, so the machine
// verifier gates each build before the oracle ever executes it.
func Lattice() []Point {
	pts := []Point{
		{Name: "baseline", Config: pipeline.Config{}},
		{Name: "default-osize", Config: pipeline.Default},
		{Name: "wp-1round", Config: pipeline.Config{
			WholeProgram: true, OutlineRounds: 1,
			SplitGCMetadata: true, PreserveDataLayout: true}},
		{Name: "wp-flatcost", Config: pipeline.Config{
			WholeProgram: true, OutlineRounds: 5, FlatOutlineCost: true,
			SplitGCMetadata: true}},
		{Name: "wp-merge-fmsa", Config: pipeline.Config{
			WholeProgram: true, OutlineRounds: 4, MergeFunctions: true,
			FMSA: true, SILOutline: true, SpecializeClosures: true,
			SplitGCMetadata: true}},
		{Name: "osize", Config: pipeline.OSize},
		{Name: "osize-cold-only", Config: coldOnly(pipeline.OSize)},
		{Name: "osize-layout-c3", Config: withLayout(pipeline.OSize, layout.C3)},
		{Name: "wp-extensions", Config: pipeline.Config{
			WholeProgram: true, OutlineRounds: 5, Layout: layout.Outlined,
			SILOutline: true, SpecializeClosures: true, SplitGCMetadata: true}},
	}
	for i := range pts {
		pts[i].Rank = i
		pts[i].Config.Verify = true
	}
	return pts
}

// SmokeLattice returns the three cheapest representative points — the
// baseline, the default per-module -Osize pipeline, and the full
// whole-program -Osize pipeline — for always-on smoke testing.
func SmokeLattice() []Point {
	all := Lattice()
	return []Point{all[0], pointNamed(all, "default-osize"), pointNamed(all, "osize")}
}

// coldOnly arms profile-guided cold-only outlining on a copy of cfg. The
// profile itself is left nil: the Oracle collects one on its reference run
// and injects it (see Check), so the gate reflects the program actually
// under test rather than a canned profile.
func coldOnly(cfg pipeline.Config) pipeline.Config {
	cfg.OutlineColdThreshold = 1
	return cfg
}

// withLayout arms a function-layout policy on a copy of cfg — the lattice's
// layout axis. Like coldOnly, a profile-guided policy's profile is left nil
// for the Oracle to inject from its instrumented reference run, so the
// reordering under test is driven by the program's real dynamic call edges.
func withLayout(cfg pipeline.Config, policy string) pipeline.Config {
	cfg.Layout = policy
	return cfg
}

func pointNamed(pts []Point, name string) Point {
	for _, p := range pts {
		if p.Name == name {
			return p
		}
	}
	panic("difftest: no lattice point named " + name)
}

// PointNamed looks up a standard lattice point by name.
func PointNamed(name string) (Point, bool) {
	for _, p := range Lattice() {
		if p.Name == name {
			return p, true
		}
	}
	return Point{}, false
}

// FaultPoint arms deterministic fault injection on a copy of pt — the
// lattice's fault axis. A faulted point may fail its build, but only with a
// structured diagnostic (StructuredBuildFailure); a build that succeeds
// under injection must still agree with the clean reference, because a
// tolerated fault costs time, never correctness.
func FaultPoint(pt Point, seed uint64, rate float64) Point {
	pt.Name = fmt.Sprintf("%s+fault(%d@%g)", pt.Name, seed, rate)
	pt.Config.Fault = fault.New(seed, rate)
	return pt
}

// StructuredBuildFailure reports whether a faulted build's error is one of
// the diagnostics fault tolerance guarantees: a recovered worker panic, a
// verifier rejection, or a surfaced injected fault — alone or inside a
// keep-going aggregate.
func StructuredBuildFailure(err error) bool {
	var pe *par.PanicError
	var ve *verify.Error
	return errors.As(err, &pe) || errors.As(err, &ve) || fault.IsInjected(err)
}

// PointFromBits derives a configuration from fuzzed bits, so the pipeline
// fuzzer explores config corners the named lattice does not enumerate.
// SplitGCMetadata is forced on for whole-program builds: mixed
// Swift/Objective-C programs are documented (§VI-2) not to link without it,
// so its absence is a known limitation rather than a miscompile.
func PointFromBits(bits uint64) Point {
	cfg := pipeline.Config{
		WholeProgram:       bits&1 != 0,
		OutlineRounds:      int(bits>>1) & 3,
		SILOutline:         bits&(1<<3) != 0,
		SpecializeClosures: bits&(1<<4) != 0,
		MergeFunctions:     bits&(1<<5) != 0,
		FMSA:               bits&(1<<6) != 0,
		FlatOutlineCost:    bits&(1<<7) != 0,
		PreserveDataLayout: bits&(1<<8) != 0,
		Verify:             true,
	}
	cfg.SplitGCMetadata = cfg.WholeProgram
	if bits&(1<<11) != 0 {
		cfg = coldOnly(cfg)
	}
	// Bit 10 picks the outlined-function layout, unless bits 12–13 pick c3
	// (2). Bit 9 and bits 12–13's 1 are reserved — no-ops, so committed
	// corpora that set them still decode.
	switch {
	case (bits>>12)&3 == 2:
		cfg = withLayout(cfg, layout.C3)
	case bits&(1<<10) != 0:
		cfg = withLayout(cfg, layout.Outlined)
	}
	return Point{Name: fmt.Sprintf("bits-%#x", bits), Rank: 1, Config: cfg}
}
