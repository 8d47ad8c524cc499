// Command reduce is the differential-testing driver: it generates a
// synthetic app, builds it at two points of the pipeline-configuration
// lattice, and — when the builds disagree — delta-debugs the program down
// to a minimal SwiftLite reproduction.
//
// Usage:
//
//	reduce [flags]
//
// Examples:
//
//	reduce -seed 1037 -scale 0.1                 # check baseline vs osize
//	reduce -point wp-flatcost -o repro/          # minimize into repro/*.sl
//	reduce -bits 0x2b                            # fuzz-style config corner
//	reduce -inject-miscompile                    # demo: corrupt an outlined
//	                                             # sequence, then minimize
//
// Exit status: 0 when the points agree (nothing to reduce), 1 when a
// divergence was found (the reproduction is written out), 2 on usage or
// build errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"outliner/internal/appgen"
	"outliner/internal/difftest"
	"outliner/internal/mir"
)

func main() {
	var (
		profileName = flag.String("profile", "uber-rider", "app profile: uber-rider | uber-driver | uber-eats")
		seed        = flag.Int64("seed", 1037, "app-generator seed")
		scale       = flag.Float64("scale", 0.1, "app scale (1.0 = the paper's base app)")
		spans       = flag.Int("spans", 2, "core-span entry points in the generated app")
		refName     = flag.String("ref", "baseline", "reference lattice point")
		ptName      = flag.String("point", "osize", "lattice point to compare against the reference")
		bits        = flag.Uint64("bits", 0, "instead of -point, derive the comparison config from these bits")
		maxSteps    = flag.Int64("max-steps", 100_000_000, "interpreter step budget per execution")
		attempts    = flag.Int("attempts", 2000, "reduction candidate budget")
		outDir      = flag.String("o", "", "write the minimized modules as <dir>/<Module>.sl (default: stdout)")
		inject      = flag.Bool("inject-miscompile", false, "corrupt one outlined sequence before executing (self-test/demo)")
		quiet       = flag.Bool("q", false, "suppress reduction progress on stderr")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: reduce [flags]")
		flag.Usage()
		os.Exit(2)
	}

	profile, ok := profiles()[*profileName]
	if !ok {
		fatal(fmt.Errorf("unknown profile %q", *profileName))
	}
	profile.Seed = *seed
	profile.Spans = *spans
	mods := appgen.Generate(profile, *scale)

	ref, ok := difftest.PointNamed(*refName)
	if !ok {
		fatal(fmt.Errorf("unknown lattice point %q", *refName))
	}
	var pt difftest.Point
	if flagSet("bits") {
		pt = difftest.PointFromBits(*bits)
	} else if pt, ok = difftest.PointNamed(*ptName); !ok {
		fatal(fmt.Errorf("unknown lattice point %q", *ptName))
	}
	pts := []difftest.Point{ref, pt}

	o := &difftest.Oracle{MaxSteps: *maxSteps}
	if *inject {
		// Pick an outlined constant whose corruption is observable.
		prog, err := o.Build(mods, pt)
		if err != nil {
			fatal(err)
		}
		found := false
		for _, imm := range difftest.OutlinedMOVZImms(prog) {
			imm := imm
			o.Corrupt = func(p *mir.Program) { difftest.CorruptOutlinedImm(p, imm) }
			if div, err := o.Check(mods, pts); err == nil && div != nil {
				fmt.Fprintf(os.Stderr, "reduce: injected corruption of outlined MOVZ #%d\n", imm)
				found = true
				break
			}
		}
		if !found {
			fatal(fmt.Errorf("no observable outlined corruption at %s", pt.Name))
		}
	}

	div, err := o.Check(mods, pts)
	if err != nil {
		fatal(err)
	}
	if div == nil {
		fmt.Printf("points %s and %s agree on %d modules (%d bytes); nothing to reduce\n",
			ref.Name, pt.Name, len(mods), difftest.Size(mods))
		return
	}
	fmt.Fprintf(os.Stderr, "reduce: %v\n", div)

	logf := func(format string, args ...any) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "reduce: "+format+"\n", args...)
		}
	}
	interesting := func(m []appgen.Module) bool {
		d, err := o.Check(m, pts)
		return err == nil && d != nil
	}
	red := difftest.Reduce(mods, interesting, difftest.ReduceOptions{
		MaxAttempts: *attempts,
		Log:         logf,
	})
	fmt.Fprintf(os.Stderr, "reduce: minimized %d -> %d bytes across %d module(s)\n",
		difftest.Size(mods), difftest.Size(red), len(red))

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
		for _, m := range red {
			var text string
			for _, fname := range sortedKeys(m.Files) {
				text += m.Files[fname]
			}
			path := filepath.Join(*outDir, m.Name+".sl")
			if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "reduce: wrote %s\n", path)
		}
	} else {
		for _, m := range red {
			fmt.Printf("// module %s\n", m.Name)
			for _, fname := range sortedKeys(m.Files) {
				fmt.Println(m.Files[fname])
			}
		}
	}
	os.Exit(1)
}

func profiles() map[string]appgen.Profile {
	return map[string]appgen.Profile{
		"uber-rider":  appgen.UberRider,
		"uber-driver": appgen.UberDriver,
		"uber-eats":   appgen.UberEats,
	}
}

func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "reduce:", err)
	os.Exit(2)
}
