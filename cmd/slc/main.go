// Command slc is the SwiftLite compiler driver: it compiles .sl files
// through the whole pipeline (frontend → SIR → LLIR → machine code), with
// the paper's knobs exposed as flags, and can run the result on the
// simulated machine.
//
// Usage:
//
//	slc [flags] file.sl [file2.sl ...]
//
// Each input file becomes its own module (its base name is the module name),
// mirroring the multi-module structure of a real app.
//
// Examples:
//
//	slc -run prog.sl                      # compile + execute
//	slc -rounds 5 -emit mir prog.sl       # outlined machine code to stdout
//	slc -rounds 0 -size prog.sl           # size report without outlining
//	slc -profile-in app.prof -layout c3 prog.sl  # profile-guided function layout
//	slc -profile-in a.prof,b.prof -layout c3 prog.sl  # shards merged, any order
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"text/tabwriter"

	"outliner/internal/exec"
	"outliner/internal/frontend"
	"outliner/internal/outline"
	"outliner/internal/perf"
	"outliner/internal/pipeline"
	"outliner/internal/profile"
)

func main() {
	build := buildFlags(flag.CommandLine)
	var (
		emit     = flag.String("emit", "", "emit an artifact to stdout: sir | llir | mir | sizes | patterns")
		run      = flag.Bool("run", false, "execute main after compiling")
		entry    = flag.String("entry", "main", "entry function for -run")
		maxSteps = flag.Int64("max-steps", 500_000_000, "interpreter step limit for -run")
		outFile  = flag.String("o", "", "write a deterministic image listing to this file (byte-comparable across builds)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the build to this file (go tool pprof)")
		memProf  = flag.String("memprofile", "", "write an end-of-build heap profile to this file (go tool pprof)")
		profOut  = flag.String("profile-out", "", "with -run: write the instrumented run's execution profile (canonical JSON, mergeable across runs) to this file")
	)
	flag.Parse()
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: slc [flags] file.sl ...")
		flag.Usage()
		os.Exit(2)
	}

	var sources []pipeline.Source
	for _, path := range flag.Args() {
		text, err := os.ReadFile(path)
		if err != nil {
			fatal(err)
		}
		name := strings.TrimSuffix(filepath.Base(path), ".sl")
		sources = append(sources, pipeline.Source{
			Name:  name,
			Files: map[string]string{filepath.Base(path): string(text)},
		})
	}

	cfg, err := build.Config()
	if err != nil {
		fatal(err)
	}
	res, err := pipeline.Build(sources, cfg)
	if err != nil {
		fatal(build.Finish(err))
	}
	// The telemetry the flags asked for is written on the way out, so it
	// holds the run's counters too; fail writes it before a failure exits.
	defer func() {
		if err := build.Finish(nil); err != nil {
			fatal(err)
		}
	}()
	fail := func(err error) { fatal(build.Finish(err)) }
	if build.Summary() && res.Outline != nil {
		writeRounds(os.Stderr, res.Outline.Rounds)
	}
	if prof := cfg.Profile; build.Summary() && prof != nil {
		fmt.Fprintln(os.Stderr)
		if err := profile.WriteHotReport(os.Stderr, prof, 10, cfg.OutlineColdThreshold); err != nil {
			fail(err)
		}
		// Report the layout metric at every device page size (4 KiB and
		// 16 KiB in the current grid), with a before/after pair when the
		// layout pass reordered the program.
		if res.PreLayoutImage != nil {
			fmt.Fprintf(os.Stderr, "before %s layout:\n", res.Layout.Policy)
			for _, pt := range perf.PageTouchSizes(res.PreLayoutImage, prof) {
				fmt.Fprint(os.Stderr, perf.FormatPageTouch(pt))
			}
			fmt.Fprintf(os.Stderr, "after %s layout (%d functions moved, %d clusters):\n",
				res.Layout.Policy, res.Layout.Moved, res.Layout.Clusters)
		}
		for _, pt := range perf.PageTouchSizes(res.Image, prof) {
			fmt.Fprint(os.Stderr, perf.FormatPageTouch(pt))
		}
	}
	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			fail(err)
		}
		if err := res.WriteImageListing(f); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
	}

	switch *emit {
	case "sir", "llir":
		// IR-stage dumps compile each module on its own (IR is a per-module
		// artifact before the link) against one index of every module's
		// interface, as the build does; llir is what the build links.
		parsed := make([][]*frontend.File, len(sources))
		for i, src := range sources {
			if parsed[i], err = pipeline.ParseSource(src); err != nil {
				fail(err)
			}
		}
		ix := frontend.NewImportsIndex(parsed...)
		for i, src := range sources {
			var ir fmt.Stringer
			if *emit == "sir" {
				ir, err = pipeline.CompileToSIR(src, cfg, ix.For(i))
			} else {
				ir, err = pipeline.CompileToLLIR(src, cfg, ix.For(i))
			}
			if err != nil {
				fail(err)
			}
			fmt.Print(ir.String())
		}
	case "mir":
		if _, err := res.Prog.WriteTo(os.Stdout); err != nil {
			fail(err)
		}
	case "sizes":
		fmt.Println(res.Image.Summary())
		for _, s := range res.Image.LargestCodeSymbols(15) {
			fmt.Printf("  %8d  %s\n", s.Size, s.Name)
		}
	case "patterns":
		pats := outline.Analyze(res.Prog, outline.Options{})
		for i, p := range pats {
			if i >= 20 {
				fmt.Printf("... and %d more patterns\n", len(pats)-20)
				break
			}
			fmt.Println(p.Listing())
		}
	case "":
	default:
		fail(fmt.Errorf("unknown -emit kind %q", *emit))
	}

	if !*run {
		if *emit == "" {
			fmt.Fprintln(os.Stderr, res.Image.Summary())
		}
		return
	}
	var col *profile.Collector
	if *profOut != "" {
		col = profile.NewCollector()
	}
	m, err := exec.New(res.Prog, exec.Options{MaxSteps: *maxSteps, Profile: col})
	if err != nil {
		fail(err)
	}
	out, err := m.Run(*entry)
	fmt.Print(out)
	st := m.Stats()
	st.EmitCounters(cfg.Tracer)
	if err != nil {
		fail(err)
	}
	if col != nil {
		p := col.Profile()
		if err := p.WriteFile(*profOut); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "wrote execution profile %s (digest %s, %d functions)\n",
			*profOut, p.Digest(), len(p.Funcs))
	}
	fmt.Fprintf(os.Stderr, "executed %d instructions (%d calls, %.2f%% in outlined functions)\n",
		st.DynamicInsts, st.Calls, 100*float64(st.OutlinedInsts)/float64(st.DynamicInsts))
}

// writeRounds prints the build's outlining rounds, whole-program or summed
// over modules, as -summary's per-round table.
func writeRounds(w io.Writer, rounds []outline.RoundStats) {
	fmt.Fprintln(w, "\noutlining rounds:")
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "  round\tsequences\tfunctions\toutlined bytes\tbytes saved")
	for _, r := range rounds {
		fmt.Fprintf(tw, "  %d\t%d\t%d\t%d\t%d\n",
			r.Round, r.SequencesOutlined, r.FunctionsCreated, r.OutlinedBytes, r.BytesSaved)
	}
	tw.Flush()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "slc:", err)
	os.Exit(1)
}

// buildFlags registers slc's rows of the build-flag table. The base is OSize
// with the verifier on and the abort policy.
func buildFlags(fs *flag.FlagSet) *pipeline.Flags {
	base := pipeline.OSize
	base.Verify, base.OnVerifyFailure = true, outline.VerifyAbort
	return pipeline.NewFlags(fs, base, "rounds", "whole-program", "flat-cost", "j", "trace", "remarks",
		"summary", "verify", "cache-dir", "counters", "keep-going", "on-verify-failure", "fault-seed",
		"fault-rate", "profile-in", "outline-cold-threshold", "layout", "deadline")
}
