// Command outline runs (repeated) machine outlining over a textual machine
// program — the analog of the paper artifact's `llc
// -outline-repeat-count=N` step (here -rounds N) applied to prebuilt bitcode.
//
// Usage:
//
//	outline -rounds 5 program.mir
//	outline -analyze program.mir
//
// Input is the textual MIR format (see internal/mir); output is the
// transformed program on stdout and a size report on stderr. The program goes
// through pipeline.BuildMIR — the post-link tail of every slc build — so
// `slc -rounds 0 -emit mir` piped through `outline -rounds N` prints what
// `slc -rounds N -emit mir` does.
package main

import (
	"flag"
	"fmt"
	"os"

	"outliner/internal/llir"
	"outliner/internal/mir"
	"outliner/internal/outline"
	"outliner/internal/pipeline"
	"outliner/internal/verify"
)

func main() {
	build := buildFlags(flag.CommandLine)
	analyze := flag.Bool("analyze", false, "print the repeating-pattern report instead of transforming")
	quiet := flag.Bool("q", false, "suppress the transformed program (stats only)")
	flag.Parse()
	cfg, err := build.Config()
	if err != nil {
		fatal(err)
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: outline [flags] program.mir")
		flag.Usage()
		os.Exit(2)
	}
	text, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	prog, err := mir.Parse(string(text))
	if err != nil {
		fatal(err)
	}
	if cfg.Verify {
		if err := verify.Program(prog, llir.RuntimeSyms).Err(); err != nil {
			fatal(fmt.Errorf("input: %w", err))
		}
	}

	if *analyze {
		pats := outline.Analyze(prog, outline.Options{})
		fmt.Fprintf(os.Stderr, "%d profitable repeating patterns\n", len(pats))
		for _, p := range pats {
			fmt.Println(p.Listing())
		}
		return
	}

	before := prog.CodeSize()
	res, err := pipeline.BuildMIR(prog, cfg)
	if err = build.Finish(err); err != nil {
		fatal(err)
	}
	if !*quiet {
		if _, err := res.Prog.WriteTo(os.Stdout); err != nil {
			fatal(err)
		}
	}
	after := res.Prog.CodeSize()
	fmt.Fprintf(os.Stderr, "code size: %d -> %d bytes (%.1f%% saving)\n",
		before, after, 100*(1-float64(after)/float64(before)))
	if res.Outline != nil {
		for _, r := range res.Outline.Rounds {
			fmt.Fprintf(os.Stderr, "  round %d: %d sequences, %d functions, %d outlined bytes\n",
				r.Round, r.SequencesOutlined, r.FunctionsCreated, r.OutlinedBytes)
		}
	}
}

// buildFlags registers outline's rows of the build-flag table over a base of
// five verified rounds with the abort policy.
func buildFlags(fs *flag.FlagSet) *pipeline.Flags {
	base := pipeline.Config{OutlineRounds: 5, Verify: true, OnVerifyFailure: outline.VerifyAbort}
	return pipeline.NewFlags(fs, base, "rounds", "flat-cost", "j", "trace", "remarks", "summary",
		"verify", "on-verify-failure", "fault-seed", "fault-rate", "layout", "profile-in")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "outline:", err)
	os.Exit(1)
}
