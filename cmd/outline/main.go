// Command outline runs (repeated) machine outlining over a textual machine
// program — the analog of the paper artifact's `llc
// -outline-repeat-count=N` step applied to prebuilt bitcode.
//
// Usage:
//
//	outline -outline-repeat-count=5 program.mir
//	outline -analyze program.mir
//
// Input is the textual MIR format (see internal/mir); output is the
// transformed program on stdout and a size report on stderr. The program goes
// through pipeline.BuildMIR — the post-link tail of every slc build — so
// `slc -rounds 0 -emit mir` piped through `outline -outline-repeat-count N`
// prints what `slc -rounds N -emit mir` does.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"outliner/internal/fault"
	"outliner/internal/llir"
	"outliner/internal/mir"
	"outliner/internal/obs"
	"outliner/internal/outline"
	"outliner/internal/pipeline"
	"outliner/internal/profile"
	verifypkg "outliner/internal/verify"
)

func main() {
	var (
		rounds  = flag.Int("outline-repeat-count", 5, "rounds of repeated machine outlining")
		analyze = flag.Bool("analyze", false, "print the repeating-pattern report instead of transforming")
		flat    = flag.Bool("flat-cost", false, "ablation: flat outlining cost model")
		quiet   = flag.Bool("q", false, "suppress the transformed program (stats only)")
		jobs    = flag.Int("j", 0, "candidate-analysis workers (0 = one per CPU, 1 = serial); output is identical for any value")
		trace   = flag.String("trace", "", "write a Chrome trace-event JSON file (open in Perfetto or chrome://tracing)")
		remarks = flag.String("remarks", "", "write candidate decision remarks as JSONL")
		summary = flag.Bool("summary", false, "print per-round counters and stage times to stderr")
		verify  = flag.Bool("verify", true, "verify the input, every outlining round and the final image with the machine-code verifier")
		onvf    = flag.String("on-verify-failure", "abort", "verifier-failure policy: abort | rollback-round | disable-outlining")
		fSeed   = flag.Uint64("fault-seed", 0, "deterministic fault-injection schedule seed (used with -fault-rate)")
		fRate   = flag.Float64("fault-rate", 0, "fault-injection probability per outlining round (0 disables)")
		layoutP = flag.String("layout", "", "profile-guided function layout policy applied after outlining: none | c3 (needs -profile-in)")
		profIn  = flag.String("profile-in", "", "execution profile, or a comma-separated list of them merged in any order, feeding remark verdicts and the -layout pass")
	)
	flag.Parse()
	var prof *profile.Profile
	if *profIn != "" {
		p, perr := profile.ReadFiles(strings.Split(*profIn, ",")...)
		if perr != nil {
			fatal(perr)
		}
		prof = p
	}
	var inj *fault.Injector
	if *fRate > 0 {
		inj = fault.New(*fSeed, *fRate)
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
	if *verify {
		if err := prog.Verify(llir.RuntimeSyms); err != nil {
			fatal(fmt.Errorf("input: %w", err))
		}
		if err := verifypkg.Program(prog, llir.RuntimeSyms).Err(); err != nil {
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

	var tracer *obs.Tracer
	if *trace != "" || *remarks != "" || *summary {
		tracer = obs.NewWith(obs.Config{MemStats: true})
	}
	before := prog.CodeSize()
	res, err := pipeline.BuildMIR(prog, pipeline.Config{
		OutlineRounds:   *rounds,
		FlatOutlineCost: *flat,
		Verify:          *verify,
		Parallelism:     *jobs,
		Tracer:          tracer,
		OnVerifyFailure: *onvf,
		Fault:           inj,
		Profile:         prof,
		Layout:          *layoutP,
	})
	if err != nil {
		fatal(err)
	}
	if *trace != "" {
		if err := tracer.WriteTraceFile(*trace); err != nil {
			fatal(err)
		}
	}
	if *remarks != "" {
		if err := tracer.WriteRemarksFile(*remarks); err != nil {
			fatal(err)
		}
	}
	if *summary {
		if err := tracer.WriteSummary(os.Stderr); err != nil {
			fatal(err)
		}
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "outline:", err)
	os.Exit(1)
}
