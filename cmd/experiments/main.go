// Command experiments regenerates the paper's tables and figures on the
// reproduction's substrate.
//
// Usage:
//
//	experiments [flags] <experiment> [more experiments | all]
//
// Experiments:
//
//	fig1        code-size growth over time, both pipelines, fitted slopes
//	table1      savings landscape by abstraction level
//	patterns    Figures 5-8 + Listings: machine-code replication analysis
//	fig12       size vs outlining rounds, inter- vs intra-module; Table II
//	fig13       span time ratios per device and span; Table III
//	table4      the 26-benchmark performance suite (+ pathological case)
//	buildtime   wall-clock build time by configuration (§VII-C)
//	generality  UberDriver/UberEats/clang-like/kernel-like (§VII-E)
//	datalayout  the llvm-link data-ordering regression (§VI-3)
//	all         everything above
package main

import (
	"flag"
	"fmt"
	"os"

	"outliner/internal/experiments"
	"outliner/internal/pipeline"
)

func main() {
	build := pipeline.NewFlags(flag.CommandLine, pipeline.Config{}, "j", "trace", "remarks", "summary")
	scale := flag.Float64("scale", experiments.DefaultScale, "app scale (1.0 = full synthetic app)")
	flag.Parse()
	var err error
	if experiments.Driver, err = build.Config(); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	runners := map[string]func() error{
		"fig1": func() error {
			_, err := experiments.RunFig1(os.Stdout, 8, *scale+0.4)
			return err
		},
		"table1": func() error {
			_, err := experiments.RunTable1(os.Stdout, *scale)
			return err
		},
		"patterns": func() error {
			_, err := experiments.RunPatterns(os.Stdout, *scale)
			return err
		},
		"fig12": func() error {
			_, err := experiments.RunFig12(os.Stdout, *scale, 6)
			return err
		},
		"fig13": func() error {
			_, err := experiments.RunFig13(os.Stdout, *scale)
			return err
		},
		"table4": func() error {
			if _, err := experiments.RunTable4(os.Stdout); err != nil {
				return err
			}
			_, err := experiments.RunPathological(os.Stdout)
			return err
		},
		"buildtime": func() error {
			_, err := experiments.RunBuildTime(os.Stdout, *scale)
			return err
		},
		"generality": func() error {
			_, err := experiments.RunGenerality(os.Stdout, *scale)
			return err
		},
		"datalayout": func() error {
			_, err := experiments.RunDataLayout(os.Stdout, *scale)
			return err
		},
	}
	order := []string{"fig1", "table1", "patterns", "fig12", "fig13",
		"table4", "buildtime", "generality", "datalayout"}

	if len(args) == 1 && args[0] == "all" {
		args = order
	}
	for i, name := range args {
		run, ok := runners[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n", name)
			os.Exit(2)
		}
		if i > 0 {
			fmt.Print("\n================================================================\n\n")
		}
		if err = run(); err != nil {
			err = fmt.Errorf("%s: %w", name, err)
			break
		}
	}
	if err = build.Finish(err); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}
