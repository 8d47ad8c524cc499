// Command benchmark is the toolchain's one benchmark: four workloads, the
// end-to-end metrics in BENCHMARK.json measured with tracing off, and a
// per-layer ledger from a separate traced run. README.md has the tables.
//
//	benchmark -workload pm-edit [-seed N] [-seconds S] [-trace 1]   one run, one JSON row
//	benchmark -all [-runs K] > set.json                             every workload, K runs each
//	benchmark -compare [-same-code] a.json b.json                   judge two sets
//	benchmark -update-golden                                        re-record golden/
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: wp-release, pm-cold, pm-edit or svc-edit")
	flag.Int64Var(&o.seed, "seed", pinnedCorpusSeed, "seed of the edit stream the program is fed")
	flag.Float64Var(&o.seconds, "seconds", 15, "how long the timed ops run")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
	flag.IntVar(&o.ops, "ops", 0, "run this many timed ops per client instead of -seconds")
	flag.IntVar(&o.modules, "modules", 0, "corpus size instead of the workload's own (476 is the paper's)")
	flag.Int64Var(&o.corpusSeed, "corpus-seed", pinnedCorpusSeed, "generate another corpus; its reference output is then built at run time")
	flag.StringVar(&o.out, "out", "benchmark/out", "directory for traces and scratch files")
	all := flag.Bool("all", false, "run every workload in child processes and print one set")
	runs := flag.Int("runs", 1, "with -all: runs per workload, run k seeded -seed+k")
	compare := flag.Bool("compare", false, "compare two sets written by -all")
	sameCode := flag.Bool("same-code", false, "with -compare: both sets are one commit, so exact counts must be identical")
	golden := flag.Bool("update-golden", false, "re-record benchmark/golden from the reference configuration")
	flag.Parse()
	o.trace = trace != 0

	var err error
	switch {
	case *golden:
		err = updateGolden("benchmark/golden", []int{bigCorpus, serviceCorpus, testCorpus})
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two set files")
			break
		}
		var ok bool
		if ok, err = compareSets(os.Stdout, flag.Arg(0), flag.Arg(1), *sameCode); err == nil && !ok {
			os.Exit(1)
		}
	case *all:
		err = runAll(o, *runs)
	default:
		var res *result
		if res, err = runWorkload(o); err != nil {
			break
		}
		if err = json.NewEncoder(os.Stdout).Encode(res); err == nil && (!res.Correct || res.Failed > 0) {
			os.Exit(1)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
}
