package main

import (
	"flag"
	"reflect"
	"testing"

	"outliner/internal/pipeline"
)

// TestBuildFlagDefaults pins the Config slc builds from its command line.
// The base is OSize with the verifier on, not OSize itself.
func TestBuildFlagDefaults(t *testing.T) {
	for _, c := range []struct {
		args []string
		want pipeline.Config
	}{
		{nil, pipeline.Config{
			WholeProgram: true, OutlineRounds: 5, SILOutline: true, SpecializeClosures: true,
			MergeFunctions: true, PreserveDataLayout: true, SplitGCMetadata: true, Verify: true,
			OnVerifyFailure: "abort", OutlineColdThreshold: 1,
		}},
		{[]string{"-whole-program=false", "-rounds", "1", "-cache-dir", "c", "-j", "2", "-flat-cost",
			"-verify=false", "-keep-going", "-on-verify-failure", "rollback-round", "-outline-cold-only",
			"-outline-cold-threshold", "3", "-layout", "c3"}, pipeline.Config{
			OutlineRounds: 1, SILOutline: true, SpecializeClosures: true, MergeFunctions: true,
			FlatOutlineCost: true, PreserveDataLayout: true, SplitGCMetadata: true, Parallelism: 2,
			CacheDir: "c", KeepGoing: true, OnVerifyFailure: "rollback-round", OutlineColdOnly: true,
			OutlineColdThreshold: 3, Layout: "c3",
		}},
	} {
		fs := flag.NewFlagSet("slc", flag.ContinueOnError)
		build := buildFlags(fs)
		if err := fs.Parse(c.args); err != nil {
			t.Fatal(err)
		}
		got, err := build.Config()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("slc %v:\n got %+v\nwant %+v", c.args, got, c.want)
		}
	}
}
