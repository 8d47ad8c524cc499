package main

import (
	"flag"
	"reflect"
	"testing"

	"outliner/internal/pipeline"
)

// TestBuildFlagDefaults pins the Config outline hands pipeline.BuildMIR.
func TestBuildFlagDefaults(t *testing.T) {
	for _, c := range []struct {
		args []string
		want pipeline.Config
	}{
		{nil, pipeline.Config{OutlineRounds: 5, Verify: true, OnVerifyFailure: "abort"}},
		{[]string{"-rounds", "2", "-flat-cost", "-j", "3", "-verify=false",
			"-on-verify-failure", "disable-outlining", "-layout", "c3"}, pipeline.Config{
			OutlineRounds: 2, FlatOutlineCost: true, Parallelism: 3,
			OnVerifyFailure: "disable-outlining", Layout: "c3",
		}},
	} {
		fs := flag.NewFlagSet("outline", flag.ContinueOnError)
		build := buildFlags(fs)
		if err := fs.Parse(c.args); err != nil {
			t.Fatal(err)
		}
		got, err := build.Config()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("outline %v:\n got %+v\nwant %+v", c.args, got, c.want)
		}
	}
}
