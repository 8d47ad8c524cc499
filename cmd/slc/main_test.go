package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"outliner/internal/frontend"
	"outliner/internal/pipeline"
)

// TestMain runs slc's main instead of the tests when SLC_TEST_MAIN is set, so
// a test can drive the command end to end through its own binary.
func TestMain(m *testing.M) {
	if os.Getenv("SLC_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

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
			OnVerifyFailure: "abort",
		}},
		{[]string{"-whole-program=false", "-rounds", "1", "-cache-dir", "c", "-j", "2", "-flat-cost",
			"-verify=false", "-keep-going", "-on-verify-failure", "rollback-round",
			"-outline-cold-threshold", "3", "-layout", "c3"}, pipeline.Config{
			OutlineRounds: 1, SILOutline: true, SpecializeClosures: true, MergeFunctions: true,
			FlatOutlineCost: true, PreserveDataLayout: true, SplitGCMetadata: true, Parallelism: 2,
			CacheDir: "c", KeepGoing: true, OnVerifyFailure: "rollback-round",
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

// -emit llir prints, module by module, the LLIR the build links: each
// module's CompileToLLIR output — SimplifyCFG and DCE run, verified — against
// the interfaces of all the others.
func TestEmitLLIRIsWhatTheBuildLinks(t *testing.T) {
	srcs := []pipeline.Source{
		{Name: "lib", Files: map[string]string{"lib.sl": `
func clamp(x: Int) -> Int {
  var y = x * 3
  if x > 100 {
    return 100
  }
  return x
}
`}},
		{Name: "app", Files: map[string]string{"app.sl": `
func main() {
  var unused = clamp(x: 7) + 1
  print(clamp(x: 250))
}
`}},
	}
	dir := t.TempDir()
	var args []string
	for _, s := range srcs {
		for name, text := range s.Files {
			path := filepath.Join(dir, name)
			if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
				t.Fatal(err)
			}
			args = append(args, path)
		}
	}
	cmd := exec.Command(os.Args[0], append([]string{"-emit", "llir"}, args...)...)
	cmd.Env = append(os.Environ(), "SLC_TEST_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	got, err := cmd.Output()
	if err != nil {
		t.Fatalf("slc -emit llir: %v\n%s", err, stderr.String())
	}

	cfg, err := buildFlags(flag.NewFlagSet("slc", flag.ContinueOnError)).Config()
	if err != nil {
		t.Fatal(err)
	}
	parsed := make([][]*frontend.File, len(srcs))
	for i, s := range srcs {
		if parsed[i], err = pipeline.ParseSource(s); err != nil {
			t.Fatal(err)
		}
	}
	ix := frontend.NewImportsIndex(parsed...)
	var want strings.Builder
	for i, s := range srcs {
		lm, err := pipeline.CompileToLLIR(s, cfg, ix.For(i))
		if err != nil {
			t.Fatal(err)
		}
		want.WriteString(lm.String())
	}
	if string(got) != want.String() {
		t.Fatalf("slc -emit llir:\n%s\nwant the linked modules' LLIR:\n%s", got, want.String())
	}
}

// -run's exec/* counters reach -counters: the telemetry is written after the
// run, and a failed build still writes it.
func TestRunCountersReachTelemetry(t *testing.T) {
	dir := t.TempDir()
	slc := func(args ...string) (string, error) {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "SLC_TEST_MAIN=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		_, err := cmd.Output()
		return stderr.String(), err
	}
	counters := func(path string) map[string]int64 {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var c map[string]int64
		if err := json.Unmarshal(data, &c); err != nil {
			t.Fatal(err)
		}
		return c
	}

	ran := filepath.Join(dir, "run.json")
	stderr, err := slc("-run", "-counters", ran, "-summary", "../../testdata/benchmarks/bfs.sl")
	if err != nil {
		t.Fatalf("slc -run: %v\n%s", err, stderr)
	}
	var steps int64
	if _, err := fmt.Sscanf(stderr[strings.Index(stderr, "executed "):], "executed %d instructions", &steps); err != nil {
		t.Fatalf("no executed-instructions line: %v\n%s", err, stderr)
	}
	if got := counters(ran)["exec/steps"]; got != steps {
		t.Errorf("exec/steps = %d, the run executed %d instructions", got, steps)
	}
	if !strings.Contains(stderr, "exec/steps") {
		t.Error("-summary does not show exec/steps")
	}

	bad := filepath.Join(dir, "bad.sl")
	if err := os.WriteFile(bad, []byte("func main( {\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	failed := filepath.Join(dir, "failed.json")
	if _, err := slc("-run", "-counters", failed, bad); err == nil {
		t.Fatal("slc built a source that does not parse")
	}
	if got := counters(failed)["frontend/modules_parsed"]; got != 1 {
		t.Errorf("the failed build's frontend/modules_parsed = %d, want 1", got)
	}
}

// -summary prints the build's outlining rounds from its result, per-module
// builds included; the counters carry no per-round copy of them.
func TestSummaryPrintsRounds(t *testing.T) {
	counters := filepath.Join(t.TempDir(), "c.json")
	cmd := exec.Command(os.Args[0], "-whole-program=false", "-rounds", "2", "-summary",
		"-counters", counters, "../../testdata/benchmarks/json.sl")
	cmd.Env = append(os.Environ(), "SLC_TEST_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if _, err := cmd.Output(); err != nil {
		t.Fatalf("slc -summary: %v\n%s", err, stderr.String())
	}
	if !regexp.MustCompile(`outlining rounds:\n.*\n  1 +[1-9]`).MatchString(stderr.String()) {
		t.Errorf("-summary prints no round table with a non-zero round-1 row:\n%s", stderr.String())
	}
	data, err := os.ReadFile(counters)
	if err != nil {
		t.Fatal(err)
	}
	var c map[string]int64
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	perRound := regexp.MustCompile(`^outline/round[0-9]`)
	for name := range c {
		if perRound.MatchString(name) {
			t.Errorf("counter %s: round statistics are the build's result, not counters", name)
		}
	}
}
