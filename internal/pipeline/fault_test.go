package pipeline_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"outliner/internal/appgen"
	"outliner/internal/fault"
	"outliner/internal/obs"
	"outliner/internal/outline"
	"outliner/internal/par"
	"outliner/internal/pipeline"
	"outliner/internal/verify"
)

// chaosSources is the soak's tiny three-module app (shared with the
// parallel-determinism tests).
func chaosSources() []pipeline.Source {
	return []pipeline.Source{
		{Name: "app", Files: map[string]string{"app.sl": srcApp}},
		{Name: "models", Files: map[string]string{"models.sl": srcModels}},
		{Name: "vendor", Files: map[string]string{"vendor.sl": srcVendor}},
	}
}

// structuredFailure reports whether err is one of the diagnostics fault
// tolerance guarantees: a recovered worker panic, a verifier rejection, or a
// surfaced injected fault — alone or inside a keep-going aggregate (whose
// Unwrap []error the errors package traverses).
func structuredFailure(err error) bool {
	var pe *par.PanicError
	var ve *verify.Error
	return errors.As(err, &pe) || errors.As(err, &ve) || fault.IsInjected(err)
}

// TestChaosSoak is the fault-injection soak: many seeded builds of the same
// program, each under a different deterministic fault schedule. Every build
// must either fail with a structured diagnostic or produce a byte-identical
// image to the clean build — a fault may cost time (a retry, a rebuild, a
// cache miss) but never correctness, and a crash is always a bug.
//
// CHAOS_BUILDS overrides the seed count (CI's nightly sweep raises it);
// divergent seeds are written to CHAOS_ARTIFACT_DIR when set.
func TestChaosSoak(t *testing.T) {
	builds := 200
	if testing.Short() {
		builds = 40
	}
	if s := os.Getenv("CHAOS_BUILDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("CHAOS_BUILDS=%q: %v", s, err)
		}
		builds = n
	}

	sources := chaosSources()
	base := pipeline.Default
	base.OutlineRounds = 2
	base.SpecializeClosures = true
	base.Verify = true

	clean, err := pipeline.Build(sources, base)
	if err != nil {
		t.Fatalf("clean reference build failed: %v", err)
	}
	refProg := clean.Prog.String()

	cacheDir := t.TempDir()
	var failed, identical int
	for seed := 0; seed < builds; seed++ {
		cfg := base
		cfg.Parallelism = seed%4 + 1
		cfg.CacheDir = cacheDir
		cfg.Fault = fault.New(uint64(seed)+1, 0.04)
		res, err := pipeline.Build(sources, cfg)
		if err != nil {
			if !structuredFailure(err) {
				t.Errorf("seed %d: unstructured failure: %v", seed, err)
			}
			failed++
			continue
		}
		if got := res.Prog.String(); got != refProg || !reflect.DeepEqual(res.Image, clean.Image) {
			reportDivergence(t, seed, refProg, res.Prog.String())
			continue
		}
		identical++
	}
	t.Logf("chaos soak: %d builds, %d failed structured, %d byte-identical", builds, failed, identical)
	if builds >= 40 && (failed == 0 || identical == 0) {
		t.Errorf("soak did not exercise both outcomes: %d failed, %d identical of %d",
			failed, identical, builds)
	}
}

func reportDivergence(t *testing.T, seed int, want, got string) {
	t.Helper()
	t.Errorf("seed %d: build succeeded but image diverged from the clean build", seed)
	dir := os.Getenv("CHAOS_ARTIFACT_DIR")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("artifact dir: %v", err)
		return
	}
	body := fmt.Sprintf("chaos divergence, seed %d\n\n--- clean ---\n%s\n--- seed %d ---\n%s\n",
		seed, want, seed, got)
	path := filepath.Join(dir, fmt.Sprintf("chaos-seed-%d.txt", seed))
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Logf("artifact write: %v", err)
	}
}

// TestInjectedWorkerPanicIsIsolated: a panic injected into a pool worker —
// a frontend module task, a function of the whole-program opt loop, a
// function in codegen, a default-pipeline llc module task — surfaces as an
// error carrying a structured *par.PanicError — stage, task index, injected
// site — instead of crashing the process, and the recovery is visible on the
// build's counters. Worker keys name the stage, so one module's fault point
// in one stage never fires in another.
func TestInjectedWorkerPanicIsIsolated(t *testing.T) {
	for _, tc := range []struct {
		cfg   pipeline.Config
		at    fault.At
		stage string
		index int // -1: any (function order is the linker's business)
	}{
		{pipeline.OSize, fault.At{Site: fault.WorkerTask, Key: "frontend models", Kind: fault.PanicKind}, "frontend", 1},
		{pipeline.OSize, fault.At{Site: fault.WorkerTask, Key: "opt main", Kind: fault.PanicKind}, "opt", -1},
		{pipeline.OSize, fault.At{Site: fault.CodegenFunc, Key: "main", Kind: fault.PanicKind}, "llc", -1},
		{pipeline.Default, fault.At{Site: fault.WorkerTask, Key: "llc models", Kind: fault.PanicKind}, "llc", 1},
	} {
		for _, jobs := range []int{1, 4} {
			tr := obs.New()
			cfg := tc.cfg
			cfg.Tracer = tr
			cfg.Parallelism = jobs
			cfg.Fault = fault.Exact(tc.at)
			_, err := pipeline.Build(chaosSources(), cfg)
			var pe *par.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("%s -j %d: got %v, want an error chain carrying *par.PanicError", tc.stage, jobs, err)
			}
			if pe.Stage != tc.stage || tc.index >= 0 && pe.Index != tc.index {
				t.Errorf("%s -j %d: panic attributed to stage %q task %d, want task %d (-1: any)", tc.stage, jobs, pe.Stage, pe.Index, tc.index)
			}
			fp, ok := pe.Value.(*fault.Panic)
			if !ok || fp.Site != tc.at.Site || fp.Key != tc.at.Key {
				t.Errorf("%s -j %d: recovered value %v, want the injected *fault.Panic", tc.stage, jobs, pe.Value)
			}
			c := tr.Counters()
			if c["fault/recovered_panics"] == 0 {
				t.Errorf("%s -j %d: fault/recovered_panics counter not incremented", tc.stage, jobs)
			}
			if n := c["fault/"+string(tc.at.Site)]; n != 1 {
				t.Errorf("%s -j %d: fault/%s = %d, want 1 (mirrored from the injector)", tc.stage, jobs, tc.at.Site, n)
			}
		}
	}
}

// TestKeepGoingReportsEveryModule: with KeepGoing, a build with two broken
// modules reports both failures in one *BuildErrors; without it, the build
// stops at the lowest-index failure.
func TestKeepGoingReportsEveryModule(t *testing.T) {
	sources := []pipeline.Source{
		{Name: "alpha", Files: map[string]string{"a.sl": "func okA() -> Int { return 1 }\n"}},
		{Name: "beta", Files: map[string]string{"b.sl": "func badB() -> Int { return missingB(1) }\n"}},
		{Name: "gamma", Files: map[string]string{"c.sl": "func badC() -> Int { return missingC(2) }\n"}},
	}
	tr := obs.New()
	cfg := pipeline.Default
	cfg.KeepGoing = true
	cfg.Tracer = tr
	_, err := pipeline.Build(sources, cfg)
	var be *pipeline.BuildErrors
	if !errors.As(err, &be) {
		t.Fatalf("got %v, want *pipeline.BuildErrors", err)
	}
	if len(be.Errs) != 2 {
		t.Fatalf("keep-going reported %d failures, want 2: %v", len(be.Errs), be.Errs)
	}
	for i, name := range []string{"beta", "gamma"} {
		if got := be.Errs[i].Error(); !contains(got, name) {
			t.Errorf("error %d does not name module %s: %s", i, name, got)
		}
	}
	if n := tr.Counters()["build/keep_going_errors"]; n != 2 {
		t.Errorf("build/keep_going_errors = %d, want 2", n)
	}

	cfg.KeepGoing = false
	cfg.Tracer = nil
	_, err = pipeline.Build(sources, cfg)
	if err == nil || errors.As(err, &be) && len(be.Errs) > 1 {
		t.Fatalf("first-error mode returned %v, want a single lowest-index failure", err)
	}
	if !contains(err.Error(), "beta") {
		t.Errorf("first-error mode should fail on beta (lowest index): %v", err)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestPipelineRollbackMatchesLowerRoundBuild is the end-to-end graceful
// degradation check: corrupting whole-program outlining round 2 under
// rollback-round yields exactly the image a clean 1-round build produces,
// with the rollback visible in counters and remarks.
func TestPipelineRollbackMatchesLowerRoundBuild(t *testing.T) {
	cfg2 := pipeline.OSize
	cfg2.OutlineRounds = 2
	probe, err := appgen.BuildApp(appgen.UberRider, 0.3, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if len(probe.Outline.Rounds) < 2 || probe.Outline.Rounds[1].FunctionsCreated == 0 {
		t.Fatalf("precondition: round 2 must create functions, got %+v", probe.Outline.Rounds)
	}

	cfg1 := pipeline.OSize
	cfg1.OutlineRounds = 1
	clean, err := appgen.BuildApp(appgen.UberRider, 0.3, cfg1)
	if err != nil {
		t.Fatal(err)
	}

	tr := obs.New()
	bad := cfg2
	bad.Verify = true
	bad.OnVerifyFailure = outline.VerifyRollbackRound
	bad.Fault = fault.Exact(fault.At{Site: fault.OutlineRound, Key: "/round:2", Kind: fault.CorruptKind})
	bad.Tracer = tr
	got, err := appgen.BuildApp(appgen.UberRider, 0.3, bad)
	if err != nil {
		t.Fatalf("rollback build failed: %v", err)
	}
	if got.Prog.String() != clean.Prog.String() || !reflect.DeepEqual(got.Image, clean.Image) {
		t.Error("rolled-back build does not match the clean 1-round build")
	}
	if len(got.Outline.Rounds) != 1 {
		t.Errorf("stats kept %d rounds, want 1", len(got.Outline.Rounds))
	}
	c := tr.Counters()
	if c["outline/rounds_rolled_back"] != 1 {
		t.Errorf("outline/rounds_rolled_back = %d, want 1", c["outline/rounds_rolled_back"])
	}
	if c["fault/outline/round"] != 1 {
		t.Errorf("fault/outline/round = %d, want 1 (mirrored injection count)", c["fault/outline/round"])
	}
	found := false
	for _, r := range tr.Remarks() {
		if r.Status == "rolled-back" && r.Round == 2 {
			found = true
		}
	}
	if !found {
		t.Error("no rolled-back remark for round 2")
	}
}

// TestResilienceKnobsAreReportingOnly: KeepGoing and a degraded
// OnVerifyFailure mode must not perturb a clean build's bytes.
func TestResilienceKnobsAreReportingOnly(t *testing.T) {
	base, err := appgen.BuildApp(appgen.UberRider, 0.3, pipeline.OSize)
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.OSize
	cfg.Verify = true
	cfg.KeepGoing = true
	cfg.OnVerifyFailure = outline.VerifyRollbackRound
	got, err := appgen.BuildApp(appgen.UberRider, 0.3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Prog.String() != base.Prog.String() || !reflect.DeepEqual(got.Image, base.Image) {
		t.Error("resilience knobs changed a clean build's output")
	}
}
