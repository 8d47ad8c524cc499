package pipeline_test

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"outliner/internal/fault"
	"outliner/internal/layout"
	"outliner/internal/pipeline"
)

// cancelListing builds sources with cfg and returns the deterministic image
// listing, failing the test on any build error.
func cancelListing(t *testing.T, cfg pipeline.Config, sources []pipeline.Source) string {
	t.Helper()
	res, err := pipeline.Build(sources, cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	var buf bytes.Buffer
	if err := res.WriteImageListing(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestBuildPreCancelledContextPublishesNothing: a build whose context is
// already done fails with the context's error before any work runs, and the
// cache directory stays empty — a cancelled build never publishes.
func TestBuildPreCancelledContextPublishesNothing(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := pipeline.Default
	cfg.OutlineRounds = 1
	cfg.CacheDir = dir
	cfg.Ctx = ctx

	_, err := pipeline.Build(chaosSources(), cfg)
	if err == nil {
		t.Fatal("pre-cancelled build succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	entries, _ := filepath.Glob(filepath.Join(dir, "*.art"))
	if len(entries) != 0 {
		t.Fatalf("cancelled build published %d cache entries: %v", len(entries), entries)
	}

	// The same directory serves a clean build normally afterwards, and the
	// image matches an uncached reference build byte for byte.
	ref := cancelListing(t, withRounds(1), chaosSources())
	clean := pipeline.Default
	clean.OutlineRounds = 1
	clean.CacheDir = dir
	if got := cancelListing(t, clean, chaosSources()); got != ref {
		t.Fatal("post-cancellation clean build diverged from the uncached reference")
	}
}

func withRounds(n int) pipeline.Config {
	cfg := pipeline.Default
	cfg.OutlineRounds = n
	return cfg
}

// TestScriptedCancelStep: the cancel-at-step-N chaos drill, at every stage
// boundary both pipelines declare. A scripted CancelKind decision at a stage
// boundary cancels the build's context there; the build fails with an error
// wrapping context.Canceled, never a crash.
func TestScriptedCancelStep(t *testing.T) {
	perModule := pipeline.Default
	perModule.Layout = layout.None // the layout stage runs only when asked for
	n := len(chaosSources())
	for _, base := range []pipeline.Config{perModule, pipeline.OSize} {
		steps, cached := pipeline.Steps(base)
		// Each stage publishes only what it finished before the cut: nothing
		// at all when the build is cancelled entering the iface ("parse")
		// stage, stubs alone entering lowering, and one entry per module for
		// every cached stage that ran.
		want := 0
		for k, step := range steps {
			if pinned, ok := map[string]int{"parse": 0, "frontend": n, "llc": 2 * n}[step]; ok && want != pinned {
				t.Fatalf("steps %v: %s would expect %d entries, want %d", steps, step, want, pinned)
			}
			cfg := base
			cfg.Fault = fault.Exact(fault.At{Site: fault.CancelStep, Key: "step:" + step, Kind: fault.CancelKind})
			cfg.CacheDir = t.TempDir()
			_, err := pipeline.Build(chaosSources(), cfg)
			if err == nil {
				t.Fatalf("step %s: cancelled build succeeded", step)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("step %s: error %v does not wrap context.Canceled", step, err)
			}
			entries, _ := filepath.Glob(filepath.Join(cfg.CacheDir, "*.art"))
			if len(entries) != want {
				t.Fatalf("step %s: cancelled build left %d cache entries, want %d", step, len(entries), want)
			}
			if cached[k] {
				want += n
			}
		}
	}
}

// TestHungWorkerBoundedByDeadline: the hung-compiler drill. A scripted hang
// blocks one frontend worker until the build's deadline fires; deadline
// propagation turns an unbounded wedge into a prompt, structured
// deadline-exceeded failure — and the poisoned cache directory problem does
// not exist, because the cancelled build published nothing a clean build can
// see: the follow-up build over the same directory is byte-identical to the
// uncached reference.
func TestHungWorkerBoundedByDeadline(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	cfg := pipeline.Default
	cfg.OutlineRounds = 1
	cfg.CacheDir = dir
	cfg.Ctx = ctx
	cfg.Fault = fault.Exact(fault.At{Site: fault.WorkerHang, Key: "frontend models", Kind: fault.HangKind})

	start := time.Now()
	_, err := pipeline.Build(chaosSources(), cfg)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("hung build succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not wrap context.DeadlineExceeded", err)
	}
	if !strings.Contains(err.Error(), "hung worker cancelled") {
		t.Fatalf("error %q does not name the hang", err)
	}
	if elapsed > 30*time.Second {
		t.Fatalf("deadline took %v to fire — cancellation is not propagating", elapsed)
	}

	ref := cancelListing(t, withRounds(1), chaosSources())
	clean := pipeline.Default
	clean.OutlineRounds = 1
	clean.CacheDir = dir
	if got := cancelListing(t, clean, chaosSources()); got != ref {
		t.Fatal("clean build over the cancelled build's cache directory diverged from the reference")
	}
}

// TestKeepGoingCancelMidWaveAggregates is the keep-going × cancellation
// contract end to end: a wave where one module has already failed, a second
// hangs until the deadline, and a third is never claimed must still fail with
// a *pipeline.BuildErrors that aggregates the real failure, the hang's
// cancellation, and the wave's cancellation — cancellation stops the build
// promptly but never discards diagnostics that were already earned.
func TestKeepGoingCancelMidWaveAggregates(t *testing.T) {
	sources := []pipeline.Source{
		{Name: "beta", Files: map[string]string{"b.sl": "func badB() -> Int { return missingB(1) }\n"}},
		{Name: "gamma", Files: map[string]string{"c.sl": "func okC() -> Int { return 2 }\n"}},
		{Name: "alpha", Files: map[string]string{"a.sl": "func okA() -> Int { return 1 }\n"}},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	cfg := pipeline.Default
	cfg.OutlineRounds = 1
	cfg.KeepGoing = true
	cfg.Parallelism = 1 // ordered claiming makes the aggregate deterministic
	cfg.Ctx = ctx
	cfg.Fault = fault.Exact(fault.At{Site: fault.WorkerHang, Key: "frontend gamma", Kind: fault.HangKind})

	_, err := pipeline.Build(sources, cfg)
	if err == nil {
		t.Fatal("build succeeded")
	}
	var be *pipeline.BuildErrors
	if !errors.As(err, &be) {
		t.Fatalf("got %T (%v), want *pipeline.BuildErrors", err, err)
	}
	if len(be.Errs) != 3 {
		t.Fatalf("aggregated %d errors (%v), want 3: beta's failure, gamma's hang, alpha's cancellation", len(be.Errs), be)
	}
	if !strings.Contains(be.Errs[0].Error(), "beta") {
		t.Fatalf("first aggregated error %v does not report module beta's failure", be.Errs[0])
	}
	if !errors.Is(be.Errs[1], context.DeadlineExceeded) || !strings.Contains(be.Errs[1].Error(), "gamma") {
		t.Fatalf("second aggregated error %v is not gamma's deadline-cancelled hang", be.Errs[1])
	}
	if !errors.Is(be.Errs[2], context.DeadlineExceeded) {
		t.Fatalf("third aggregated error %v is not the wave's cancellation", be.Errs[2])
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("the aggregate does not expose the deadline through errors.Is")
	}
}
