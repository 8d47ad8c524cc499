package pipeline_test

import (
	"testing"

	"outliner/internal/appgen"
	"outliner/internal/cache"
	"outliner/internal/exec"
	"outliner/internal/layout"
	"outliner/internal/obs"
	"outliner/internal/pipeline"
	"outliner/internal/raceflag"
)

// The none policy is part of the determinism contract: an unset knob, an
// explicit "none", and an active policy with no profile to act on must all
// produce byte-identical images.
func TestLayoutNoneByteIdentical(t *testing.T) {
	srcs := cacheTestSources()
	base := pipeline.OSize
	base.Verify = true
	want, _ := buildListing(t, base, "", srcs)

	explicit := base
	explicit.Layout = layout.None
	if got, _ := buildListing(t, explicit, "", srcs); got != want {
		t.Error("-layout none changed the image")
	}

	noProfile := base
	noProfile.Layout = layout.C3
	if got, _ := buildListing(t, noProfile, "", srcs); got != want {
		t.Error("-layout c3 with no profile changed the image")
	}
}

func TestLayoutUnknownPolicyFails(t *testing.T) {
	cfg := pipeline.OSize
	cfg.Layout = "pettis-hansen"
	if _, err := pipeline.Build(cacheTestSources(), cfg); err == nil {
		t.Fatal("unknown layout policy did not fail the build")
	}
}

// A profiled layout build must stay byte-identical at any parallelism and
// across restarts (simulated by fully independent builds) for a fixed
// profile — the repo's standing determinism guarantee, now with the layout
// pass in the loop.
func TestLayoutByteIdenticalAcrossParallelismAndRestarts(t *testing.T) {
	srcs := cacheTestSources()
	base := pipeline.OSize
	base.Verify = true
	prof, _ := collectMainProfile(t, base, srcs)

	var want string
	for _, jobs := range []int{1, 4, 4} {
		cfg := base
		cfg.Parallelism = jobs
		cfg.Profile = prof
		cfg.Layout = layout.C3
		got, _ := buildListing(t, cfg, "", srcs)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Errorf("-j %d image differs from -j 1", jobs)
		}
	}
}

// Reordering moves addresses, never behavior: every layout policy must run
// main to the same output.
func TestLayoutExecutionEquivalent(t *testing.T) {
	srcs := cacheTestSources()
	base := pipeline.OSize
	base.Verify = true
	prof, _ := collectMainProfile(t, base, srcs)

	var want string
	for _, policy := range []string{layout.None, layout.C3} {
		cfg := base
		cfg.Profile = prof
		cfg.Layout = policy
		res, err := pipeline.Build(srcs, cfg)
		if err != nil {
			t.Fatalf("%s: Build: %v", policy, err)
		}
		m, err := exec.New(res.Prog, exec.Options{MaxSteps: 10_000_000})
		if err != nil {
			t.Fatalf("%s: exec.New: %v", policy, err)
		}
		out, err := m.Run("main")
		if err != nil {
			t.Fatalf("%s: Run: %v", policy, err)
		}
		if want == "" {
			want = out
			continue
		}
		if out != want {
			t.Errorf("%s: output %q differs from none's %q", policy, out, want)
		}
	}
}

// The machine stage does not read the layout policy, so its key leaves it
// out: a profiled per-module build without layout serves every machine entry
// to the same profile built with -layout c3, whose listing is still exactly
// an uncached c3 build's.
func TestLayoutReusesMachineEntries(t *testing.T) {
	srcs := cacheTestSources()
	dir := t.TempDir()
	defer cache.Forget(dir)
	base := pipeline.Config{OutlineRounds: 1, SILOutline: true, Verify: true}
	prof, _ := collectMainProfile(t, base, srcs)
	base.Profile = prof
	base.Layout = layout.None
	buildListing(t, base, dir, srcs) // cold: populate

	laid := base
	laid.Layout = layout.C3
	want, _ := buildListing(t, laid, "", srcs)
	got, c := buildListing(t, laid, dir, srcs)
	if c["cache/machine/misses"] != 0 || c["cache/machine/hits"] != int64(len(srcs)) {
		t.Errorf("-layout c3 did not reuse the none build's machine entries: %v", c)
	}
	if got != want {
		t.Error("-layout c3 over a none build's cache differs from an uncached c3 build")
	}
}

// An active profiled layout emits its decision telemetry: layout/* counters,
// function-layout remarks with the driving call edge, and the before/after
// cross-page counters with after no worse than before — and, on a generated
// 24-module app whose text spans many pages, strictly better: c3 has to pay
// for itself in counted cross-page calls, not on a clock.
func TestLayoutTelemetryAndPageCounters(t *testing.T) {
	for _, tc := range []struct {
		name   string
		srcs   []pipeline.Source
		strict bool
	}{
		{"three-module", cacheTestSources(), false},
		{"generated-24", appgen.Sources(scaleCorpus(t, 24)), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := pipeline.OSize
			base.Verify = true
			prof, _ := collectMainProfile(t, base, tc.srcs)

			tr := obs.New()
			cfg := base
			cfg.Tracer = tr
			cfg.Profile = prof
			cfg.Layout = layout.C3
			res, err := pipeline.Build(tc.srcs, cfg)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			if res.Layout == nil || res.Layout.Policy != layout.C3 {
				t.Fatalf("Result.Layout = %+v, want c3 stats", res.Layout)
			}
			if res.PreLayoutImage == nil {
				t.Fatal("Result.PreLayoutImage is nil for an active profiled layout")
			}
			counters := tr.Counters()
			if counters["layout/clusters"] == 0 {
				t.Errorf("no layout/clusters counter: %v", counters)
			}
			before, after := counters["layout/cross_page_calls_before"], counters["layout/cross_page_calls_after"]
			t.Logf("cross-page calls: before=%d after=%d", before, after)
			if after > before || tc.strict && after >= before {
				t.Errorf("c3 did not improve cross-page calls: before=%d after=%d", before, after)
			}
			sawLayoutRemark := false
			for _, r := range tr.Remarks() {
				if r.Pass != "function-layout" {
					continue
				}
				sawLayoutRemark = true
				if r.Caller == "" || r.Function == "" {
					t.Errorf("layout remark missing call edge: %+v", r)
				}
			}
			if res.Layout.Merges > 0 && !sawLayoutRemark {
				t.Error("c3 merged clusters but emitted no function-layout remarks")
			}
		})
	}
}

// TestNilTracerSkipsLayoutScoring: the image stage scores a profiled layout's
// page touches only for a tracer, the one holder of the counters it sets. A
// traced build's counters are the scoring's of the untraced build's images,
// which are still built, and the scoring allocates nothing without a tracer.
func TestNilTracerSkipsLayoutScoring(t *testing.T) {
	srcs := appgen.Sources(scaleCorpus(t, 24))
	cfg := pipeline.OSize
	prof, _ := collectMainProfile(t, cfg, srcs)
	cfg.Profile = prof
	cfg.Layout = layout.C3
	res, err := pipeline.Build(srcs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PreLayoutImage == nil {
		t.Fatal("an untraced build has no Result.PreLayoutImage")
	}
	scored := obs.New()
	pipeline.ScoreLayout(scored, res, prof)
	cfg.Tracer = obs.New()
	if _, err := pipeline.Build(srcs, cfg); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"layout/cross_page_calls_before", "layout/cross_page_calls_after",
		"layout/touched_pages_before", "layout/touched_pages_after",
	} {
		if got, want := scored.Counter(name), cfg.Tracer.Counter(name); got != want || want == 0 {
			t.Errorf("%s: scoring the untraced build's images gives %d, the traced build %d", name, got, want)
		}
	}
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	if n := testing.AllocsPerRun(10, func() { pipeline.ScoreLayout(nil, res, prof) }); n != 0 {
		t.Errorf("layout scoring without a tracer: %v allocations, want 0", n)
	}
}
