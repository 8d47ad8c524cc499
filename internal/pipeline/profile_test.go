package pipeline_test

import (
	"bytes"
	"testing"

	"outliner/internal/exec"
	"outliner/internal/obs"
	"outliner/internal/pipeline"
	"outliner/internal/profile"
)

// collectMainProfile builds srcs under cfg and runs main on the result with
// instrumentation on, returning the collected profile and the build.
func collectMainProfile(t *testing.T, cfg pipeline.Config, srcs []pipeline.Source) (*profile.Profile, *pipeline.Result) {
	t.Helper()
	res, err := pipeline.Build(srcs, cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	col := profile.NewCollector()
	m, err := exec.New(res.Prog, exec.Options{MaxSteps: 10_000_000, Profile: col})
	if err != nil {
		t.Fatalf("exec.New: %v", err)
	}
	if _, err := m.Run("main"); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return col.Profile(), res
}

// Profiles are part of the determinism contract: the same program run the
// same way must serialize to byte-identical profile files regardless of the
// build's parallelism and across process restarts (simulated here by fully
// independent build+run cycles).
func TestProfileByteIdenticalAcrossParallelismAndRestarts(t *testing.T) {
	srcs := cacheTestSources()
	var want []byte
	for _, jobs := range []int{1, 4, 4} {
		cfg := pipeline.OSize
		cfg.Verify = true
		cfg.Parallelism = jobs
		p, _ := collectMainProfile(t, cfg, srcs)
		got := p.Encode()
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("-j %d profile differs:\n%s\nvs\n%s", jobs, want, got)
		}
	}
}

// Cold-only gating must be inert — byte-identical output — unless both its
// inputs are present: a profile and a positive threshold.
func TestColdOnlyGatingRequiresProfileAndThreshold(t *testing.T) {
	srcs := cacheTestSources()
	base := pipeline.OSize
	base.Verify = true
	wantListing, _ := buildListing(t, base, "", srcs)
	prof, _ := collectMainProfile(t, base, srcs)

	thrOnly := base
	thrOnly.OutlineColdThreshold = 1
	if got, _ := buildListing(t, thrOnly, "", srcs); got != wantListing {
		t.Error("-outline-cold-threshold with no profile changed the image")
	}

	zeroThr := base
	zeroThr.Profile = prof
	if got, _ := buildListing(t, zeroThr, "", srcs); got != wantListing {
		t.Error("a profile with threshold 0 changed the image")
	}
}

// The acceptance property: a profiled cold-only build never outlines from a
// function at or above the hot threshold. Every selected remark must carry a
// cold verdict, and the gate must actually have fired somewhere.
func TestColdOnlyNeverOutlinesHot(t *testing.T) {
	srcs := cacheTestSources()
	base := pipeline.OSize
	base.Verify = true
	prof, _ := collectMainProfile(t, base, srcs)

	tr := obs.New()
	cfg := base
	cfg.Tracer = tr
	cfg.Profile = prof
	cfg.OutlineColdThreshold = 1
	if _, err := pipeline.Build(srcs, cfg); err != nil {
		t.Fatalf("Build: %v", err)
	}
	remarks := tr.Remarks()
	if len(remarks) == 0 {
		t.Fatal("no outliner remarks emitted")
	}
	hotRejects := 0
	for _, r := range remarks {
		if r.Status == "selected" && r.ExecCount >= cfg.OutlineColdThreshold {
			t.Errorf("outlined from hot function: %+v", r)
		}
		if r.Status == "selected" && r.Hotness == "hot" {
			t.Errorf("selected remark carries hot verdict: %+v", r)
		}
		if r.Reason == "hot-function" {
			hotRejects++
		}
	}
	if hotRejects == 0 && tr.Counters()["outline/profile/gated_occurrences"] == 0 {
		t.Error("gate never fired: expected hot-function rejections or gated occurrences")
	}
}

// The profile's identity and the gating policy join the machine-stage cache
// key: a warm unprofiled build must not serve stale artifacts to a profiled
// cold-only build, and two different profiles must not share entries.
func TestProfileJoinsCacheKey(t *testing.T) {
	srcs := cacheTestSources()
	dir := t.TempDir()
	base := pipeline.Config{OutlineRounds: 1, SILOutline: true, Verify: true}
	prof, _ := collectMainProfile(t, base, srcs)

	buildListing(t, base, dir, srcs) // cold: populate
	_, warm := buildListing(t, base, dir, srcs)
	if warm["cache/misses"] != 0 || warm["cache/hits"] == 0 {
		t.Fatalf("unprofiled warm build not fully cached: %v", warm)
	}

	gated := base
	gated.Profile = prof
	gated.OutlineColdThreshold = 2
	_, c := buildListing(t, gated, dir, srcs)
	if c["cache/machine/misses"] == 0 {
		t.Errorf("profiled cold-only build reused unprofiled machine artifacts: %v", c)
	}

	other := gated
	p2 := profile.New()
	p2.Func("main").Entries = 99
	other.Profile = p2
	_, c2 := buildListing(t, other, dir, srcs)
	if c2["cache/machine/misses"] == 0 {
		t.Errorf("different profile reused another profile's machine artifacts: %v", c2)
	}
}

// A profiled cold-only build is still deterministic under the cache: cold
// and warm runs produce byte-identical listings.
func TestProfiledColdOnlyColdWarmByteIdentical(t *testing.T) {
	srcs := cacheTestSources()
	base := pipeline.Config{OutlineRounds: 1, SILOutline: true, Verify: true}
	prof, _ := collectMainProfile(t, base, srcs)

	cfg := base
	cfg.Profile = prof
	cfg.OutlineColdThreshold = 1
	dir := t.TempDir()
	nocache, _ := buildListing(t, cfg, "", srcs)
	cold, _ := buildListing(t, cfg, dir, srcs)
	warm, counters := buildListing(t, cfg, dir, srcs)
	if cold != nocache {
		t.Error("cached cold build differs from uncached build")
	}
	if warm != cold {
		t.Error("warm build differs from cold build")
	}
	if counters["cache/hits"] == 0 {
		t.Errorf("warm profiled build had no cache hits: %v", counters)
	}
}
