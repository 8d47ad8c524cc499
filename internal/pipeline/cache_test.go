package pipeline_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"outliner/internal/appgen"
	"outliner/internal/cache"
	"outliner/internal/fault"
	"outliner/internal/layout"
	"outliner/internal/obs"
	"outliner/internal/outline"
	"outliner/internal/pipeline"
)

// cacheTestSources is a two-module program with cross-module calls, so the
// machine stage's cross-reference handling participates in the keys.
func cacheTestSources() []pipeline.Source {
	lib := src("Lib", `
class Counter {
  var n: Int
  init() { self.n = 0 }
  func bump() -> Int {
    self.n = self.n + 1
    return self.n
  }
}
func makeCounter() -> Counter { return Counter() }
func scale(x: Int) -> Int { return x * 10 }
`)
	app := src("App", `
func main() {
  let c = makeCounter()
  print(c.bump())
  print(scale(x: c.bump()))
  print(c.bump())
}
`)
	return []pipeline.Source{lib, app}
}

// cacheConfigs are the pipeline shapes the cache must serve: the default
// pipeline caches both the llir and the machine stage, the whole-program
// pipeline only the llir stage. Verify stays on so a cache-hit build still
// proves the invariants hold.
func cacheConfigs() map[string]pipeline.Config {
	return map[string]pipeline.Config{
		"default":      {OutlineRounds: 1, SILOutline: true, Verify: true},
		"default-full": {OutlineRounds: 3, SILOutline: true, SpecializeClosures: true, MergeFunctions: true, FMSA: true, Verify: true},
		"wholeprog":    {WholeProgram: true, OutlineRounds: 5, SILOutline: true, MergeFunctions: true, PreserveDataLayout: true, SplitGCMetadata: true, Verify: true},
	}
}

// buildListing builds sources under cfg (optionally cached under dir) and
// returns the deterministic image listing plus the build's counters.
func buildListing(t *testing.T, cfg pipeline.Config, dir string, srcs []pipeline.Source) (string, map[string]int64) {
	t.Helper()
	tr := obs.New()
	cfg.Tracer = tr
	cfg.CacheDir = dir
	res, err := pipeline.Build(srcs, cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	var buf bytes.Buffer
	if err := res.WriteImageListing(&buf); err != nil {
		t.Fatalf("WriteImageListing: %v", err)
	}
	return buf.String(), tr.Counters()
}

// The acceptance guarantee: the built image is byte-identical whether the
// build runs with no cache, cold, warm from the memory tier, or warm from
// disk in a fresh process — at every parallelism level.
func TestCacheColdWarmByteIdentical(t *testing.T) {
	srcs := cacheTestSources()
	for name, cfg := range cacheConfigs() {
		for _, j := range []int{1, 4} {
			cfg := cfg
			cfg.Parallelism = j
			t.Run(name+"-j"+string(rune('0'+j)), func(t *testing.T) {
				dir := t.TempDir()
				defer cache.Forget(dir)
				ref, _ := buildListing(t, cfg, "", srcs)

				cold, cc := buildListing(t, cfg, dir, srcs)
				if cold != ref {
					t.Fatal("cold cached build differs from uncached build")
				}
				if cc["cache/hits"] != 0 || cc["cache/probes"] == 0 || cc["cache/stores"] == 0 {
					t.Fatalf("cold counters: %+v", cc)
				}

				warm, wc := buildListing(t, cfg, dir, srcs)
				if warm != ref {
					t.Fatal("warm (memory-tier) build differs from uncached build")
				}
				if wc["cache/probes"] == 0 || wc["cache/hits"] != wc["cache/probes"] || wc["cache/misses"] != 0 {
					t.Fatalf("warm counters: %+v", wc)
				}

				// A fresh process sees an empty memory tier and warms from disk.
				c, err := cache.Shared(dir)
				if err != nil {
					t.Fatal(err)
				}
				c.DropMemory()
				disk, dc := buildListing(t, cfg, dir, srcs)
				if disk != ref {
					t.Fatal("warm (disk-tier) build differs from uncached build")
				}
				if dc["cache/hits"] != dc["cache/probes"] || dc["cache/misses"] != 0 {
					t.Fatalf("disk-warm counters: %+v", dc)
				}
			})
		}
	}
}

// A per-module build's Result.Outline sums its modules' rounds whether each
// module's machine entry was computed or decoded: cold, warm from memory and
// warm from disk report the same rounds, at every parallelism level. The
// outline/rounds counter counts only rounds this build ran: none when every
// machine entry hits.
func TestCacheWarmOutlineStats(t *testing.T) {
	srcs := appgenApp(24)[0].srcs
	for _, j := range []int{1, 4} {
		t.Run(fmt.Sprintf("j%d", j), func(t *testing.T) {
			dir := t.TempDir()
			defer cache.Forget(dir)
			cfg := pipeline.Default
			cfg.CacheDir, cfg.Parallelism = dir, j
			build := func() (*outline.Stats, int64) {
				t.Helper()
				tr := obs.New()
				cfg.Tracer = tr
				res, err := pipeline.Build(srcs, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return res.Outline, tr.Counter("outline/rounds")
			}
			cold, ran := build()
			if cold == nil || cold.TotalSequences() == 0 {
				t.Fatalf("cold build's Result.Outline = %+v, want the rounds it outlined", cold)
			}
			if ran == 0 {
				t.Error("cold build counts no outline/rounds")
			}
			warm, ran := build()
			if !reflect.DeepEqual(warm, cold) {
				t.Errorf("warm (memory-tier) Result.Outline %+v, cold %+v", warm, cold)
			}
			if ran != 0 {
				t.Errorf("all-hit warm build counts %d outline/rounds, want 0", ran)
			}
			c, err := cache.Shared(dir)
			if err != nil {
				t.Fatal(err)
			}
			c.DropMemory()
			if disk, _ := build(); !reflect.DeepEqual(disk, cold) {
				t.Errorf("warm (disk-tier) Result.Outline %+v, cold %+v", disk, cold)
			}
		})
	}
}

// Editing one module's function bodies invalidates exactly that module's
// llir entry: the dependency hash other modules see is the edited module's
// exported-interface digest, which body edits leave unchanged. The unchanged
// module hits at both stages; the edited module rebuilds both.
func TestCacheInvalidationOnSourceEdit(t *testing.T) {
	cfg := pipeline.Config{OutlineRounds: 1, SILOutline: true, Verify: true}
	srcs := cacheTestSources()
	dir := t.TempDir()
	defer cache.Forget(dir)
	buildListing(t, cfg, dir, srcs)

	edited := cacheTestSources()
	edited[1] = src("App", `
func main() {
  let c = makeCounter()
  print(c.bump())
  print(scale(x: c.bump() + 100))
  print(c.bump())
}
`)
	ref, _ := buildListing(t, cfg, "", edited)
	got, counters := buildListing(t, cfg, dir, edited)
	if got != ref {
		t.Fatal("rebuild after edit differs from uncached build of the edited sources")
	}
	if counters["cache/llir/hits"] != 1 || counters["cache/llir/misses"] != 1 {
		t.Fatalf("want only the edited module's llir entry invalidated: %+v", counters)
	}
	if counters["cache/machine/hits"] != 1 || counters["cache/machine/misses"] != 1 {
		t.Fatalf("want exactly the unchanged module's machine entry to hit: %+v", counters)
	}
}

// Config fingerprints are stage-scoped: a backend-only change (outlining
// rounds) reuses every llir entry and rebuilds the machine stage; a
// frontend-relevant change (SILOutline) invalidates the llir stage too.
func TestCacheInvalidationOnConfigChange(t *testing.T) {
	base := pipeline.Config{OutlineRounds: 1, SILOutline: true, Verify: true}
	srcs := cacheTestSources()
	dir := t.TempDir()
	defer cache.Forget(dir)
	buildListing(t, base, dir, srcs)

	backend := base
	backend.OutlineRounds = 3
	ref, _ := buildListing(t, backend, "", srcs)
	got, counters := buildListing(t, backend, dir, srcs)
	if got != ref {
		t.Fatal("rebuild with new rounds differs from uncached build")
	}
	if counters["cache/llir/hits"] != int64(len(srcs)) {
		t.Fatalf("backend-only change should reuse llir entries: %+v", counters)
	}
	if counters["cache/machine/hits"] != 0 {
		t.Fatalf("backend change must invalidate machine entries: %+v", counters)
	}

	frontend := base
	frontend.SILOutline = false
	ref2, _ := buildListing(t, frontend, "", srcs)
	got2, counters2 := buildListing(t, frontend, dir, srcs)
	if got2 != ref2 {
		t.Fatal("rebuild without SIL outlining differs from uncached build")
	}
	if counters2["cache/llir/hits"] != 0 {
		t.Fatalf("frontend-relevant change should invalidate llir entries: %+v", counters2)
	}
}

// A cache directory full of well-formed entries holding garbage payloads —
// the envelope checksum passes, artifact decoding fails — must rebuild
// cleanly, count the corruption, republish, and hit on the next build.
func TestCacheCorruptPayloadForcesRebuild(t *testing.T) {
	cfg := pipeline.Config{OutlineRounds: 1, SILOutline: true, Verify: true}
	srcs := cacheTestSources()
	dir := t.TempDir()
	defer cache.Forget(dir)
	ref, _ := buildListing(t, cfg, dir, srcs)

	ents, err := filepath.Glob(filepath.Join(dir, "*.art"))
	if err != nil || len(ents) == 0 {
		t.Fatalf("no cache entries on disk: %v %v", ents, err)
	}
	for _, p := range ents {
		// Re-derive the documented entry envelope (magic, length, payload,
		// checksum) around a payload no artifact decoder accepts.
		payload := []byte("valid envelope, garbage payload")
		e := append([]byte("SLC1"), binary.LittleEndian.AppendUint64(nil, uint64(len(payload)))...)
		e = append(e, payload...)
		sum := sha256.Sum256(payload)
		if err := os.WriteFile(p, append(e, sum[:]...), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c, err := cache.Shared(dir)
	if err != nil {
		t.Fatal(err)
	}
	c.DropMemory()

	got, counters := buildListing(t, cfg, dir, srcs)
	if got != ref {
		t.Fatal("rebuild over corrupt payloads differs from the original build")
	}
	if counters["cache/hits"] != 0 || counters["cache/corrupt"] != counters["cache/probes"] {
		t.Fatalf("want every probe to miss as corrupt: %+v", counters)
	}

	// The rebuild republished good artifacts over the bad ones.
	warm, wc := buildListing(t, cfg, dir, srcs)
	if warm != ref || wc["cache/hits"] != wc["cache/probes"] {
		t.Fatalf("republished entries do not hit: %+v", wc)
	}
}

// Truncated disk entries (a crash mid-write would instead leave a temp file,
// but disks corrupt too) are misses, never errors.
func TestCacheTruncatedEntryForcesRebuild(t *testing.T) {
	cfg := pipeline.Config{OutlineRounds: 1, SILOutline: true, Verify: true}
	srcs := cacheTestSources()
	dir := t.TempDir()
	defer cache.Forget(dir)
	ref, _ := buildListing(t, cfg, dir, srcs)

	ents, _ := filepath.Glob(filepath.Join(dir, "*.art"))
	for _, p := range ents {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, raw[:len(raw)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c, err := cache.Shared(dir)
	if err != nil {
		t.Fatal(err)
	}
	c.DropMemory()

	got, counters := buildListing(t, cfg, dir, srcs)
	if got != ref {
		t.Fatal("rebuild over truncated entries differs from the original build")
	}
	if counters["cache/hits"] != 0 {
		t.Fatalf("truncated entries reported as hits: %+v", counters)
	}
}

// Concurrent builds sharing one cache directory publish identical bytes for
// identical keys; under -race this doubles as the same-key write-race check.
func TestCacheConcurrentBuilds(t *testing.T) {
	cfg := pipeline.Config{OutlineRounds: 1, SILOutline: true, Verify: true, Parallelism: 2}
	srcs := cacheTestSources()
	dir := t.TempDir()
	defer cache.Forget(dir)
	ref, _ := buildListing(t, cfg, "", srcs)

	const builders = 4
	out := make([]string, builders)
	var wg sync.WaitGroup
	for b := 0; b < builders; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			c := cfg
			c.CacheDir = dir
			res, err := pipeline.Build(srcs, c)
			if err != nil {
				t.Errorf("builder %d: %v", b, err)
				return
			}
			var buf bytes.Buffer
			if err := res.WriteImageListing(&buf); err != nil {
				t.Errorf("builder %d: %v", b, err)
				return
			}
			out[b] = buf.String()
		}(b)
	}
	wg.Wait()
	for b := 0; b < builders; b++ {
		if out[b] != ref {
			t.Fatalf("builder %d produced a different image", b)
		}
	}
}

// Concurrent builds of one cache directory in one process share its handle's
// single flight, daemon or not: between them they compute every stage key
// exactly once, and store it once.
func TestConcurrentBuildsComputeEachKeyOnce(t *testing.T) {
	cfg := pipeline.Config{OutlineRounds: 1, SILOutline: true, Verify: true, Parallelism: 2}
	srcs := cacheTestSources()
	_, serial := buildListing(t, cfg, t.TempDir(), srcs)
	keys := serial["cache/stores"]
	if keys == 0 {
		t.Fatal("a cold build stored nothing")
	}

	dir := t.TempDir()
	defer cache.Forget(dir)
	const builders = 2
	counters := make([]map[string]int64, builders)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for b := 0; b < builders; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			<-start
			c := cfg
			c.CacheDir = dir
			c.Tracer = obs.New()
			if _, err := pipeline.Build(srcs, c); err != nil {
				t.Errorf("builder %d: %v", b, err)
				return
			}
			counters[b] = c.Tracer.Counters()
		}(b)
	}
	close(start)
	wg.Wait()
	var computes, stores int64
	for _, c := range counters {
		computes += c["flight/computes"]
		stores += c["cache/stores"]
	}
	if computes != keys || stores != keys {
		t.Fatalf("two concurrent builds: flight/computes = %d, cache/stores = %d, want %d each (the unique stage keys)",
			computes, stores, keys)
	}
}

// TestCacheKeysCoverConfig makes the cache keys' completeness structural.
// Every Config field is read by some cached stage's projection, or is
// declared observational (it never changes an artifact) or uncached-only
// (only uncached stages read it); a new field in none of the three fails
// here until it is classified. Then, for every field, a build with that field
// changed must store byte-identical artifacts under every key it shares with
// the unchanged build, and must share every key of each stage whose
// projection, and every upstream stage's, did not change.
func TestCacheKeysCoverConfig(t *testing.T) {
	observational := map[string]bool{"Ctx": true, "Tracer": true, "Parallelism": true, "CacheDir": true, "KeepGoing": true}
	uncachedOnly := map[string]bool{"WholeProgram": true, "PreserveDataLayout": true, "SplitGCMetadata": true,
		"Layout": true}
	// Large enough that outlining rounds, closure specialization, merging
	// and the cost model each change some artifact.
	srcs := appgen.Sources(appgen.Generate(appgen.UberRider, appgen.ScaleForModules(appgen.UberRider, 4)))
	base := pipeline.Config{OutlineRounds: 1, SILOutline: true, Verify: true}
	prof, _ := collectMainProfile(t, base, srcs)
	alts := map[string]any{
		"Ctx": context.TODO(), "Tracer": obs.New(), "CacheDir": t.TempDir(),
		"OnVerifyFailure": outline.VerifyRollbackRound, "Fault": fault.New(1, 0), "Profile": prof, "Layout": layout.C3,
	}
	profiled := base
	profiled.Profile = prof

	ref := storedArtifacts(t, base, srcs)
	fields := reflect.TypeOf(pipeline.Config{})
	for i := 0; i < fields.NumField(); i++ {
		name := fields.Field(i).Name
		read := false
		for _, cfg := range []pipeline.Config{base, profiled} {
			read = read || !reflect.DeepEqual(pipeline.KeyConfigs(mutate(t, cfg, name, alts)), pipeline.KeyConfigs(cfg))
		}
		switch {
		case read && (observational[name] || uncachedOnly[name]):
			t.Errorf("Config.%s is classified as unread, but a cached stage's projection reads it", name)
		case !read && !observational[name] && !uncachedOnly[name]:
			t.Errorf("Config.%s is read by no cached stage's projection: add it to the projection of each stage whose artifact it can change, or classify it as observational or uncached-only", name)
		}
		if name == "CacheDir" {
			continue // every build here stores into a directory of its own
		}
		changed := mutate(t, base, name, alts)
		got := storedArtifacts(t, changed, srcs)
		before, after := pipeline.KeyConfigs(base), pipeline.KeyConfigs(changed)
		upstream := true
		for _, stage := range []string{"iface", "llir", "machine"} {
			upstream = upstream && before[stage] == after[stage]
			for id, data := range got[stage] {
				if r, ok := ref[stage][id]; ok && !bytes.Equal(r, data) {
					t.Errorf("Config.%s changes a %s artifact under an unchanged key: it must join the %s projection", name, stage, stage)
					break
				}
			}
			if upstream && len(ref[stage]) > 0 && len(got[stage]) > 0 && !sameKeys(ref[stage], got[stage]) {
				t.Errorf("Config.%s moved %s keys although no projection up to %s reads it", name, stage, stage)
			}
		}
	}
}

// mutate returns cfg with the named field changed: a bool flipped, a number
// incremented, anything else swapped between its zero value and alts[name].
func mutate(t *testing.T, cfg pipeline.Config, name string, alts map[string]any) pipeline.Config {
	t.Helper()
	v := reflect.ValueOf(&cfg).Elem().FieldByName(name)
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
	default:
		alt, ok := alts[name]
		if !ok {
			t.Fatalf("no mutation for Config.%s: give it an alternative value", name)
		}
		if v.IsZero() {
			v.Set(reflect.ValueOf(alt))
		} else {
			v.Set(reflect.Zero(v.Type()))
		}
	}
	return cfg
}

// storedArtifacts builds srcs under cfg into a fresh cache directory and
// returns the stored artifacts by stage, then by entry name (the key's
// content address).
func storedArtifacts(t *testing.T, cfg pipeline.Config, srcs []pipeline.Source) map[string]map[string][]byte {
	t.Helper()
	cfg.CacheDir = t.TempDir()
	defer cache.Forget(cfg.CacheDir)
	if _, err := pipeline.Build(srcs, cfg); err != nil {
		t.Fatalf("Build: %v", err)
	}
	ents, err := filepath.Glob(filepath.Join(cfg.CacheDir, "*.art"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]map[string][]byte{}
	for _, p := range ents {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		// The envelope is magic, length, payload, checksum; a payload's fifth
		// byte names its artifact kind.
		payload := raw[12 : len(raw)-sha256.Size]
		stage := map[byte]string{'I': "iface", 'L': "llir", 'M': "machine"}[payload[4]]
		if out[stage] == nil {
			out[stage] = map[string][]byte{}
		}
		out[stage][filepath.Base(p)] = payload
	}
	return out
}

func sameKeys(a, b map[string][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}
