package pipeline

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"outliner/internal/artifact"
	"outliner/internal/cache"
	"outliner/internal/frontend"
	"outliner/internal/llir"
	"outliner/internal/obs"
)

// stageSources is a three-module program with calls across modules, a
// function whose address is taken, and an ObjC-flavoured module.
func stageSources() []Source {
	return []Source{
		{Name: "Lib", Files: map[string]string{"lib.sl": `
class Counter {
  var n: Int
  func bump() -> Int {
    self.n = self.n + 1
    return self.n
  }
}
func makeCounter() -> Counter { return Counter(n: 0) }
func scale(x: Int) -> Int { return x * 10 }
func unused(x: Int) -> Int { return scale(x: x) }
`}},
		{Name: "Mid", ObjC: true, Files: map[string]string{"mid.sl": `
func twice(c: Counter) -> Int { return c.bump() + c.bump() }
func pick(f: (Int) -> Int, x: Int) -> Int { return f(x) }
`}},
		{Name: "App", Files: map[string]string{"app.sl": `
func ten(x: Int) -> Int { return scale(x: x) }
func main() {
  let c = makeCounter()
  print(twice(c: c))
  print(pick(f: ten, x: 4))
}
`}},
	}
}

// frontForTest runs the front half of a build of srcs.
func frontForTest(t *testing.T, cfg Config, srcs []Source) *build {
	t.Helper()
	b := &build{sources: srcs}
	if _, err := runBuild(cfg, b, frontHalf); err != nil {
		t.Fatal(err)
	}
	return b
}

// lowerForTest runs the front half of a build of stageSources.
func lowerForTest(t *testing.T, cfg Config) []*lowered {
	t.Helper()
	return frontForTest(t, cfg, stageSources()).units
}

// What the default pipeline learns about other modules from summary headers
// must be exactly what walking their bodies says: the symbols that are
// external during per-module outlining, and the cross-module references
// per-module merging must keep.
func TestSummariesAgreeWithBodies(t *testing.T) {
	dir := t.TempDir()
	defer cache.Forget(dir)
	cfg := Config{SILOutline: true, Verify: true, CacheDir: dir}
	lowerForTest(t, cfg) // cold: publishes
	warm := lowerForTest(t, cfg)
	uncached := lowerForTest(t, Config{SILOutline: true, Verify: true})

	var bodies []*llir.Module
	for _, u := range warm {
		if u.body != nil || u.sum == nil {
			t.Fatalf("module %s: a warm default-pipeline hit must hold a summary and no body", u.name)
		}
		m, err := u.materialise(nil)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, m)
	}
	// The reference: the walks the pipeline used before summaries existed.
	wantExtern := make(map[string]bool)
	for s := range llir.RuntimeSyms {
		wantExtern[s] = true
	}
	defIn := make(map[string]string)
	for _, m := range bodies {
		for _, f := range m.Funcs {
			wantExtern[f.Name] = true
			defIn[f.Name] = m.Name
		}
		for _, g := range m.Globals {
			wantExtern[g.Name] = true
		}
	}
	wantRefs := make(map[string]bool)
	for _, m := range bodies {
		for _, f := range m.Funcs {
			for _, b := range f.Blocks {
				for _, in := range b.Insts {
					if in.Op != llir.Call && in.Op != llir.GlobalAddr {
						continue
					}
					if def, ok := defIn[in.Sym]; ok && def != m.Name {
						wantRefs[in.Sym] = true
					}
				}
			}
		}
	}
	if len(wantRefs) < 4 {
		t.Fatalf("the fixture should call across module boundaries: %v", wantRefs)
	}
	for name, units := range map[string][]*lowered{"warm": warm, "uncached": uncached} {
		if got := externSyms(units); !reflect.DeepEqual(got, wantExtern) {
			t.Errorf("%s: externSyms from summaries = %v, from bodies %v", name, got, wantExtern)
		}
		if got := crossModuleRefs(units); !reflect.DeepEqual(got, wantRefs) {
			t.Errorf("%s: crossModuleRefs from summaries = %v, from bodies %v", name, got, wantRefs)
		}
	}
}

// The digest table Build assembles from the iface stage — cold from parsed
// files, warm from stored stubs without parsing anything — is the one
// ComputeModuleKeys derives from parsed files.
func TestModuleKeysMatchWithoutParsing(t *testing.T) {
	srcs := stageSources()
	parsed := make([][]*frontend.File, len(srcs))
	for i, s := range srcs {
		var err error
		if parsed[i], err = ParseSource(s); err != nil {
			t.Fatal(err)
		}
	}
	want := ComputeModuleKeys(srcs, parsed, nil)

	dir := t.TempDir()
	defer cache.Forget(dir)
	for _, pass := range []string{"cold", "warm"} {
		tr := obs.New()
		b := frontForTest(t, Config{CacheDir: dir, Tracer: tr}, srcs)
		if !reflect.DeepEqual(b.keys, want) {
			t.Errorf("%s: keys from the iface stage = %+v, want %+v", pass, b.keys, want)
		}
		if parsedNow := tr.Counter("frontend/modules_parsed"); (pass == "warm") != (parsedNow == 0) {
			t.Errorf("%s pass parsed %d modules", pass, parsedNow)
		}
	}
}

// runStage's publish gate, once for all three stages: a compute that finishes
// after its build was cancelled is discarded unpublished by the flight's
// leader, and a later clean build computes and publishes normally.
func TestRunStageCancelledComputePublishesNothing(t *testing.T) {
	for _, stage := range []string{"iface", "llir", "machine"} {
		dir := t.TempDir()
		c, err := cache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		bc := &BuildCache{c: c}
		key := cache.Key{Stage: stage, Input: "k", Schema: 1}
		decode := func(b []byte) (string, error) { return string(b), nil }
		encode := func(s string) []byte { return []byte(s) }

		ctx, cancel := context.WithCancel(context.Background())
		_, err = runStage(ctx, bc, nil, key, nil, decode, func() (string, error) {
			cancel() // the build is cancelled while the stage computes
			return "artifact", nil
		}, encode)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: cancelled compute returned %v, want context.Canceled", stage, err)
		}
		if ents, _ := filepath.Glob(filepath.Join(dir, "*.art")); len(ents) != 0 {
			t.Fatalf("%s: cancelled compute published %v", stage, ents)
		}
		if _, ok := c.Get(key); ok {
			t.Fatalf("%s: cancelled compute reached the memory tier", stage)
		}

		got, err := runStage(context.Background(), bc, nil, key, nil, decode,
			func() (string, error) { return "artifact", nil }, encode)
		if err != nil || got != "artifact" {
			t.Fatalf("%s: clean compute = %q, %v", stage, got, err)
		}
		if data, ok := c.Get(key); !ok || string(data) != "artifact" {
			t.Fatalf("%s: clean compute did not publish", stage)
		}
	}
}

// A cache directory an earlier release wrote is all-miss where its keys
// differ, so no entry is ever fetched, let alone misdecoded: iface entries one
// schema version back, and llir and machine entries at the current schema
// under the hand-written config fingerprints keys carried before they were
// rendered from stage projections.
func TestPreviousSchemaEntriesAreNeverProbed(t *testing.T) {
	dir := t.TempDir()
	defer cache.Forget(dir)
	cfg := Config{SILOutline: true, OutlineRounds: 1, Verify: true, CacheDir: dir}
	c, err := cache.Shared(dir)
	if err != nil {
		t.Fatal(err)
	}
	srcs := stageSources()
	parsed := make([][]*frontend.File, len(srcs))
	for i, s := range srcs {
		if parsed[i], err = ParseSource(s); err != nil {
			t.Fatal(err)
		}
	}
	keys := ComputeModuleKeys(srcs, parsed, nil)
	units := lowerForTest(t, Config{SILOutline: true, Verify: true})
	old := []byte("an old-format artifact")
	for i := range srcs {
		c.Put(cache.Key{Stage: "iface", Input: keys.Src[i], Schema: artifact.SchemaVersion - 1}, old)
		c.Put(cache.Key{Stage: "llir", Input: llirInput(i, keys),
			Config: "siloutline=true specclosures=false verify=true", Schema: artifact.SchemaVersion}, old)
		c.Put(cache.Key{Stage: "machine", Input: machineInput(units[i], nil),
			Config: "merge=false fmsa=false rounds=1 flat=false verify=true onvf=abort", Schema: artifact.SchemaVersion}, old)
	}
	tr := obs.New()
	cfg.Tracer = tr
	if _, err := Build(srcs, cfg); err != nil {
		t.Fatalf("build over an earlier release's directory: %v", err)
	}
	if tr.Counter("cache/hits") != 0 || tr.Counter("cache/corrupt") != 0 {
		t.Fatalf("earlier entries were fetched: hits=%d corrupt=%d",
			tr.Counter("cache/hits"), tr.Counter("cache/corrupt"))
	}
	if tr.Counter("cache/machine/misses") != int64(len(srcs)) {
		t.Fatalf("cache/machine/misses = %d, want %d", tr.Counter("cache/machine/misses"), len(srcs))
	}
}

// An entry the decoder rejects is computed afresh and published over: the
// flight's re-probe must not hand the damaged bytes straight back.
func TestRunStageRepublishesOverUndecodableEntry(t *testing.T) {
	c, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	bc := &BuildCache{c: c}
	key := cache.Key{Stage: "llir", Input: "k", Schema: 1}
	c.Put(key, []byte("damaged"))
	tr := obs.New()
	got, err := runStage(context.Background(), bc, tr, key, nil,
		func(b []byte) (string, error) {
			if string(b) == "damaged" {
				return "", errors.New("undecodable")
			}
			return string(b), nil
		},
		func() (string, error) { return "sound", nil },
		func(s string) []byte { return []byte(s) })
	if err != nil || got != "sound" {
		t.Fatalf("runStage = %q, %v", got, err)
	}
	if data, _ := c.Get(key); string(data) != "sound" {
		t.Fatalf("the damaged entry was not published over: %q", data)
	}
	if tr.Counter("cache/corrupt") != 1 || tr.Counter("cache/stores") != 1 {
		t.Fatalf("counters: %+v", tr.Counters())
	}
}
