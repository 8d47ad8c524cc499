package pipeline_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"outliner/internal/appgen"
	"outliner/internal/artifact"
	"outliner/internal/cache"
	"outliner/internal/frontend"
	"outliner/internal/obs"
	"outliner/internal/pipeline"
)

// smallCorpus is an UberRider corpus small enough to build many times per
// test and large enough to hold Objective-C-flavoured modules, cross-module
// calls in both directions, and a closure-specialization scenario.
func smallCorpus(t testing.TB) []appgen.Module {
	t.Helper()
	mods := appgen.Generate(appgen.UberRider, appgen.ScaleForModules(appgen.UberRider, 12))
	objc := 0
	for _, m := range mods {
		if m.ObjC {
			objc++
		}
	}
	if objc == 0 || objc == len(mods) {
		t.Fatalf("corpus has %d ObjC modules of %d; the tests need a mix", objc, len(mods))
	}
	return mods
}

// astImports is the reference the stub replaced: an import set that exposes
// the other modules' AST declarations themselves, bodies and all.
func astImports(parsed [][]*frontend.File, self int, hide func(name string) bool) *frontend.Imports {
	imp := &frontend.Imports{Classes: map[string]*frontend.ClassDecl{}, Funcs: map[string]*frontend.FuncDecl{}}
	for j, files := range parsed {
		if j == self {
			continue
		}
		for _, f := range files {
			for _, cd := range f.Classes {
				if hide(cd.Name) {
					continue
				}
				if cd.Init == nil {
					cd.Init = &frontend.FuncDecl{Name: "init", Class: cd.Name, IsInit: true, Ret: frontend.VoidType, Line: cd.Line}
					for _, fld := range cd.Fields {
						cd.Init.Params = append(cd.Init.Params, frontend.Param{Name: fld.Name, Type: fld.Type})
					}
				}
				imp.Classes[cd.Name] = cd
			}
			for _, fn := range f.Funcs {
				if len(fn.Generics) == 0 && !hide(fn.Name) {
					imp.Funcs[fn.Name] = fn
				}
			}
		}
	}
	return imp
}

// stubImports is the same import set built from stubs that went through the
// codec, as a warm build's are.
func stubImports(t *testing.T, parsed [][]*frontend.File, self int, hide func(name string) bool) *frontend.Imports {
	t.Helper()
	imp := &frontend.Imports{Classes: map[string]*frontend.ClassDecl{}, Funcs: map[string]*frontend.FuncDecl{}}
	for j, files := range parsed {
		if j == self {
			continue
		}
		stub, err := artifact.DecodeStub(artifact.EncodeStub(frontend.NewStub(files...)))
		if err != nil {
			t.Fatalf("module %d: stub does not survive its codec: %v", j, err)
		}
		for _, cd := range stub.Classes {
			if !hide(cd.Name) {
				imp.Classes[cd.Name] = cd
			}
		}
		for _, fn := range stub.Funcs {
			if !hide(fn.Name) {
				imp.Funcs[fn.Name] = fn
			}
		}
	}
	return imp
}

// assertStubComplete lowers every module twice — importing the other modules'
// full ASTs, then only their decoded stubs — and requires identical LLIR
// bytes: the stub carries everything an importer reads. hide(self) names the
// imports module self must not see.
func assertStubComplete(t *testing.T, srcs []pipeline.Source, hide func(self int) func(name string) bool) {
	t.Helper()
	parse := func() [][]*frontend.File {
		parsed := make([][]*frontend.File, len(srcs))
		for i, s := range srcs {
			var err error
			if parsed[i], err = pipeline.ParseSource(s); err != nil {
				t.Fatalf("module %s: %v", s.Name, err)
			}
		}
		return parsed
	}
	cfg := pipeline.Config{SILOutline: true, SpecializeClosures: true, Verify: true}
	astParsed, stubParsed := parse(), parse()
	for i, s := range srcs {
		viaAST, err := pipeline.CompileToLLIR(s, cfg, astImports(astParsed, i, hide(i)))
		if err != nil {
			t.Fatalf("module %s against AST imports: %v", s.Name, err)
		}
		viaStub, err := pipeline.CompileToLLIR(s, cfg, stubImports(t, stubParsed, i, hide(i)))
		if err != nil {
			t.Fatalf("module %s against stub imports: %v", s.Name, err)
		}
		if !bytes.Equal(artifact.EncodeModule(viaAST), artifact.EncodeModule(viaStub)) {
			t.Errorf("module %s lowers differently against stubs than against full ASTs", s.Name)
		}
	}
}

func TestStubCompleteOnAppgenCorpus(t *testing.T) {
	nothing := func(int) func(string) bool { return func(string) bool { return false } }
	assertStubComplete(t, appgen.Sources(smallCorpus(t)), nothing)
	assertStubComplete(t, appgen.Sources(appgen.Generate(appgen.UberEats, 0.2)), nothing)
}

// The benchmark programs are self-contained, so as modules of one build they
// redeclare each other's names; each imports every declaration of the others
// that does not collide with its own.
func TestStubCompleteOnBenchmarkPrograms(t *testing.T) {
	progs := mustLoadBenchmarks(t)
	names := make([]string, 0, len(progs))
	for n := range progs {
		names = append(names, n)
	}
	sort.Strings(names)
	srcs := make([]pipeline.Source, len(names))
	declared := make([]map[string]bool, len(names))
	for i, n := range names {
		srcs[i] = src("M"+strings.TrimSuffix(n, ".sl"), progs[n])
		files, err := pipeline.ParseSource(srcs[i])
		if err != nil {
			t.Fatal(err)
		}
		declared[i] = map[string]bool{}
		for _, f := range files {
			for _, cd := range f.Classes {
				declared[i][cd.Name] = true
			}
			for _, fn := range f.Funcs {
				declared[i][fn.Name] = true
			}
		}
	}
	assertStubComplete(t, srcs, func(self int) func(string) bool {
		return func(name string) bool { return declared[self][name] }
	})
}

// realBodyEdit changes what one function of the named module computes — an
// edit that, unlike appgen.EditBody's appended comment, alters the module's
// LLIR and so its machine-stage key.
func realBodyEdit(t *testing.T, mods []appgen.Module, name string) []appgen.Module {
	t.Helper()
	out := append([]appgen.Module(nil), mods...)
	for i, m := range out {
		if m.Name != name {
			continue
		}
		file := m.Name + ".sl"
		edited := strings.Replace(m.Files[file], "return acc\n", "return acc + 1\n", 1)
		if edited == m.Files[file] {
			t.Fatalf("module %s has no `return acc` to edit", name)
		}
		out[i].Files = map[string]string{file: edited}
		return out
	}
	t.Fatalf("no module named %s", name)
	return nil
}

// The work-done counters: a warm rebuild parses, decodes and recompiles only
// what the edit invalidated.
func TestWarmBuildDoesOnlyInvalidatedWork(t *testing.T) {
	mods := smallCorpus(t)
	n := int64(len(mods))
	target := mods[len(mods)/2].Name
	cfg := pipeline.Default
	cfg.Verify = true
	want := func(t *testing.T, c map[string]int64, exp map[string]int64) {
		t.Helper()
		for name, v := range exp {
			if c[name] != v {
				t.Errorf("%s = %d, want %d", name, c[name], v)
			}
		}
	}
	for _, tc := range []struct {
		name string
		edit func() []appgen.Module
		exp  map[string]int64
	}{
		{"no edit", func() []appgen.Module { return mods }, map[string]int64{
			"frontend/modules_parsed": 0, "cache/llir/bodies_decoded": 0,
			"cache/iface/misses": 0, "cache/llir/misses": 0, "cache/machine/misses": 0,
			"cache/iface/hits": n, "cache/llir/hits": n, "cache/machine/hits": n,
		}},
		{"comment edit", func() []appgen.Module { return appgen.EditBody(mods, target, "t") }, map[string]int64{
			"frontend/modules_parsed": 1, "cache/llir/bodies_decoded": 0,
			"cache/iface/misses": 1, "cache/llir/misses": 1, "cache/machine/misses": 0,
		}},
		{"body edit", func() []appgen.Module { return realBodyEdit(t, mods, target) }, map[string]int64{
			"frontend/modules_parsed": 1, "cache/llir/bodies_decoded": 0,
			"cache/iface/misses": 1, "cache/llir/misses": 1, "cache/machine/misses": 1,
			"cache/machine/hits": n - 1,
		}},
		{"interface edit", func() []appgen.Module { return appgen.EditInterface(mods, target, "t") }, map[string]int64{
			// Every module imports every other: all of them re-lower, and all
			// but the edited one must be parsed just for that.
			"frontend/modules_parsed": n, "cache/iface/misses": 1, "cache/iface/hits": n - 1,
			"cache/llir/misses": n, "cache/llir/hits": 0,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			defer cache.Forget(dir)
			cfg := cfg
			cfg.CacheDir = dir
			cold := buildScaled(t, mods, cfg)
			want(t, cold, map[string]int64{
				"frontend/modules_parsed": n, "cache/llir/bodies_decoded": 0,
				"cache/iface/misses": n, "cache/llir/misses": n, "cache/machine/misses": n,
			})
			c, err := cache.Shared(dir)
			if err != nil {
				t.Fatal(err)
			}
			c.DropMemory()
			want(t, buildScaled(t, tc.edit(), cfg), tc.exp)
		})
	}

	// The whole-program pipeline's IR link consumes every body: a warm build
	// decodes them all (in the lowering stage's workers) and still parses
	// nothing.
	t.Run("whole program", func(t *testing.T) {
		dir := t.TempDir()
		defer cache.Forget(dir)
		cfg := pipeline.OSize
		cfg.CacheDir = dir
		buildScaled(t, mods, cfg)
		want(t, buildScaled(t, mods, cfg), map[string]int64{
			"frontend/modules_parsed": 0, "cache/llir/bodies_decoded": n, "cache/llir/hits": n,
		})
	})
}

// generatedListing builds generated modules and returns the image listing.
func generatedListing(t *testing.T, mods []appgen.Module, cfg pipeline.Config) string {
	t.Helper()
	listing, _ := buildListing(t, cfg, cfg.CacheDir, appgen.Sources(mods))
	return listing
}

// The acceptance guarantee on a corpus with ObjC-flavoured modules: uncached,
// cold, warm-from-disk and warm-from-memory builds are byte-identical at any
// -j — under the default pipeline, under the daemon's default config (where
// per-module merging takes its keep sets from summaries) and under the
// shipped whole-program config.
func TestSummaryFirstByteIdentity(t *testing.T) {
	mods := smallCorpus(t)
	slcdDefault := pipeline.Config{
		OutlineRounds: 1, MergeFunctions: true, Verify: true, SILOutline: true,
		SpecializeClosures: true, PreserveDataLayout: true, SplitGCMetadata: true,
	}
	full := slcdDefault
	full.FMSA = true
	full.OutlineRounds = 2
	for name, cfg := range map[string]pipeline.Config{
		"default": pipeline.Default, "slcd-default": slcdDefault, "merge+fmsa": full, "osize": pipeline.OSize,
	} {
		for _, j := range []int{1, 4} {
			cfg := cfg
			cfg.Verify = true
			cfg.Parallelism = j
			t.Run(fmt.Sprintf("%s-j%d", name, j), func(t *testing.T) {
				ref := generatedListing(t, mods, cfg)
				dir := t.TempDir()
				defer cache.Forget(dir)
				cfg.CacheDir = dir
				if generatedListing(t, mods, cfg) != ref {
					t.Fatal("cold cached build differs from the uncached build")
				}
				if generatedListing(t, mods, cfg) != ref {
					t.Fatal("warm (memory-tier) build differs from the uncached build")
				}
				c, err := cache.Shared(dir)
				if err != nil {
					t.Fatal(err)
				}
				c.DropMemory()
				if generatedListing(t, mods, cfg) != ref {
					t.Fatal("warm (disk-tier) build differs from the uncached build")
				}
				// An edited module rebuilt over the warm cache equals its
				// uncached build too: lazily decoded neighbours included.
				edited := realBodyEdit(t, mods, mods[len(mods)/2].Name)
				cfg.CacheDir = ""
				editedRef := generatedListing(t, edited, cfg)
				cfg.CacheDir = dir
				if generatedListing(t, edited, cfg) != editedRef {
					t.Fatal("warm rebuild of an edited corpus differs from its uncached build")
				}
			})
		}
	}
}

// The flavour is part of the machine key: the same sources built with and
// without the ObjC mark share iface and llir entries (both pre-flavour) and
// never a machine entry.
func TestObjCFlavourJoinsMachineKeyOnly(t *testing.T) {
	dir := t.TempDir()
	defer cache.Forget(dir)
	cfg := pipeline.Default
	cfg.Verify = true
	cfg.CacheDir = dir
	plain := cacheTestSources()
	buildListing(t, cfg, dir, plain)
	marked := cacheTestSources()
	marked[1].ObjC = true
	ref, _ := buildListing(t, cfg, "", marked)
	got, c := buildListing(t, cfg, dir, marked)
	if got != ref {
		t.Fatal("flavoured build over an unflavoured build's cache differs from its uncached build")
	}
	if c["cache/iface/hits"] != 2 || c["cache/llir/hits"] != 2 {
		t.Fatalf("the flavour must not reach the iface or llir keys: %+v", c)
	}
	if c["cache/machine/hits"] != 1 || c["cache/machine/misses"] != 1 {
		t.Fatalf("want exactly the flavoured module's machine entry to miss: %+v", c)
	}
	if !strings.Contains(got, "objc_retain") && !strings.Contains(got, "objc_release") {
		t.Fatal("the flavoured module's code does not call the ObjC runtime")
	}
}

// rewriteEntries rewrites, in place and with a valid envelope, the payload of
// every on-disk cache entry of one artifact kind ('I' stub, 'L' llir, 'M'
// machine), and returns how many it rewrote.
func rewriteEntries(t *testing.T, dir string, kind byte, mutate func(payload []byte) []byte) int {
	t.Helper()
	ents, err := filepath.Glob(filepath.Join(dir, "*.art"))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, p := range ents {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		payload := raw[12 : len(raw)-sha256.Size]
		if len(payload) < 5 || payload[4] != kind {
			continue
		}
		payload = mutate(append([]byte(nil), payload...))
		e := append([]byte("SLC1"), binary.LittleEndian.AppendUint64(nil, uint64(len(payload)))...)
		e = append(e, payload...)
		sum := sha256.Sum256(payload)
		if err := os.WriteFile(p, append(e, sum[:]...), 0o644); err != nil {
			t.Fatal(err)
		}
		n++
	}
	c, err := cache.Shared(dir)
	if err != nil {
		t.Fatal(err)
	}
	c.DropMemory()
	return n
}

// Damage the checksum does not catch — a well-formed envelope around a
// truncated stub, a truncated summary header, or a sound header in front of a
// truncated body — is a miss that gets republished, never a build error and
// never a different image.
func TestDamagedStubsAndSummariesDegradeToMisses(t *testing.T) {
	cfg := pipeline.Config{OutlineRounds: 1, SILOutline: true, MergeFunctions: true, Verify: true}
	srcs := cacheTestSources()
	n := int64(len(srcs))
	for _, tc := range []struct {
		name   string
		kind   byte
		mutate func([]byte) []byte
		// corrupt is the stage whose probes must all miss as corrupt.
		corrupt string
		after   map[string]int64
	}{
		{"truncated stub", 'I', func(p []byte) []byte { return p[:len(p)-3] }, "iface",
			map[string]int64{"frontend/modules_parsed": n, "cache/llir/hits": n, "cache/machine/hits": n}},
		{"stub with trailing bytes", 'I', func(p []byte) []byte { return append(p, 0) }, "iface",
			map[string]int64{"frontend/modules_parsed": n, "cache/llir/hits": n}},
		{"truncated summary header", 'L', func(p []byte) []byte { return p[:8] }, "llir",
			map[string]int64{"cache/iface/hits": n, "frontend/modules_parsed": n, "cache/machine/hits": n}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			defer cache.Forget(dir)
			ref, _ := buildListing(t, cfg, dir, srcs)
			if got := rewriteEntries(t, dir, tc.kind, tc.mutate); int64(got) != n {
				t.Fatalf("rewrote %d entries, want %d", got, n)
			}
			got, c := buildListing(t, cfg, dir, srcs)
			if got != ref {
				t.Fatal("rebuild over damaged entries differs from the original build")
			}
			if c["cache/"+tc.corrupt+"/misses"] != n || c["cache/corrupt"] != n {
				t.Fatalf("want every %s probe to miss as corrupt: %+v", tc.corrupt, c)
			}
			for name, v := range tc.after {
				if c[name] != v {
					t.Errorf("%s = %d, want %d", name, c[name], v)
				}
			}
			// The rebuild republished sound entries over the damaged ones.
			cc, err := cache.Shared(dir)
			if err != nil {
				t.Fatal(err)
			}
			cc.DropMemory()
			warm, wc := buildListing(t, cfg, dir, srcs)
			if warm != ref || wc["cache/hits"] != wc["cache/probes"] || wc["cache/corrupt"] != 0 {
				t.Fatalf("republished entries do not hit: %+v", wc)
			}
		})
	}

	// A sound header in front of a damaged body is discovered only when a
	// machine-stage miss finally wants the body; the module is then recompiled
	// from source.
	t.Run("truncated body behind a sound header", func(t *testing.T) {
		dir := t.TempDir()
		defer cache.Forget(dir)
		buildListing(t, cfg, dir, srcs)
		rewriteEntries(t, dir, 'L', func(p []byte) []byte { return p[:len(p)-2] })
		// More outlining rounds: every llir entry still hits (by its header),
		// every machine entry misses and asks for the body.
		more := cfg
		more.OutlineRounds = 3
		ref, _ := buildListing(t, more, "", srcs)
		got, c := buildListing(t, more, dir, srcs)
		if got != ref {
			t.Fatal("build over damaged llir bodies differs from the uncached build")
		}
		if c["cache/llir/hits"] != n || c["cache/machine/misses"] != n {
			t.Fatalf("want header hits and machine misses: %+v", c)
		}
		if c["cache/corrupt"] != n || c["frontend/modules_parsed"] != n {
			t.Fatalf("want every damaged body counted and recompiled from source: %+v", c)
		}
	})
}

// -summary shows the three stages and the work the misses cost.
func TestSummaryShowsStagesAndWorkDone(t *testing.T) {
	dir := t.TempDir()
	defer cache.Forget(dir)
	cfg := pipeline.Config{OutlineRounds: 1, SILOutline: true, Verify: true, CacheDir: dir}
	if _, err := pipeline.Build(cacheTestSources(), cfg); err != nil {
		t.Fatal(err)
	}
	tr := obs.New()
	cfg.Tracer = tr
	if _, err := pipeline.Build(cacheTestSources(), cfg); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"cache: 6 probes, 6 hits, 0 misses",
		"iface    2       2     0",
		"llir     2       2     0",
		"machine  2       2     0",
		"cache work: 0 modules parsed, 0 llir bodies decoded",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary is missing %q:\n%s", want, out)
		}
	}
}
