package pipeline_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"outliner/internal/appgen"
	"outliner/internal/codegen"
	"outliner/internal/frontend"
	"outliner/internal/irlink"
	"outliner/internal/llir"
	"outliner/internal/pipeline"
)

// updateGoldenIdentity re-records testdata/golden_identity.json. The committed
// file was recorded at the commit *before* the compile path moved to dense
// tables, so it pins that rewrite (and any later one) to the exact value
// numbering, merge decisions and machine code of the map-based code.
var updateGoldenIdentity = flag.Bool("update-golden-identity", false,
	"re-record testdata/golden_identity.json from the current code")

const goldenIdentityFile = "testdata/golden_identity.json"

// identityApp is one independently built program of a corpus.
type identityApp struct {
	name string
	srcs []pipeline.Source
}

func appgenApp(modules int) []identityApp {
	mods := appgen.Generate(appgen.UberRider, appgen.ScaleForModules(appgen.UberRider, modules))
	return []identityApp{{name: fmt.Sprintf("UberRider-%d", modules), srcs: appgen.Sources(mods)}}
}

func benchmarkApps(t *testing.T) []identityApp {
	t.Helper()
	paths, err := filepath.Glob("../../testdata/benchmarks/*.sl")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no benchmark programs found: %v", err)
	}
	sort.Strings(paths)
	var apps []identityApp
	for _, p := range paths {
		text, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		name := strings.TrimSuffix(filepath.Base(p), ".sl")
		apps = append(apps, identityApp{name: name, srcs: []pipeline.Source{{
			Name: name, Files: map[string]string{filepath.Base(p): string(text)},
		}}})
	}
	return apps
}

// lowerApp lowers every module of an app the way the pipeline's front half
// does: FromSIR, then SimplifyCFG + DCE per function.
func lowerApp(t *testing.T, app identityApp) []*llir.Module {
	t.Helper()
	parsed := make([][]*frontend.File, len(app.srcs))
	for i, s := range app.srcs {
		var err error
		if parsed[i], err = pipeline.ParseSource(s); err != nil {
			t.Fatalf("%s: module %s: %v", app.name, s.Name, err)
		}
	}
	ix := frontend.NewImportsIndex(parsed...)
	cfg := pipeline.Config{SILOutline: true, SpecializeClosures: true, Verify: true}
	mods := make([]*llir.Module, len(app.srcs))
	for i, s := range app.srcs {
		var err error
		if mods[i], err = pipeline.CompileToLLIR(s, cfg, ix.For(i)); err != nil {
			t.Fatalf("%s: module %s: %v", app.name, s.Name, err)
		}
	}
	return mods
}

func linkApp(t *testing.T, app identityApp) *llir.Module {
	t.Helper()
	merged, err := irlink.Link(lowerApp(t, app), irlink.Options{SplitGCMetadata: true, PreserveModuleOrder: true})
	if err != nil {
		t.Fatalf("%s: irlink: %v", app.name, err)
	}
	return merged
}

// identityDigests accumulates one sha256 per stage name.
type identityDigests map[string]hash.Hash

func (d identityDigests) add(stage, text string) {
	h := d[stage]
	if h == nil {
		h = sha256.New()
		d[stage] = h
	}
	fmt.Fprintf(h, "%d\n%s", len(text), text)
}

func (d identityDigests) sums() map[string]string {
	out := make(map[string]string, len(d))
	for stage, h := range d {
		out[stage] = hex.EncodeToString(h.Sum(nil))
	}
	return out
}

func compileText(t *testing.T, m *llir.Module, j int) string {
	t.Helper()
	prog, err := codegen.CompileWith(m, j)
	if err != nil {
		t.Fatalf("codegen %s: %v", m.Name, err)
	}
	return prog.String()
}

// corpusDigests computes every stage digest of a corpus at worker count j:
//
//	llir           text after FromSIR + SimplifyCFG + DCE, per module
//	merge          the IR-linked program after MergeFunctions (+ its stats)
//	merge-keeping  each module after MergeFunctionsKeeping with every other
//	               function kept (+ its stats)
//	merge-similar  the IR-linked program after MergeSimilarFunctions (+ its
//	               stats)
//	mir            codegen.CompileWith of each module and of the merged program
//	image-default  the final image listing under pipeline.Default
//	image-osize    the same under pipeline.OSize
func corpusDigests(t *testing.T, apps []identityApp, j int) map[string]string {
	t.Helper()
	d := identityDigests{}
	for _, app := range apps {
		mods := lowerApp(t, app)
		for _, m := range mods {
			d.add("llir", m.String())
			d.add("mir", compileText(t, m, j))
		}
		for _, m := range mods {
			keep := make(map[string]bool)
			for i, f := range m.Funcs {
				if i%2 == 0 {
					keep[f.Name] = true
				}
			}
			st := llir.MergeFunctionsKeeping(m, keep)
			d.add("merge-keeping", fmt.Sprintf("%+v\n%s", st, m.String()))
		}

		merged := linkApp(t, app)
		st := llir.MergeFunctions(merged)
		d.add("merge", fmt.Sprintf("%+v\n%s", st, merged.String()))
		d.add("mir", compileText(t, merged, j))

		similar := linkApp(t, app)
		st = llir.MergeSimilarFunctions(similar, nil)
		d.add("merge-similar", fmt.Sprintf("%+v\n%s", st, similar.String()))

		for stage, cfg := range map[string]pipeline.Config{
			"image-default": pipeline.Default, "image-osize": pipeline.OSize,
		} {
			cfg.Parallelism = j
			cfg.Verify = true
			res, err := pipeline.Build(app.srcs, cfg)
			if err != nil {
				t.Fatalf("%s: %s build: %v", app.name, stage, err)
			}
			var sb strings.Builder
			if err := res.WriteImageListing(&sb); err != nil {
				t.Fatal(err)
			}
			d.add(stage, sb.String())
		}
	}
	return d.sums()
}

// largeSmallLargeDigests compiles the 24-module program with its functions
// ordered largest, smallest, second largest, second smallest, …: the per-lane
// codegen scratch is reused from one function to the next, so a function
// compiled right after a much larger one must not see its leftovers.
func largeSmallLargeDigests(t *testing.T, j int) map[string]string {
	t.Helper()
	merged := linkApp(t, appgenApp(24)[0])
	bySize := append([]*llir.Func(nil), merged.Funcs...)
	sort.SliceStable(bySize, func(a, b int) bool {
		if na, nb := bySize[a].NumInsts(), bySize[b].NumInsts(); na != nb {
			return na > nb
		}
		return bySize[a].Name < bySize[b].Name
	})
	zig := llir.NewModule("large-small-large")
	for lo, hi := 0, len(bySize)-1; lo <= hi; lo, hi = lo+1, hi-1 {
		zig.AddFunc(bySize[lo])
		if lo != hi {
			zig.AddFunc(bySize[hi])
		}
	}
	zig.Globals = merged.Globals
	d := identityDigests{}
	d.add("mir", compileText(t, zig, j))
	return d.sums()
}

// TestGoldenIdentity pins the compile path's exact output — value numbering
// out of FromSIR, MergeFunctions' decisions, the machine code out of codegen
// and the final images — to digests recorded before that path was rewritten
// onto dense tables and per-lane scratch. It runs at -j 1 and -j 4 and (in
// CI's race step) under the race detector: the digests do not depend on the
// worker count or on instrumentation.
func TestGoldenIdentity(t *testing.T) {
	corpora := []struct {
		name    string
		digests func(t *testing.T, j int) map[string]string
	}{
		{"appgen-24", func(t *testing.T, j int) map[string]string { return corpusDigests(t, appgenApp(24), j) }},
		{"appgen-80", func(t *testing.T, j int) map[string]string { return corpusDigests(t, appgenApp(80), j) }},
		{"benchmarks-26", func(t *testing.T, j int) map[string]string { return corpusDigests(t, benchmarkApps(t), j) }},
		{"large-small-large", largeSmallLargeDigests},
	}

	golden := map[string]map[string]string{}
	if !*updateGoldenIdentity {
		raw, err := os.ReadFile(goldenIdentityFile)
		if err != nil {
			t.Fatalf("%v (record with -update-golden-identity)", err)
		}
		if err := json.Unmarshal(raw, &golden); err != nil {
			t.Fatalf("%s: %v", goldenIdentityFile, err)
		}
	}

	for _, c := range corpora {
		if testing.Short() && c.name == "appgen-80" {
			continue
		}
		for _, j := range []int{1, 4} {
			got := c.digests(t, j)
			if *updateGoldenIdentity && j == 1 {
				golden[c.name] = got
				continue
			}
			want := golden[c.name]
			if len(want) != len(got) {
				t.Errorf("%s: %d recorded stages, computed %d", c.name, len(want), len(got))
			}
			for stage, sum := range got {
				if want[stage] != sum {
					t.Errorf("%s -j %d: stage %s digest %s, recorded %s", c.name, j, stage, sum, want[stage])
				}
			}
		}
	}

	if *updateGoldenIdentity && !t.Failed() {
		raw, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenIdentityFile, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
