package pipeline_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"outliner/internal/exec"
	"outliner/internal/layout"
	"outliner/internal/mir"
	"outliner/internal/obs"
	"outliner/internal/outline"
	"outliner/internal/pipeline"
	"outliner/internal/profile"
)

// listing renders res's image listing.
func listing(t *testing.T, res *pipeline.Result) string {
	t.Helper()
	var buf bytes.Buffer
	if err := res.WriteImageListing(&buf); err != nil {
		t.Fatalf("WriteImageListing: %v", err)
	}
	return buf.String()
}

// Post-link outlining is one transformation whoever links the program: an
// unoutlined build finished by BuildMIR gives the image a five-round build
// gives. Checked plain and with an executed profile driving c3 layout, on the
// program itself and after a trip through MIR text — the `slc -rounds 0 -emit
// mir | outline -rounds 5` path of the paper's artifact — for every app. The
// program finished from text must also print what the unoutlined build
// prints when run.
func TestBuildMIRFinishesLikeBuild(t *testing.T) {
	for _, app := range append(benchmarkApps(t), appgenApp(24)...) {
		t.Run(app.name, func(t *testing.T) {
			base := pipeline.OSize
			base.Verify = true
			prof, _ := collectMainProfile(t, base, app.srcs)

			unoutlined := base
			unoutlined.OutlineRounds = 0
			res, err := pipeline.Build(app.srcs, unoutlined)
			if err != nil {
				t.Fatalf("Build(rounds 0): %v", err)
			}
			var text bytes.Buffer
			if _, err := res.Prog.WriteTo(&text); err != nil {
				t.Fatal(err)
			}
			inputs := map[string]func() (*mir.Program, error){
				"program": func() (*mir.Program, error) { return res.Prog.Clone(), nil },
				"text":    func() (*mir.Program, error) { return mir.Parse(text.String()) },
			}
			output := runMain(t, res.Prog)

			for _, p := range []*profile.Profile{nil, prof} {
				tail := pipeline.Config{OutlineRounds: 5, Verify: true}
				whole := base
				if p != nil {
					tail.Profile, tail.Layout = p, layout.C3
					whole.Profile, whole.Layout = p, layout.C3
				}
				want, err := pipeline.Build(app.srcs, whole)
				if err != nil {
					t.Fatalf("Build (layout %q): %v", whole.Layout, err)
				}
				for via, input := range inputs {
					prog, err := input()
					if err != nil {
						t.Fatalf("%s: %v", via, err)
					}
					got, err := pipeline.BuildMIR(prog, tail)
					if err != nil {
						t.Fatalf("BuildMIR from %s (layout %q): %v", via, tail.Layout, err)
					}
					if listing(t, got) != listing(t, want) {
						t.Errorf("BuildMIR from %s (layout %q): image differs from Build's", via, tail.Layout)
					}
					if via == "text" && runMain(t, got.Prog) != output {
						t.Errorf("BuildMIR from text (layout %q): the program prints something else", tail.Layout)
					}
				}
			}
		})
	}
}

// CanonicalizeSequences reaches the outliner whichever pipeline runs: the
// whole-program build canonicalizes in the post-link tail, the per-module
// build in each module's llc task, and either way the built program has no
// commutative operation left to canonicalize. Without the flag some remain,
// so the check has something to find.
func TestCanonicalizeSequencesEveryPipeline(t *testing.T) {
	srcs := appgenApp(4)[0].srcs
	for _, cfg := range []pipeline.Config{pipeline.OSize, pipeline.Default} {
		for _, canon := range []bool{false, true} {
			cfg.CanonicalizeSequences = canon
			res, err := pipeline.Build(srcs, cfg)
			if err != nil {
				t.Fatalf("whole-program %t, canonicalize %t: %v", cfg.WholeProgram, canon, err)
			}
			left := outline.CanonicalizeCommutative(res.Prog)
			if canon && left != 0 {
				t.Errorf("whole-program %t: %d commutative operations left out of canonical order", cfg.WholeProgram, left)
			}
			if !canon && left == 0 {
				t.Fatalf("whole-program %t: the app has nothing to canonicalize", cfg.WholeProgram)
			}
		}
	}
}

// runMain executes prog's main and returns what it printed.
func runMain(t *testing.T, prog *mir.Program) string {
	t.Helper()
	m, err := exec.New(prog, exec.Options{MaxSteps: 10_000_000})
	if err != nil {
		t.Fatalf("exec.New: %v", err)
	}
	out, err := m.Run("main")
	if err != nil {
		t.Fatalf("Run: %v\noutput so far:\n%s", err, out)
	}
	return out
}

// A config no stage could act on fails before the first stage runs: an
// unknown outlining mode publishes nothing to the cache (not even under a key
// of its own), and an unknown layout policy parses nothing.
func TestUnknownConfigRejectedBeforeAnyStage(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	cfg := pipeline.Default
	cfg.CacheDir = dir
	cfg.OnVerifyFailure = "rollback"
	if _, err := pipeline.Build(cacheTestSources(), cfg); err == nil {
		t.Error(`OnVerifyFailure "rollback" was accepted`)
	}
	if entries, err := os.ReadDir(dir); err == nil && len(entries) > 0 {
		t.Errorf("a rejected build wrote %d entries to its cache directory", len(entries))
	}

	tr := obs.New()
	cfg = pipeline.OSize
	cfg.Tracer = tr
	cfg.Layout = "c4"
	if _, err := pipeline.Build(cacheTestSources(), cfg); err == nil {
		t.Error(`Layout "c4" was accepted`)
	}
	if n := tr.Counters()["frontend/modules_parsed"]; n != 0 {
		t.Errorf("a rejected build parsed %d modules", n)
	}
}
