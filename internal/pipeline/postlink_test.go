package pipeline_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"outliner/internal/artifact"
	"outliner/internal/exec"
	"outliner/internal/isa"
	"outliner/internal/layout"
	"outliner/internal/mir"
	"outliner/internal/obs"
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
// program itself, after a trip through MIR text — the `slc -rounds 0 -emit
// mir | outline -rounds 5` path of the paper's artifact — and after a trip
// through the machine artifact codec, whose decoded blocks the outliner
// rewrites in place, for every app. The
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
				"decoded": func() (*mir.Program, error) {
					p, _, err := artifact.DecodeMachine(artifact.EncodeMachine(res.Prog, nil))
					return p, err
				},
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

// Code generation emits commutative operations in canonical operand order,
// lower-numbered register first, so every image of either pipeline has
// Rn <= Rm in each ADD, AND, EOR, MUL and non-move ORR: outlining only
// copies instructions, it never reorders an operand. The register move
// keeps XZR in Rn. BuildMIR's input is the caller's: a textual program out
// of canonical order is left as given.
func TestCanonicalOperandOrder(t *testing.T) {
	for _, app := range append(benchmarkApps(t), appgenApp(24)...) {
		for _, cfg := range []pipeline.Config{pipeline.OSize, pipeline.Default} {
			res, err := pipeline.Build(app.srcs, cfg)
			if err != nil {
				t.Fatalf("%s, whole-program %t: %v", app.name, cfg.WholeProgram, err)
			}
			if f, in, ok := outOfOrder(res.Prog); ok {
				t.Errorf("%s, whole-program %t: @%s: %s is out of canonical order", app.name, cfg.WholeProgram, f, in)
			}
		}
	}

	prog, err := mir.Parse("func @main {\nentry:\n  ADDXrs $x0, $x3, $x1\n  RET\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipeline.BuildMIR(prog, pipeline.Config{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := outOfOrder(res.Prog); !ok {
		t.Error("BuildMIR with no outlining rounds reordered its input's operands")
	}
}

// outOfOrder reports the first commutative instruction of prog whose
// operands are not in canonical order.
func outOfOrder(prog *mir.Program) (string, isa.Inst, bool) {
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Insts {
				switch in.Op {
				case isa.ADDrs, isa.ANDrs, isa.EORrs, isa.MUL, isa.ORRrs:
					if in.Rn > in.Rm && !(in.Op == isa.ORRrs && in.Rn == isa.XZR) {
						return f.Name, in, true
					}
				}
			}
		}
	}
	return "", isa.Inst{}, false
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
