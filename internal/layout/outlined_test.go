package layout_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"outliner/internal/appgen"
	"outliner/internal/isa"
	"outliner/internal/layout"
	"outliner/internal/mir"
	"outliner/internal/outline"
	"outliner/internal/pipeline"
	"outliner/internal/verify"
)

var externRT = map[string]bool{"swift_release": true}

func parse(t *testing.T, src string) *mir.Program {
	t.Helper()
	p, err := mir.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return p
}

func outlined(t *testing.T, src string) *mir.Program {
	t.Helper()
	p := parse(t, src)
	if _, err := outline.Outline(p, outline.Options{Rounds: 3, Verify: true, ExternSyms: externRT}); err != nil {
		t.Fatalf("Outline: %v", err)
	}
	return p
}

func applyOutlined(t *testing.T, p *mir.Program) *layout.Stats {
	t.Helper()
	st, err := layout.Apply(p, layout.Options{Policy: layout.Outlined})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestLayoutOutlined(t *testing.T) {
	var src strings.Builder
	for i := 0; i < 6; i++ {
		fmt.Fprintf(&src, `
func @h%d {
entry:
  STPXpre $x29, $x30, $sp, #-16
  ORRXrs $x0, $xzr, $x19
  BL @swift_release
  ORRXrs $x0, $xzr, $x20
  BL @swift_release
  MOVZXi $x1, #%d
  LDPXpost $x29, $x30, $sp, #16
  RET
}
`, i, i)
	}
	p := outlined(t, src.String())
	if st := applyOutlined(t, p); st.Moved == 0 {
		t.Fatal("no functions moved")
	}
	if err := verify.Program(p, externRT).Err(); err != nil {
		t.Fatalf("layout broke the program: %v", err)
	}
	// Every outlined function follows a function that calls it (or a chain
	// member attached to that caller), so none comes first.
	if p.Funcs[0].Outlined {
		t.Errorf("outlined %s placed first", p.Funcs[0].Name)
	}
	q := outlined(t, src.String())
	applyOutlined(t, q)
	if p.String() != q.String() {
		t.Error("layout is nondeterministic")
	}
}

func TestLayoutNoOutlinedIsNoop(t *testing.T) {
	p := parse(t, `
func @a {
entry:
  RET
}
`)
	if st := applyOutlined(t, p); st.Moved != 0 {
		t.Errorf("moved %d in a program without outlined functions", st.Moved)
	}
}

// callerAdjacentReference is the caller-adjacent placement as outlining's
// §VIII extension computed it before it became a layout policy, returning the
// order instead of installing it.
func callerAdjacentReference(prog *mir.Program) []string {
	names := func(fs []*mir.Function) []string {
		out := make([]string, len(fs))
		for i, f := range fs {
			out[i] = f.Name
		}
		return out
	}
	outlined := make(map[string]bool)
	for _, f := range prog.Funcs {
		if f.Outlined {
			outlined[f.Name] = true
		}
	}
	if len(outlined) == 0 {
		return names(prog.Funcs)
	}
	type edge struct {
		caller string
		count  int
	}
	best := make(map[string]edge)
	for _, f := range prog.Funcs {
		counts := make(map[string]int)
		for _, b := range f.Blocks {
			for _, in := range b.Insts {
				if (in.Op == isa.BL || in.Op == isa.B) && outlined[in.Sym] {
					counts[in.Sym]++
				}
			}
		}
		for callee, c := range counts {
			e, ok := best[callee]
			if !ok || c > e.count {
				best[callee] = edge{caller: f.Name, count: c}
			}
		}
	}
	anchorOf := func(name string) string {
		seen := map[string]bool{}
		for outlined[name] && !seen[name] {
			seen[name] = true
			e, ok := best[name]
			if !ok {
				return ""
			}
			name = e.caller
		}
		return name
	}
	attach := make(map[string][]*mir.Function)
	var keep []*mir.Function
	for _, f := range prog.Funcs {
		if !f.Outlined {
			keep = append(keep, f)
			continue
		}
		a := anchorOf(f.Name)
		if a == "" {
			keep = append(keep, f)
			continue
		}
		attach[a] = append(attach[a], f)
	}
	for _, fs := range attach {
		sort.Slice(fs, func(i, j int) bool { return fs[i].Name < fs[j].Name })
	}
	var out []*mir.Function
	for _, f := range keep {
		out = append(out, f)
		out = append(out, attach[f.Name]...)
	}
	return names(out)
}

// The outlined policy orders the benchmark programs and a 24-module app,
// outlined by the whole-program pipeline, exactly as caller-adjacent
// placement did, through mir.ReorderFuncs.
func TestOutlinedOrderMatchesCallerAdjacentPlacement(t *testing.T) {
	paths, err := filepath.Glob("../../testdata/benchmarks/*.sl")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no benchmark programs found: %v", err)
	}
	type app struct {
		name string
		srcs []pipeline.Source
	}
	var apps []app
	for _, path := range paths {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		name := strings.TrimSuffix(filepath.Base(path), ".sl")
		apps = append(apps, app{name, []pipeline.Source{{Name: name, Files: map[string]string{filepath.Base(path): string(text)}}}})
	}
	mods := appgen.Generate(appgen.UberRider, appgen.ScaleForModules(appgen.UberRider, 24))
	apps = append(apps, app{"UberRider-24", appgen.Sources(mods)})

	cfg := pipeline.OSize
	cfg.Verify = true
	moved := 0
	for _, a := range apps {
		res, err := pipeline.Build(a.srcs, cfg)
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		want := callerAdjacentReference(res.Prog)
		st := applyOutlined(t, res.Prog)
		moved += st.Moved
		for i, f := range res.Prog.Funcs {
			if f.Name != want[i] {
				t.Fatalf("%s: function %d is %s, caller-adjacent placement puts %s there", a.name, i, f.Name, want[i])
			}
		}
	}
	if moved == 0 {
		t.Fatal("no program had an outlined function to move")
	}
}
