package outline

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"outliner/internal/mir"
	"outliner/internal/obs"
	"outliner/internal/profile"
	"outliner/internal/suffixtree"
)

// orderProgram draws function bodies from a small instruction pool, so the
// finder reports many nested, overlapping repeats, and analysis rejects some
// of them for each of its reasons. Framed functions (LR dead) may call and
// read their frame through SP; leaf functions (LR live) do neither.
func orderProgram(t *testing.T, seed int64) *mir.Program {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pool := []string{
		"MOVZXi $x1, #1",
		"ORRXrs $x2, $xzr, $x1",
		"ADDXrs $x3, $x2, $x1",
		"EORXrs $x4, $x3, $x2",
		"MULXrr $x5, $x4, $x4",
		"LDRXui $x9, $sp, #16",
		"BL @swift_release",
	}
	var src strings.Builder
	for f := 0; f < 60; f++ {
		leaf := f%4 == 0
		body := make([]string, 2+rng.Intn(14))
		for i := range body {
			if leaf {
				body[i] = pool[rng.Intn(len(pool)-2)]
			} else {
				body[i] = pool[rng.Intn(len(pool))]
			}
		}
		if leaf {
			fmt.Fprintf(&src, "func @f%d {\nentry:\n%s  RET\n}\n", f, indent(body))
		} else {
			fmt.Fprintf(&src, "func @f%d {\nentry:\n  STPXpre $x29, $x30, $sp, #-32\n%s  LDPXpost $x29, $x30, $sp, #32\n  RET\n}\n",
				f, indent(body))
		}
	}
	return mustParse(t, src.String())
}

// TestAnalyzeRepeatsIgnoresFinderOrder hands analyzeRepeats one round's
// repeats in the order the finder reports them and reversed, with every
// Starts reversed as well: the candidate sets and the remarks must come out
// identical, so the finder is free to report repeats in any order. With a
// profile and cold-only gating, hot-function rejections and hotness
// annotations are covered too.
func TestAnalyzeRepeatsIgnoresFinderOrder(t *testing.T) {
	for _, gated := range []bool{false, true} {
		prog := orderProgram(t, 1)
		opts := Options{Parallelism: 4}
		if gated {
			prof := profile.New()
			for i, f := range prog.Funcs {
				if i%5 == 0 {
					prof.Func(f.Name).Entries = 3
				}
			}
			opts.Profile, opts.ColdThreshold = prof, 2
		}
		opts = opts.withDefaults()

		analyze := func(reverse bool) (string, []obs.Remark, int) {
			var sc scratch
			if err := sc.m.remap(prog); err != nil {
				t.Fatal(err)
			}
			var repeats []suffixtree.Repeat
			sc.stb.Build(sc.m.str).ForEachRepeat(minLength, 2, func(r suffixtree.Repeat) {
				if reverse {
					r.Starts = slices.Clone(r.Starts)
					slices.Reverse(r.Starts)
				}
				repeats = append(repeats, r)
			})
			if reverse {
				slices.Reverse(repeats)
			}
			o := opts
			o.Tracer = obs.New()
			sets, rems := analyzeRepeats(prog, repeats, o, 1, &sc)
			var b strings.Builder
			for _, s := range sets {
				fmt.Fprintf(&b, "%+v\n", *s)
			}
			return b.String(), rems, len(repeats)
		}
		sets, rems, n := analyze(false)
		revSets, revRems, _ := analyze(true)
		if sets != revSets {
			t.Errorf("gated=%t: reversing the repeats changed the candidate sets", gated)
		}
		if !reflect.DeepEqual(rems, revRems) {
			t.Errorf("gated=%t: reversing the repeats changed the remarks", gated)
		}

		reasons := map[string]int{}
		for _, r := range rems {
			reasons[r.Reason]++
		}
		want := []string{"too-few-occurrences", "unprofitable", "sp-access-under-lr-spill"}
		if gated {
			want = append(want, "hot-function")
		}
		for _, reason := range want {
			if reasons[reason] < 2 {
				t.Errorf("gated=%t: %d %q remarks from %d repeats; the fixture no longer exercises the order",
					gated, reasons[reason], reason, n)
			}
		}
		if strings.Count(sets, "\n") < 10 {
			t.Errorf("gated=%t: only %d candidate sets", gated, strings.Count(sets, "\n"))
		}
	}
}
