package layout

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"outliner/internal/mir"
	"outliner/internal/obs"
	"outliner/internal/profile"
	"outliner/internal/raceflag"
	"outliner/internal/verify"
)

// genProgram builds a synthetic program of n functions named f00..fNN, each
// with a deterministic pseudo-random body size, in name order.
func genProgram(t *testing.T, n int, rng *rand.Rand) *mir.Program {
	t.Helper()
	var b strings.Builder
	for i := 0; i < n; i++ {
		name := funcName(i)
		b.WriteString("func @" + name + " module \"M\" {\nentry:\n")
		for j := rng.Intn(12) + 2; j > 0; j-- {
			b.WriteString("  MOVZXi $x0, #1\n")
		}
		b.WriteString("  RET\n}\n\n")
	}
	p, err := mir.Parse(b.String())
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return p
}

func funcName(i int) string {
	return "f" + string(rune('a'+i/26)) + string(rune('a'+i%26))
}

func names(p *mir.Program) []string {
	out := make([]string, len(p.Funcs))
	for i, f := range p.Funcs {
		out[i] = f.Name
	}
	return out
}

func equalNames(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// genProfile fabricates a profile with random entries and call edges among
// the program's functions (plus some runtime/dead symbols the pass must
// tolerate).
func genProfile(p *mir.Program, rng *rand.Rand) *profile.Profile {
	prof := profile.New()
	for _, f := range p.Funcs {
		if rng.Intn(3) == 0 {
			continue // leave some functions cold
		}
		fp := prof.Func(f.Name)
		fp.Entries = int64(rng.Intn(500))
		fp.Calls = map[string]int64{}
		for k := rng.Intn(4); k > 0; k-- {
			callee := p.Funcs[rng.Intn(len(p.Funcs))].Name
			fp.Calls[profile.EdgeKey(callee, int64(rng.Intn(64)*4))] = int64(rng.Intn(300) + 1)
		}
		fp.Calls[profile.EdgeKey("swift_release", 8)] = 7 // not in program
	}
	return prof
}

func TestNoneAndEmptyPolicyAreNoOps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := genProgram(t, 20, rng)
	prof := genProfile(p, rng)
	before := names(p)
	for _, policy := range []string{"", None} {
		st, err := Apply(p, Options{Policy: policy, Profile: prof})
		if err != nil {
			t.Fatalf("Apply(%q): %v", policy, err)
		}
		if st.Moved != 0 || !equalNames(names(p), before) {
			t.Fatalf("Apply(%q) moved functions", policy)
		}
	}
}

func TestNilProfileIsInert(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := genProgram(t, 20, rng)
	before := names(p)
	st, err := Apply(p, Options{Policy: C3})
	if err != nil {
		t.Fatal(err)
	}
	if st.Moved != 0 || !equalNames(names(p), before) {
		t.Fatal("c3 with nil profile moved functions")
	}
}

func TestUnknownPolicyErrors(t *testing.T) {
	p := genProgram(t, 4, rand.New(rand.NewSource(3)))
	if _, err := Apply(p, Options{Policy: "pettis-hansen", Profile: profile.New()}); err == nil {
		t.Fatal("Apply with unknown policy succeeded")
	}
	if Valid("pettis-hansen") {
		t.Fatal(`Valid("pettis-hansen") = true`)
	}
	for _, ok := range []string{"", None, C3, Outlined} {
		if !Valid(ok) {
			t.Fatalf("Valid(%q) = false", ok)
		}
	}
}

// TestC3ChainClustering checks the core property: the hottest caller→callee
// chain ends up contiguous, hottest cluster first.
func TestC3ChainClustering(t *testing.T) {
	src := `
func @a module "M" {
entry:
  RET
}

func @mid module "M" {
entry:
  RET
}

func @leaf module "M" {
entry:
  RET
}

func @main module "M" {
entry:
  RET
}
`
	p, err := mir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	prof := profile.New()
	// main -> mid (weight 90, over two call sites), mid -> leaf (weight 80),
	// a -> leaf (weight 10, loses: leaf no longer heads its cluster).
	m := prof.Func("main")
	m.Entries = 1
	m.Calls = map[string]int64{
		profile.EdgeKey("mid", 4):  50,
		profile.EdgeKey("mid", 12): 40,
	}
	mid := prof.Func("mid")
	mid.Entries = 90
	mid.Calls = map[string]int64{profile.EdgeKey("leaf", 4): 80}
	a := prof.Func("a")
	a.Entries = 2
	a.Calls = map[string]int64{profile.EdgeKey("leaf", 4): 10}
	prof.Func("leaf").Entries = 90

	tr := obs.New()
	st, err := Apply(p, Options{Policy: C3, Profile: prof, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"main", "mid", "leaf", "a"}
	if !equalNames(names(p), want) {
		t.Fatalf("order = %v, want %v", names(p), want)
	}
	if st.Merges != 2 {
		t.Errorf("Merges = %d, want 2", st.Merges)
	}
	if st.Clusters != 2 {
		t.Errorf("Clusters = %d, want 2", st.Clusters)
	}

	recs := tr.Remarks()
	if len(recs) != 2 {
		t.Fatalf("got %d remarks, want 2 merge decisions", len(recs))
	}
	for _, r := range recs {
		if r.Pass != "function-layout" || r.Status != "selected" {
			t.Errorf("remark %+v: want selected function-layout", r)
		}
		if r.EdgeWeight == 0 || r.Caller == "" || r.Function == "" {
			t.Errorf("remark %+v: missing edge detail", r)
		}
	}
	if c := tr.Counter("layout/merges"); c != 2 {
		t.Errorf("layout/merges counter = %d, want 2", c)
	}
}

// TestC3ClusterCap checks that a merge overflowing the page cap is rejected
// and shows up as a rejection remark.
func TestC3ClusterCap(t *testing.T) {
	var b strings.Builder
	for _, name := range []string{"big1", "big2"} {
		b.WriteString("func @" + name + " module \"M\" {\nentry:\n")
		for i := 0; i < 599; i++ {
			b.WriteString("  MOVZXi $x0, #1\n")
		}
		b.WriteString("  RET\n}\n\n")
	}
	p, err := mir.Parse(b.String())
	if err != nil {
		t.Fatal(err)
	}
	prof := profile.New()
	f := prof.Func("big1")
	f.Entries = 10
	f.Calls = map[string]int64{profile.EdgeKey("big2", 4): 99}
	prof.Func("big2").Entries = 9

	// Each function is 2400 bytes; a 4 KiB page admits either alone but not
	// the pair, so the single candidate merge must be rejected.
	tr := obs.New()
	st, err := Apply(p, Options{Policy: C3, Profile: prof, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if st.Merges != 0 || st.CapRejects != 1 {
		t.Fatalf("Merges=%d CapRejects=%d, want 0/1", st.Merges, st.CapRejects)
	}
	recs := tr.Remarks()
	if len(recs) != 1 || recs[0].Status != "rejected" || recs[0].Reason != "cluster-cap" {
		t.Fatalf("remarks = %+v, want one cluster-cap rejection", recs)
	}
}

// TestUntracedC3BuildsNoRemarks checks that C3 records its merge decisions
// only for a tracer: on a 300-function call chain, where every edge is a
// merge or a cap rejection, a traced Apply allocates at least the remark
// slice more than an untraced one, and both reach the same order and stats.
func TestUntracedC3BuildsNoRemarks(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	base := genProgram(t, 300, rand.New(rand.NewSource(1)))
	prof := profile.New()
	for i := 0; i+1 < len(base.Funcs); i++ {
		fp := prof.Func(base.Funcs[i].Name)
		fp.Entries = int64(1000 - i)
		fp.Calls = map[string]int64{profile.EdgeKey(base.Funcs[i+1].Name, 4): int64(1000 - i)}
	}
	apply := func(tr *obs.Tracer) (uint64, *Stats, []string) {
		p := base.Clone()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st, err := Apply(p, Options{Policy: C3, Profile: prof, Tracer: tr})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc, st, names(p)
	}
	apply(nil) // lazily built tables are not the pass's
	untraced, st, order := apply(nil)
	tr := obs.New()
	traced, tst, torder := apply(tr)
	decisions := st.Merges + st.CapRejects
	if st.Merges == 0 || st.CapRejects == 0 || decisions < 250 {
		t.Fatalf("fixture makes %d merges and %d cap rejections; want both kinds, 250 in all", st.Merges, st.CapRejects)
	}
	if *tst != *st || !equalNames(torder, order) {
		t.Fatalf("traced Apply differs: stats %+v vs %+v", *tst, *st)
	}
	if n := len(tr.Remarks()); n != decisions {
		t.Fatalf("traced Apply emitted %d remarks for %d decisions", n, decisions)
	}
	recBytes := uint64(decisions) * uint64(unsafe.Sizeof(obs.Remark{}))
	if traced < untraced+recBytes {
		t.Errorf("untraced Apply allocates %d bytes, traced %d: less than the %d-byte remark slice apart, so the untraced pass builds remarks", untraced, traced, recBytes)
	}
}

// TestPermutationProperty is the satellite property test: for many random
// (program, profile) pairs, c3 yields a true permutation — same multiset of
// functions, verifier still clean.
func TestPermutationProperty(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		base := genProgram(t, rng.Intn(40)+2, rng)
		prof := genProfile(base, rng)
		p := base.Clone()
		if _, err := Apply(p, Options{Policy: C3, Profile: prof}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(p.Funcs) != len(base.Funcs) {
			t.Fatalf("seed %d: %d funcs, want %d", seed, len(p.Funcs), len(base.Funcs))
		}
		seen := map[string]bool{}
		for _, f := range p.Funcs {
			if seen[f.Name] {
				t.Fatalf("seed %d: duplicate %q", seed, f.Name)
			}
			seen[f.Name] = true
			if base.Func(f.Name) == nil {
				t.Fatalf("seed %d: foreign function %q", seed, f.Name)
			}
			if p.Func(f.Name) != f {
				t.Fatalf("seed %d: index stale for %q", seed, f.Name)
			}
		}
		if err := verify.Program(p, map[string]bool{"swift_release": true}).Err(); err != nil {
			t.Fatalf("seed %d: verifier: %v", seed, err)
		}
	}
}

// TestDeterministic applies c3 to independent clones and expects the exact
// same order every time — map iteration must never leak through.
func TestDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := genProgram(t, 48, rng)
	prof := genProfile(base, rng)
	var first []string
	for trial := 0; trial < 10; trial++ {
		p := base.Clone()
		if _, err := Apply(p, Options{Policy: C3, Profile: prof}); err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = names(p)
		} else if !equalNames(names(p), first) {
			t.Fatalf("trial %d order differs:\n%v\nvs\n%v", trial, names(p), first)
		}
	}
}

func TestReorderFuncsRejectsBadPermutations(t *testing.T) {
	p := genProgram(t, 4, rand.New(rand.NewSource(9)))

	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	expectPanic("short list", func() { p.ReorderFuncs(p.Funcs[:3]) })
	expectPanic("duplicate", func() {
		p.ReorderFuncs([]*mir.Function{p.Funcs[0], p.Funcs[0], p.Funcs[1], p.Funcs[2]})
	})
	expectPanic("foreign", func() {
		alien := p.Funcs[3].Clone()
		p.ReorderFuncs([]*mir.Function{p.Funcs[0], p.Funcs[1], p.Funcs[2], alien})
	})
}
