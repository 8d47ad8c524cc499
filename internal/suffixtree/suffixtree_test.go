package suffixtree

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"outliner/internal/raceflag"
)

// sym converts a byte string into the int alphabet with a unique terminator.
func sym(s string) []int {
	out := make([]int, 0, len(s)+1)
	for _, b := range []byte(s) {
		out = append(out, int(b))
	}
	out = append(out, -1)
	return out
}

// collect returns all repeats as map[substring-as-string] -> sorted starts.
func collect(t *Tree, minLen, minCount int) map[string][]int {
	got := make(map[string][]int)
	t.ForEachRepeat(minLen, minCount, func(r Repeat) {
		starts := append([]int(nil), r.Starts...)
		sort.Ints(starts)
		key := ""
		for _, v := range t.s[starts[0] : starts[0]+r.Length] {
			key += string(rune(v))
		}
		got[key] = starts
	})
	return got
}

func TestSimpleRepeats(t *testing.T) {
	// "abcabcabc": "abc" (and rotations) repeat.
	tree := New(sym("abcabcabc"))
	got := collect(tree, 3, 2)
	abc, ok := got["abcabc"]
	if !ok {
		// "abcabc" occurs at 0 and 3 (overlapping) — right-maximal.
		t.Fatalf("missing repeat abcabc; got %v", keys(got))
	}
	if len(abc) != 2 || abc[0] != 0 || abc[1] != 3 {
		t.Errorf("abcabc starts = %v, want [0 3]", abc)
	}
	if starts, ok := got["abc"]; !ok || len(starts) != 3 {
		t.Errorf("abc starts = %v, want 3 occurrences", starts)
	}
}

func TestMinCountAndMinLen(t *testing.T) {
	tree := New(sym("xxabyxaby"))
	all := collect(tree, 2, 2)
	// "xab" always precedes "y", so only the right-maximal "xaby" shows up.
	if _, ok := all["xaby"]; !ok {
		t.Errorf("xaby should repeat; got %v", keys(all))
	}
	if _, ok := all["xab"]; ok {
		t.Error("xab is not right-maximal and must not be reported")
	}
	none := collect(tree, 10, 2)
	if len(none) != 0 {
		t.Errorf("no repeats of length 10 expected, got %v", keys(none))
	}
	tripleOnly := collect(tree, 1, 3)
	if _, ok := tripleOnly["x"]; !ok {
		t.Errorf("x occurs 3 times; got %v", keys(tripleOnly))
	}
	if _, ok := tripleOnly["ab"]; ok {
		t.Error("ab occurs only twice, must be filtered by minCount=3")
	}
}

func TestSeparatorsPreventCrossMatches(t *testing.T) {
	// Two "blocks" ab|ab with distinct separators: "abab" must NOT repeat,
	// "ab" must repeat twice.
	s := []int{'a', 'b', -1, 'a', 'b', -2}
	tree := New(s)
	found := false
	tree.ForEachRepeat(2, 2, func(r Repeat) {
		if r.Length == 2 {
			found = true
		}
		if r.Length > 2 {
			t.Errorf("repeat of length %d crosses separator", r.Length)
		}
	})
	if !found {
		t.Error("missing ab repeat across separated blocks")
	}
}

// naiveRepeats computes right-maximal repeated substrings by brute force.
func naiveRepeats(s []int, minLen, minCount int) map[string][]int {
	key := func(sub []int) string {
		out := ""
		for _, v := range sub {
			out += string(rune(v + 1000))
		}
		return out
	}
	occ := make(map[string][]int)
	for l := minLen; l <= len(s); l++ {
		for i := 0; i+l <= len(s); i++ {
			occ[key(s[i:i+l])] = append(occ[key(s[i:i+l])], i)
		}
	}
	out := make(map[string][]int)
	for l := minLen; l <= len(s); l++ {
		for i := 0; i+l <= len(s); i++ {
			sub := s[i : i+l]
			starts := occ[key(sub)]
			if len(starts) < minCount {
				continue
			}
			// Right-maximal: extending by one symbol changes the occurrence
			// set for at least one occurrence pair, i.e. not every
			// occurrence is followed by the same symbol.
			rightMax := false
			var follow int
			haveFollow := false
			for _, st := range starts {
				if st+l >= len(s) {
					rightMax = true
					break
				}
				if !haveFollow {
					follow, haveFollow = s[st+l], true
				} else if s[st+l] != follow {
					rightMax = true
					break
				}
			}
			if rightMax {
				out[key(sub)] = starts
			}
		}
	}
	return out
}

// checkAgainstNaive compares every repeat the finder reports for s with the
// brute-force enumeration, and NodeCount with the suffix tree's: the root, one
// leaf per symbol, and one internal node per right-maximal repeat.
func checkAgainstNaive(t *testing.T, s []int, minLen, minCount int) {
	t.Helper()
	tree := New(s)
	want := naiveRepeats(s, minLen, minCount)
	got := make(map[string][]int)
	keyOf := func(sub []int) string {
		out := ""
		for _, v := range sub {
			out += string(rune(v + 1000))
		}
		return out
	}
	tree.ForEachRepeat(minLen, minCount, func(r Repeat) {
		starts := append([]int(nil), r.Starts...)
		sort.Ints(starts)
		sub := s[starts[0] : starts[0]+r.Length]
		k := keyOf(sub)
		if _, dup := got[k]; dup {
			t.Fatalf("s=%v: repeat %v reported twice", s, sub)
		}
		got[k] = starts
	})
	if len(got) != len(want) {
		t.Fatalf("s=%v: got %d repeats, want %d\n got=%v\nwant=%v", s, len(got), len(want), got, want)
	}
	for k, ws := range want {
		gs, ok := got[k]
		if !ok {
			t.Fatalf("s=%v: missing repeat (len %d chars)", s, len(k))
		}
		sort.Ints(ws)
		if !intsEqual(gs, ws) {
			t.Fatalf("s=%v: starts differ: got %v want %v", s, gs, ws)
		}
	}
	if want := 1 + len(s) + len(naiveRepeats(s, 1, 2)); tree.NodeCount() != want {
		t.Fatalf("s=%v: NodeCount %d, want %d", s, tree.NodeCount(), want)
	}
}

func TestAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(40)
		alpha := 1 + rng.Intn(4)
		s := make([]int, 0, n+1)
		sentinel := -1
		for i := 0; i < n; i++ {
			// From trial 200 on, interior unique sentinels cut the string
			// into blocks the way the outliner's mapping does.
			if trial >= 200 && rng.Intn(6) == 0 {
				s = append(s, sentinel)
				sentinel--
				continue
			}
			s = append(s, rng.Intn(alpha))
		}
		s = append(s, sentinel) // unique terminator
		checkAgainstNaive(t, s, 1+trial%3, 2+trial%2)
	}
}

// FuzzRepeats compares the finder with the brute-force enumeration. Each byte
// is one symbol: its low bits pick from a four-letter alphabet, and a byte
// with the top bit set is a unique sentinel instead; the first two bytes pick
// minLen and minCount.
func FuzzRepeats(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 1, 2, 1, 2})
	f.Add([]byte{1, 1, 0, 0, 0, 0, 0x80, 0, 0, 0, 0})
	f.Add([]byte{2, 0, 1, 2, 3, 0x80, 1, 2, 3, 0x81, 1, 2, 3, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 66 {
			return
		}
		minLen, minCount := 1+int(data[0]%4), 2+int(data[1]%3)
		s := make([]int, 0, len(data)-1)
		sentinel := -1
		for _, b := range data[2:] {
			if b&0x80 != 0 {
				s = append(s, sentinel)
				sentinel--
			} else {
				s = append(s, int(b%4))
			}
		}
		s = append(s, sentinel)
		checkAgainstNaive(t, s, minLen, minCount)
	})
}

func TestSuffixStartsAreCorrect(t *testing.T) {
	// Property: every reported occurrence actually matches the substring.
	f := func(data []byte) bool {
		if len(data) == 0 || len(data) > 200 {
			return true
		}
		s := make([]int, 0, len(data)+1)
		for _, b := range data {
			s = append(s, int(b%5))
		}
		s = append(s, -7)
		tree := New(s)
		ok := true
		tree.ForEachRepeat(2, 2, func(r Repeat) {
			ref := s[r.Starts[0] : r.Starts[0]+r.Length]
			for _, st := range r.Starts {
				if st+r.Length > len(s) {
					ok = false
					return
				}
				for i, v := range ref {
					if s[st+i] != v {
						ok = false
						return
					}
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLargeInputPerformanceShape(t *testing.T) {
	// A 100k-symbol input with heavy repetition must build quickly and
	// report the dominant repeat. This guards against accidental quadratic
	// behaviour in construction.
	n := 100_000
	s := make([]int, 0, n+1)
	for i := 0; i < n/4; i++ {
		s = append(s, 1, 2, 3, i%7)
	}
	s = append(s, -1)
	tree := New(s)
	maxCount := 0
	tree.ForEachRepeat(2, 2, func(r Repeat) {
		if len(r.Starts) > maxCount {
			maxCount = len(r.Starts)
		}
	})
	if maxCount < n/8 {
		t.Errorf("dominant repeat count = %d, want >= %d", maxCount, n/8)
	}
}

func keys(m map[string][]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func intsEqual(a, b []int) bool {
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

// A reused Builder must produce exactly the tree a fresh construction would:
// the outliner rebuilds the tree every round from the same Builder, and its
// output feeds deterministic, byte-identical builds.
func TestBuilderReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var b Builder
	for round := 0; round < 20; round++ {
		n := 1 + rng.Intn(400)
		alphabet := 1 + rng.Intn(12)
		s := make([]int, n)
		sentinel := -1
		for i := range s {
			if rng.Intn(10) == 0 {
				s[i] = sentinel
				sentinel--
			} else {
				s[i] = rng.Intn(alphabet)
			}
		}
		fresh := collect(New(s), 2, 2)
		reused := collect(b.Build(s), 2, 2)
		if len(fresh) != len(reused) {
			t.Fatalf("round %d: reused builder found %d repeats, fresh %d", round, len(reused), len(fresh))
		}
		for key, starts := range fresh {
			got, ok := reused[key]
			if !ok {
				t.Fatalf("round %d: reused builder missing repeat %q", round, key)
			}
			if len(got) != len(starts) {
				t.Fatalf("round %d: repeat %q starts %v vs fresh %v", round, key, got, starts)
			}
			for i := range got {
				if got[i] != starts[i] {
					t.Fatalf("round %d: repeat %q starts %v vs fresh %v", round, key, got, starts)
				}
			}
		}
	}
}

// TestGoldenIdentityRepeats pins what the outliner's output depends on — the
// node count, and each reported repeat's length and set of starts — to
// digests recorded with the Ukkonen suffix tree this package used to build.
// Neither the order repeats are reported in nor the order inside Starts is
// part of it: the outliner sorts both away, so the lines are hashed sorted.
func TestGoldenIdentityRepeats(t *testing.T) {
	recorded := map[int64]string{
		1: "adcd1d37862f2cbc3d8e946b248106467e5fd5a4f9d03d56af354cc883746b44",
		2: "66ae3787344d0a0fb8e7f8bbe73f7775979cf193bf0ac39d537502afeee5bb9e",
		3: "91f039ef7c25278d6af816c6a8408b804e22739ebe23b45085b8125f8f37b46a",
	}
	for seed, want := range recorded {
		rng := rand.New(rand.NewSource(seed))
		h := sha256.New()
		var b Builder
		for trial := 0; trial < 60; trial++ {
			n := 1 + rng.Intn(3000)
			alphabet := 1 + rng.Intn(40)
			s := make([]int, 0, n+1)
			sentinel := -1
			for i := 0; i < n; i++ {
				if rng.Intn(12) == 0 {
					s = append(s, sentinel)
					sentinel--
				} else {
					s = append(s, rng.Intn(alphabet))
				}
			}
			s = append(s, sentinel)
			tree := b.Build(s)
			fmt.Fprintf(h, "nodes %d\n", tree.NodeCount())
			var lines []string
			tree.ForEachRepeat(2, 2, func(r Repeat) {
				starts := slices.Clone(r.Starts)
				slices.Sort(starts)
				lines = append(lines, fmt.Sprintf("%d %v\n", r.Length, starts))
			})
			slices.Sort(lines)
			for _, l := range lines {
				h.Write([]byte(l))
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("seed %d: repeats digest %s, recorded %s", seed, got, want)
		}
	}
}

// TestAllocBudgetBuilderReuse: the outliner rebuilds the array every round
// from one Builder over a string that only shrinks, so a second Build on a
// string no longer than the first — and a walk over its repeats — must not
// allocate.
func TestAllocBudgetBuilderReuse(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector inflates allocation counts")
	}
	rng := rand.New(rand.NewSource(11))
	long := make([]int, 20000)
	sentinel := -1
	for i := range long {
		if rng.Intn(10) == 0 {
			long[i] = sentinel
			sentinel--
		} else {
			long[i] = rng.Intn(300)
		}
	}
	long[len(long)-1] = sentinel
	short := long[len(long)/3:]
	var b Builder
	b.Build(long)
	for _, s := range [][]int{long, short} {
		n := testing.AllocsPerRun(3, func() {
			b.Build(s).ForEachRepeat(2, 2, func(Repeat) {})
		})
		if n != 0 {
			t.Errorf("rebuilding %d symbols with a Builder that held %d allocates %.0f times", len(s), len(long), n)
		}
	}
}
