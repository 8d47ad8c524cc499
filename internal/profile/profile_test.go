package profile

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// randomProfile builds a profile from a seeded generator so property tests
// are reproducible.
func randomProfile(r *rand.Rand) *Profile {
	p := New()
	nf := 1 + r.Intn(6)
	for i := 0; i < nf; i++ {
		name := string(rune('a'+r.Intn(4))) + "_fn"
		f := p.Func(name)
		f.Entries += int64(r.Intn(100))
		f.Steps += int64(r.Intn(10000))
		for b := 0; b < r.Intn(4); b++ {
			if f.Blocks == nil {
				f.Blocks = map[string]int64{}
			}
			f.Blocks[[]string{"entry", "b1", "b2"}[r.Intn(3)]] += int64(1 + r.Intn(50))
		}
		for c := 0; c < r.Intn(4); c++ {
			if f.Calls == nil {
				f.Calls = map[string]int64{}
			}
			f.Calls[EdgeKey("callee", int64(4*r.Intn(8)))] += int64(1 + r.Intn(20))
		}
	}
	return p
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		p := randomProfile(r)
		enc := p.Encode()
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !bytes.Equal(got.Encode(), enc) {
			t.Fatalf("round trip changed bytes:\n%s\nvs\n%s", enc, got.Encode())
		}
	}
}

// Canonical encoding: building the same logical profile with different
// insertion orders must produce identical bytes.
func TestEncodeCanonical(t *testing.T) {
	a, b := New(), New()
	for _, name := range []string{"alpha", "beta", "gamma"} {
		f := a.Func(name)
		f.Entries, f.Steps = 3, 30
		f.Blocks = map[string]int64{"entry": 3, "loop": 9}
	}
	for _, name := range []string{"gamma", "alpha", "beta"} {
		f := b.Func(name)
		f.Blocks = map[string]int64{"loop": 9, "entry": 3}
		f.Entries, f.Steps = 3, 30
	}
	if !bytes.Equal(a.Encode(), b.Encode()) {
		t.Fatal("insertion order changed encoded bytes")
	}
	if a.Digest() != b.Digest() {
		t.Fatal("insertion order changed digest")
	}
}

// Merge is commutative and associative: any merge order over the same shards
// yields byte-identical encodings.
func TestMergeCommutativeAssociative(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 50; i++ {
		enc := func(p *Profile) []byte { return p.Encode() }
		ps := []*Profile{randomProfile(r), randomProfile(r), randomProfile(r)}
		// Re-decode to clone: Merge mutates the receiver.
		clone := func(p *Profile) *Profile {
			q, err := Decode(p.Encode())
			if err != nil {
				t.Fatal(err)
			}
			return q
		}
		ab := clone(ps[0])
		ab.Merge(ps[1])
		ba := clone(ps[1])
		ba.Merge(ps[0])
		if !bytes.Equal(enc(ab), enc(ba)) {
			t.Fatal("merge not commutative")
		}
		abc := clone(ab)
		abc.Merge(ps[2])
		bc := clone(ps[1])
		bc.Merge(ps[2])
		abc2 := clone(ps[0])
		abc2.Merge(bc)
		if !bytes.Equal(enc(abc), enc(abc2)) {
			t.Fatal("merge not associative")
		}
		if !bytes.Equal(enc(abc), enc(Merged(ps[2], ps[0], ps[1]))) {
			t.Fatal("Merged order-sensitive")
		}
	}
}

func TestDecodeHostileInput(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"not json":     "xx{",
		"wrong schema": `{"schema": 99, "functions": {}}`,
		"no schema":    `{"functions": {}}`,
		"null func":    `{"schema": 1, "functions": {"f": null}}`,
		"bad type":     `{"schema": 1, "functions": {"f": {"entries": "lots"}}}`,
	}
	for name, in := range cases {
		if _, err := Decode([]byte(in)); err == nil {
			t.Errorf("%s: decode accepted %q", name, in)
		}
	}
	if _, err := Decode(New().Encode()); err != nil {
		t.Errorf("empty profile: %v", err)
	}
}

// The hot report counts a function hot from the threshold up; a threshold
// that is not positive counts as 1, the outliner's remark boundary.
func TestHotThreshold(t *testing.T) {
	p := New()
	p.Func("hot").Entries = 100
	p.Func("warm").Entries = 10
	p.Func("cold").Entries = 1
	p.Func("dead")
	for thr, want := range map[int64]string{10: "2 hot at threshold 10", 0: "3 hot at threshold 1", -1: "3 hot at threshold 1"} {
		var sb strings.Builder
		if err := WriteHotReport(&sb, p, 1, thr); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(sb.String(), want) {
			t.Errorf("threshold %d: report %q lacks %q", thr, sb.String(), want)
		}
	}
	var nilp *Profile
	if nilp.Count("x") != 0 {
		t.Fatal("nil profile must be inert")
	}
}

func TestTopNDeterministic(t *testing.T) {
	p := New()
	for _, name := range []string{"b", "a", "c", "d"} {
		f := p.Func(name)
		f.Steps = 50
		f.Entries = 1
	}
	p.Func("z").Steps = 100
	top := p.TopN(3)
	if len(top) != 3 || top[0].Name != "z" || top[1].Name != "a" || top[2].Name != "b" {
		t.Fatalf("TopN = %+v", top)
	}
	if got := len(p.TopN(100)); got != 5 {
		t.Fatalf("TopN(100) len = %d", got)
	}
}

func TestReadFilesMergesShards(t *testing.T) {
	dir := t.TempDir()
	a, b := New(), New()
	a.Func("f").Entries = 2
	b.Func("f").Entries = 3
	b.Func("g").Steps = 7
	pa, pb := dir+"/a.json", dir+"/b.json"
	if err := a.WriteFile(pa); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteFile(pb); err != nil {
		t.Fatal(err)
	}
	m1, err := ReadFiles(pa, pb)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := ReadFiles(pb, pa)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m1.Encode(), m2.Encode()) {
		t.Fatal("shard merge order changed bytes")
	}
	if m1.Count("f") != 5 {
		t.Fatalf("Count(f) = %d", m1.Count("f"))
	}
}

func TestCollectorSnapshotIsolation(t *testing.T) {
	c := NewCollector()
	p := New()
	p.Func("f").Entries = 1
	c.Add(p)
	snap := c.Profile()
	d := snap.Digest()
	c.Add(p)
	if snap.Count("f") != 1 {
		t.Fatal("snapshot mutated by later Add")
	}
	if snap.Digest() != d {
		t.Fatal("snapshot digest changed")
	}
	if c.Profile().Count("f") != 2 {
		t.Fatal("collector lost a shard")
	}
}

func TestEncodeHasSchemaHeader(t *testing.T) {
	enc := string(New().Encode())
	if !strings.Contains(enc, `"schema": 1`) {
		t.Fatalf("missing schema header: %s", enc)
	}
	if !strings.HasSuffix(enc, "\n") {
		t.Fatal("missing trailing newline")
	}
}
