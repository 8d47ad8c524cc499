package mir_test

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"outliner/internal/appgen"
	"outliner/internal/mir"
	"outliner/internal/pipeline"
)

// textDigests holds the SHA-256 and the length of Program.String() for the
// OSize build of each corpus program, recorded at the commit before the
// fmt-based printer was replaced by the append-based one, and again when MSUB
// began printing its accumulator (every program with a MSUB moved).
var textDigests = map[string]struct {
	sha256 string
	size   int64
}{
	"UberRider-24":        {"4c0f79f1ccea053dc51189faa72de0f1209dc296b400a0c01be85747fde108a7", 402505},
	"bfs":                 {"7263124f9f7dfacf719b6e4130dd39161177489ad6b70c6f8d35318d54250734", 4880},
	"boyermoorehorspool":  {"b0ff62533f17ae0c14f6fcbe2bfb0e6665d4b111e0f66fc0358ea85efbf28074", 5056},
	"bucketsort":          {"093c0efecf3e940064ff9f2f975e7e9fe4e4b55f57aa3eee8bf87c611b72b6c0", 6125},
	"closestpair":         {"a5c8b98b84507ec95bf9570737073232519ac820038d0523e28d4b9aef1feb36", 7120},
	"combinatorics":       {"c9392523f43a3d38deb1281f29cd4f99f909c1484cd609ca04a1d6e3d07de469", 2969},
	"countingsort":        {"a4127d99dfc83b598f85e0d547db7f7be6dff78d472f1cbcb757a20cdb0ff4f8", 3322},
	"countoccurrences":    {"2eb28a73a403fd8ac4af41fb89c32b6fcf439ac3889f01484a1a307debc0b6fe", 2708},
	"dfs":                 {"9a853fe4f13dd055d519d634aa53177298af696c49050ff269ed0c5d6e497891", 4410},
	"dijkstra":            {"9252c05acfbe6dc738b8624a0528d1bcae99e7ff346d002efcbdac385f5cffff", 6408},
	"encodeanddecodetree": {"f8abce1e191414f9b02adc33b8122cdfcbd3de2862a181cf43e88146c8d239af", 9451},
	"gcd":                 {"cb9524c109cb008877d9217bad13a997b6005e2d533e3b6156af81f4079e69c5", 1380},
	"hashtable":           {"bbeddb7c482b6e1559198efdd45a67dd272e73153798e6cb8ba913ad2cff515b", 5674},
	"huffman":             {"34ac04195da5d4adad3aeedd9b3ad339e059e3d70847e9913988f2ab38dc1b88", 5016},
	"json":                {"78960f23206497782ee9d38077bd1faabb119d54181cc9e5f773e4bbc6660df0", 5172},
	"kmp":                 {"abe1615ff7352200ffd99c6c9eb7690c4302a0505e9051ba4cfd161cdc069992", 6136},
	"lcs":                 {"ffeccd85a37996cea651e57dcd52285866cbfe106bb6e98b2f8a62496b85be62", 3899},
	"lrucache":            {"dc37fa633fa5ade48c2c053892a86d467c5eb75ed987433c22d844b0cf43a090", 8180},
	"octtree":             {"77dbc148d771c470a66212714eeec29e8b58f144aa0b5d35487fa0d173d467b6", 9576},
	"quicksort":           {"e03fb94527cc1b1bf5a9366bf998e05de379525b1a690d0333bda70bae818fa9", 3836},
	"redblacktree":        {"45c9400cb496670e96fbc0cc4b275c7d149e04dba7355d2f270c2939f168d3e9", 16684},
	"runlengthencoding":   {"f14754adc278cd6d0a5309d809d8d5ec6f32700c88d0382a7f69d1edd5bbff52", 4936},
	"simulatedannealing":  {"b3e9b2d2af3bc1815ce108305d4ecf8adda20d307a779599a71e42a8b16982ff", 4561},
	"splaytree":           {"1a4b3d2e856bb34b54670df4d651719ecf3898eeefe1568dcfa6ed20886c18b1", 12063},
	"strassenmm":          {"8e4dbbb0eebc34a37333cdf9e5dabe17296dacd445b3ab4f6b196b4e0283ca3d", 16844},
	"topologicalsort":     {"a989326efdff4bbd969ed314055141c73e2cca2c00d3bdfba79a00f6a8426585", 6241},
	"zalgorithm":          {"b25c494eb62e2663323156b040d357dbe12d020e6d0e67fadd4b5f216f14e092", 3856},
}

// corpusPrograms is the OSize build of the 24-module UberRider app and of each
// program under testdata/benchmarks.
func corpusPrograms(t *testing.T) map[string]*mir.Program {
	t.Helper()
	res, err := appgen.BuildApp(appgen.UberRider, appgen.ScaleForModules(appgen.UberRider, 24), pipeline.OSize)
	if err != nil {
		t.Fatal(err)
	}
	progs := map[string]*mir.Program{"UberRider-24": res.Prog}
	paths, err := filepath.Glob("../../testdata/benchmarks/*.sl")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no benchmark programs found: %v", err)
	}
	for _, p := range paths {
		text, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		name := strings.TrimSuffix(filepath.Base(p), ".sl")
		res, err := pipeline.Build([]pipeline.Source{{
			Name: name, Files: map[string]string{filepath.Base(p): string(text)},
		}}, pipeline.OSize)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		progs[name] = res.Prog
	}
	return progs
}

// TestProgramTextIdentity: WriteTo streams, byte for byte, what String()
// returned before the printer was rewritten; String() is the same text; and
// Parse reads it back to a program that prints the same.
func TestProgramTextIdentity(t *testing.T) {
	progs := corpusPrograms(t)
	if len(progs) != len(textDigests) {
		t.Errorf("corpus has %d programs, %d digests recorded", len(progs), len(textDigests))
	}
	for name, prog := range progs {
		want, ok := textDigests[name]
		if !ok {
			t.Errorf("%s: no recorded digest", name)
			continue
		}
		h := sha256.New()
		n, err := prog.WriteTo(h)
		if err != nil {
			t.Fatalf("%s: WriteTo: %v", name, err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want.sha256 || n != want.size {
			t.Errorf("%s: WriteTo wrote %d bytes with digest %s, recorded %d bytes with digest %s", name, n, got, want.size, want.sha256)
		}
		text := prog.String()
		if sum := sha256.Sum256([]byte(text)); hex.EncodeToString(sum[:]) != want.sha256 {
			t.Errorf("%s: String() differs from what WriteTo streams", name)
		}
		back, err := mir.Parse(text)
		if err != nil {
			t.Fatalf("%s: Parse(String()): %v", name, err)
		}
		if back.String() != text {
			t.Errorf("%s: Parse(String()).String() differs from String()", name)
		}
	}
}

// writeLog records the size of every Write and fails the one that would take
// it past limit bytes (limit < 0 never fails), accepting the part that fits.
// With short set, that Write reports the short count and no error.
type writeLog struct {
	limit  int
	short  bool
	taken  int
	writes []int
	failed bool
	late   int // Writes that arrived after the failing one
}

var errDiskFull = errors.New("disk full")

func (w *writeLog) Write(p []byte) (int, error) {
	if w.failed {
		w.late++
	}
	w.writes = append(w.writes, len(p))
	if w.limit >= 0 && w.taken+len(p) > w.limit {
		n := w.limit - w.taken
		w.taken = w.limit
		w.failed = true
		if w.short {
			return n, nil
		}
		return n, errDiskFull
	}
	w.taken += len(p)
	return len(p), nil
}

// TestWriteToStreamsInChunks: a program larger than the chunk reaches the
// writer in several bounded writes, not as one string.
func TestWriteToStreamsInChunks(t *testing.T) {
	res, err := appgen.BuildApp(appgen.UberRider, appgen.ScaleForModules(appgen.UberRider, 24), pipeline.OSize)
	if err != nil {
		t.Fatal(err)
	}
	w := &writeLog{limit: -1}
	n, err := res.Prog.WriteTo(w)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(w.taken) || n != int64(len(res.Prog.String())) {
		t.Errorf("WriteTo reported %d bytes, the writer took %d, String() has %d", n, w.taken, len(res.Prog.String()))
	}
	if len(w.writes) < 4 {
		t.Errorf("%d bytes arrived in %d writes; expected 64 KB chunks", n, len(w.writes))
	}
	for i, size := range w.writes {
		if size > 80<<10 {
			t.Errorf("write %d carried %d bytes; a chunk is 64 KB plus the function that filled it", i, size)
		}
	}
}

// TestWriteToReportsFailure: whichever chunk the writer rejects, WriteTo
// returns the writer's error and the number of bytes the writer accepted.
func TestWriteToReportsFailure(t *testing.T) {
	res, err := appgen.BuildApp(appgen.UberRider, appgen.ScaleForModules(appgen.UberRider, 24), pipeline.OSize)
	if err != nil {
		t.Fatal(err)
	}
	total := len(res.Prog.String())
	for _, limit := range []int{0, 1, 64 << 10, total / 2, total - 1} {
		w := &writeLog{limit: limit}
		if n, err := res.Prog.WriteTo(w); !errors.Is(err, errDiskFull) || n != int64(limit) {
			t.Errorf("writer failing after %d bytes: WriteTo = %d, %v", limit, n, err)
		}
		if w.late != 0 {
			t.Errorf("writer failing after %d bytes was written to %d more times", limit, w.late)
		}
		w = &writeLog{limit: limit, short: true}
		if n, err := res.Prog.WriteTo(w); err != io.ErrShortWrite || n != int64(limit) {
			t.Errorf("writer cut short after %d bytes: WriteTo = %d, %v, want io.ErrShortWrite", limit, n, err)
		}
	}
	if n, err := res.Prog.WriteTo(&writeLog{limit: total}); err != nil || n != int64(total) {
		t.Errorf("writer with room for exactly %d bytes: WriteTo = %d, %v", total, n, err)
	}
}
