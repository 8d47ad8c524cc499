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
// fmt-based printer was replaced by the append-based one.
var textDigests = map[string]struct {
	sha256 string
	size   int64
}{
	"UberRider-24":        {"0507d3889fe41aba29efeaf83e1999b6c5995a88c7999036e3744f57db5c9415", 402185},
	"bfs":                 {"f647d1444f6a96338dcfaf6e1d8e1d6777e3dd72bd54412cc8dc8bd99be9a905", 4875},
	"boyermoorehorspool":  {"ac47aced63c7a23ee25b79e5d24a06f689b25b93ce546a847c47a83351aa0a3b", 5041},
	"bucketsort":          {"31831a3e84df47d4ef6eb0fb63b6bea2351f915c1f17dc35933f9e6543eeb219", 6120},
	"closestpair":         {"e876df1d12482dedf75391d2eff79791396392a83bfd6557fad18cf107a25548", 7109},
	"combinatorics":       {"ceb1741b1a96a151340f702c056ed232c5ecdc76500f06532af7ca2304558911", 2964},
	"countingsort":        {"6c963c9f24797d16a40fcf64c786bb102b32e422767fbc66ab837e36714defd8", 3317},
	"countoccurrences":    {"2eb28a73a403fd8ac4af41fb89c32b6fcf439ac3889f01484a1a307debc0b6fe", 2708},
	"dfs":                 {"4f141db064b144c482b93ef18ec2c013f79f902b351d24f1004c6098e3429c45", 4405},
	"dijkstra":            {"d3a05a936b56338f2e394817a02c48f1095d0d8f4fcb8ee9c88e40f583c58f07", 6397},
	"encodeanddecodetree": {"e1ba22e274b0cd832d504f42cd5deca7a4ebd0e658d08218f30fa3e91f679c1f", 9445},
	"gcd":                 {"25eefdfefd43873e6354e1bfae782267ae309baf735f5c11ed1b4009f8eb1f31", 1374},
	"hashtable":           {"07ea5e991da72625a5a8cc3dc07f540547d6a1888a96efe59ec57a1555c996dd", 5650},
	"huffman":             {"6848495466cd75aefc7f629580d2ba0f73f4fd45c92dbac1fc3260d74c78dfd6", 5010},
	"json":                {"e8848f8e015b9009b6d04803423a9559247122182f79c08e6ba9d437283a8f13", 5166},
	"kmp":                 {"5f8fd051bd0768fe583e416b76562bd877e0b58152e4e5c58a88253b4248809c", 6131},
	"lcs":                 {"31f4d0261e8b46f104553c7bddfa757399166d6085d2e7da8620468ddf0f05c8", 3894},
	"lrucache":            {"d2ff1dd1fb83706c9cab741e90f3b519a9b261836e8a816c38f9bbe082fafb33", 8175},
	"octtree":             {"5c72738a20283c1e8f3659ad95d83a36814af657f9a2845487c8c9e0a90b8fc2", 9547},
	"quicksort":           {"265350c92ab9b141ca6492419de2eeaa74aff6ed7c301f14a9089ec2ab5518e9", 3831},
	"redblacktree":        {"ce43dbc418b2d6d3d8d520fc8f77293d5357dee26148d579f6996285bfff683a", 16678},
	"runlengthencoding":   {"8a2e668c70b43533444cd48e989f237baa092f6605ed22fdc53e02dc9c911e8b", 4930},
	"simulatedannealing":  {"a546ad64b847d77a6ad787141b49c61d396016996feaaeaf22f51e1ef8bb658d", 4526},
	"splaytree":           {"b4031421e2b0431afa8273cdade08c989f407194793b4eae0b1072b178d36c5d", 12051},
	"strassenmm":          {"11b17c8314cb545133b668ea7c47dd252bafcd8b54176cd0f61115fd975ec307", 16820},
	"topologicalsort":     {"b3d2556e02ff34974672d600924fe83157ae358d02b655fde2a8ba1458f5314c", 6236},
	"zalgorithm":          {"b95d3c65c5c31a006530fa7de88907fe873f5b39dfa9086173bfe3a5a3f2cd5f", 3850},
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
