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
// fmt-based printer was replaced by the append-based one, again when MSUB
// began printing its accumulator (every program with a MSUB moved), and again
// when code generation began emitting canonical commutative operand order.
var textDigests = map[string]struct {
	sha256 string
	size   int64
}{
	"UberRider-24":        {"213fb5a1497d8ac10562b1f97cfee95a1cb20d4a1bb3de5dd8386e219972f6a8", 402287},
	"bfs":                 {"12545cbb1283199cdd548473ee28df070b8f7153f1bd043dfbe517f4224205c3", 4880},
	"boyermoorehorspool":  {"64910a227b69064f608c87e9270e9e60169ef3b331c88483a06421e8e47aa198", 5056},
	"bucketsort":          {"a15e2f7144c867b1d7d37c976b5a5bc99ecea5b9e6c9fe495f22c9456d541e3a", 6125},
	"closestpair":         {"19b9bd49ed6a691e168157229904eabb98148190fdbd11523e9ff72c83020e0d", 7120},
	"combinatorics":       {"c65325d1e5383dcdc270c791e2662055c3c128f3ec1412a70f84461cc408df44", 2969},
	"countingsort":        {"302fd35ee9eee9537d7def3358faa0375115872f242c85885cabbf231fd4d4f0", 3322},
	"countoccurrences":    {"9df4b25ed5f29215f3e34d897418a550ae93795b2416282b0281780906024378", 2708},
	"dfs":                 {"086468503ab7b7ce7db1c41445eb973d88f73530ef7708ac31eb88a42f23e4ae", 4410},
	"dijkstra":            {"a3e8e3619d674190252f2edef43f93e775757e4c416b4d7781cd2cf5fd2aabeb", 6408},
	"encodeanddecodetree": {"21c203067d9dcf1314ac05ecb7c5e5690f137162b5433519795841e72fc5e6ef", 9451},
	"gcd":                 {"2ee75e7e68b96948e43930aca05708ea78e9a5b89bfa18b87132a94752a806c7", 1380},
	"hashtable":           {"fb11a72b904df9796a05da64fc1db83752de87b4cc9736db096ac17b9a8fdeba", 5674},
	"huffman":             {"203d5d28c8c3a42f2e7b9ecc2c2c200ba4976c62ccfb8fc0910497bd757980f2", 5016},
	"json":                {"db3b151b29ba118ad3bba2ef822ccb3406cf20de4064d2f2c77e311bce489c9e", 5172},
	"kmp":                 {"fa33f0c1d45ea6fe005118b88437603def00d7fa071a7d83595e897275f2852a", 6136},
	"lcs":                 {"c83d1a4a759de9f34d6b23d1bd0885b04a406e4d7673af516b00272bcf873162", 3899},
	"lrucache":            {"dc37fa633fa5ade48c2c053892a86d467c5eb75ed987433c22d844b0cf43a090", 8180},
	"octtree":             {"a04d941ba33a18c15ead4301bf481a985f539a0e8b56ed469c54b62849a14628", 9576},
	"quicksort":           {"cd30589979a4b06f0414fffcc523a843c4d16e967fde43a63d8c6f819e97e2fe", 3836},
	"redblacktree":        {"b9555c7b280fa9a01ec84b1ab057e0be37bd72fba7f2ffbda413bfc057b600c0", 16684},
	"runlengthencoding":   {"4d07ac5616d78358748fbc30b2c0c845f6143cfc38b8906667da85fbe84dbfc9", 4936},
	"simulatedannealing":  {"3f8e3dc1fa9d44c1d3a1e68b69f55aa43be3e84fd43466f136fb7deb0852909c", 4561},
	"splaytree":           {"5892cd609550f6f13f7902af5ad90ee9267f9e05ca14bb0e59e75345270c73a7", 12063},
	"strassenmm":          {"2153fe826bddc77bf49ef3aa334e8a4ae94bee27c2c4e3c7ee5ac94c234dff76", 16856},
	"topologicalsort":     {"8bff4256b9f4dcca8a83a55d825714c4ef70b87470d184c6730bb71079ea742d", 6241},
	"zalgorithm":          {"f5502343105d486d12233d0fcbe1d2149d8d26cee18544e4e37ebf0ff9e7722b", 3856},
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
		t.Errorf("%d bytes arrived in %d writes; expected 4 KB chunks", n, len(w.writes))
	}
	for i, size := range w.writes {
		if size > 5<<10 {
			t.Errorf("write %d carried %d bytes; a chunk is 4 KB plus the line that filled it", i, size)
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
