package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"outliner/internal/appgen"
	"outliner/internal/exec"
	"outliner/internal/pipeline"
)

// pinnedCorpusSeed is the UberRider profile's own seed. The golden outputs
// and corpus digests under golden/ were recorded from it.
const pinnedCorpusSeed = 20170301

//go:embed golden
var goldenFS embed.FS

// corpus is the generated application one workload compiles, together with
// the edit stream the run's seed selects.
type corpus struct {
	name string // golden file stem, e.g. "UberRider-80"
	mods []appgen.Module
	// order is a seeded permutation of module indices: op i edits module
	// order[i % len(order)], so every run touches every module equally often
	// while different seeds touch them in different order.
	order []int
	seed  int64
	// pinned is true when golden/ holds this corpus's digest and output.
	pinned bool
}

// generate builds the UberRider corpus with at least modules modules. The
// run seed never resizes the corpus: across Profile.Seed values the generated
// code size varies by several percent (see README, "Why the seed does not
// resize the corpus"), which is wider than any bound in BENCHMARK.json. The
// seed instead picks the edit stream the program is fed.
func generate(modules int, corpusSeed, seed int64) (*corpus, error) {
	c := newCorpus(modules, corpusSeed, seed)
	if corpusSeed != pinnedCorpusSeed {
		return c, nil
	}
	pins, err := readPins()
	if err != nil {
		return nil, err
	}
	want, ok := pins[c.name]
	if !ok {
		return c, nil
	}
	if got := c.digest(); got != want {
		return nil, fmt.Errorf("corpus %s drifted: digest %s, pinned %s (appgen changed; re-record with -update-golden only if that is intended)", c.name, got, want)
	}
	c.pinned = true
	return c, nil
}

func newCorpus(modules int, corpusSeed, seed int64) *corpus {
	p := appgen.UberRider
	p.Seed = corpusSeed
	mods := appgen.Generate(p, appgen.ScaleForModules(p, modules))
	return &corpus{
		name:  fmt.Sprintf("%s-%d", p.Name, len(mods)),
		mods:  mods,
		order: rand.New(rand.NewSource(seed)).Perm(len(mods)),
		seed:  seed,
	}
}

// digest fingerprints the generated sources: module order, names, files.
func (c *corpus) digest() string {
	h := sha256.New()
	for _, m := range c.mods {
		fmt.Fprintf(h, "module %s objc=%t\n", m.Name, m.ObjC)
		names := make([]string, 0, len(m.Files))
		for n := range m.Files {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(h, "file %s %d\n%s\n", n, len(m.Files[n]), m.Files[n])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// edited returns the sources of op i: the corpus with a comment appended to
// one module. The comment changes that module's source hash (and so its cache
// keys) but not the program, so every op must produce the same image. Op -1
// is the unedited corpus.
func (c *corpus) edited(i int) []appgen.Module {
	if i < 0 {
		return c.mods
	}
	target := c.mods[c.order[i%len(c.order)]].Name
	return appgen.EditBody(c.mods, target, fmt.Sprintf("seed %d op %d", c.seed, i))
}

// entries are the generated app's entry points: main, which prints, and the
// nine core spans it sums.
func entries() []string {
	out := []string{"main"}
	for i := 1; i <= appgen.UberRider.Spans; i++ {
		out = append(out, fmt.Sprintf("span%d", i))
	}
	return out
}

// referenceConfig is the least-transformed build: default pipeline, no
// machine outlining, no merging, no cache, serial.
func referenceConfig() pipeline.Config {
	cfg := pipeline.Default
	cfg.OutlineRounds = 0
	cfg.Parallelism = 1
	return cfg
}

// expectedOutput returns what the app must print and where that came from:
// the frozen golden file for a pinned corpus, otherwise a run-time build under
// referenceConfig.
func (c *corpus) expectedOutput() (out, source string, err error) {
	if c.pinned {
		data, err := goldenFS.ReadFile("golden/" + c.name + ".out")
		if err != nil {
			return "", "", fmt.Errorf("corpus %s is pinned but has no golden output: %w", c.name, err)
		}
		return string(data), "golden", nil
	}
	out, err = c.referenceOutput()
	return out, "runtime", err
}

func (c *corpus) referenceOutput() (string, error) {
	res, err := appgen.BuildGenerated(c.mods, referenceConfig())
	if err != nil {
		return "", fmt.Errorf("reference build: %w", err)
	}
	_, out, err := runEntries(res, exec.Options{})
	return out, err
}

func readPins() (map[string]string, error) {
	data, err := goldenFS.ReadFile("golden/corpus.sha256")
	if err != nil {
		return nil, err
	}
	pins := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			return nil, fmt.Errorf("golden/corpus.sha256: malformed line %q", line)
		}
		pins[f[1]] = f[0]
	}
	return pins, nil
}

// updateGolden re-records the digest and reference output of every corpus
// size the workloads and the test use. It is the only way golden/ changes.
func updateGolden(dir string, sizes []int) error {
	var pins []string
	for _, n := range sizes {
		c := newCorpus(n, pinnedCorpusSeed, 0)
		out, err := c.referenceOutput()
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, c.name+".out"), []byte(out), 0o644); err != nil {
			return err
		}
		pins = append(pins, c.digest()+"  "+c.name)
	}
	return os.WriteFile(filepath.Join(dir, "corpus.sha256"), []byte(strings.Join(pins, "\n")+"\n"), 0o644)
}
